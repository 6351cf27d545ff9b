#pragma once

/// \file protocol.hpp
/// The protocol axis as a first-class API: a value-typed `ProtocolSpec`
/// naming which election protocol to run (the paper's canonical DRIP, the
/// classify-only fast path, or one of the related-work baselines), a
/// string-keyed registry (`parse_protocol` / `registered_protocols`) and one
/// dispatch — `run_protocol` — that executes any spec on any configuration
/// and fills a uniform `ElectionReport`.
///
/// Why this exists: the paper's headline result (anonymous deterministic
/// election in Θ(n²σ)-scale time, exactly when wakeup asymmetry permits it)
/// only means something next to the landscape it contrasts with — labeled
/// O(log n) election (binary search / tree splitting, the folklore
/// algorithms behind its related-work bounds) and randomized decay election
/// on configurations the paper proves deterministically hopeless.  With
/// every protocol behind one spec, the batch engine runs head-to-head
/// cross-product sweeps, and "add a protocol" is a registry entry instead of
/// a new harness.
///
/// The labeled/randomized harness: labels (when the spec uses them and the
/// caller supplies none) are assigned from wakeup order — rank in the stable
/// (tag, node id) order — so the wakeup asymmetry the canonical protocol
/// exploits becomes the label asymmetry the baselines assume.  The run is
/// verified for termination and leader uniqueness, and the report carries an
/// explicit `Disposition` so a randomized no-leader run is a representable
/// outcome, not undefined behaviour.

#include <string>
#include <string_view>
#include <vector>

#include "core/election.hpp"

namespace arl::core {

/// Which election protocol a spec names.
enum class ProtocolKind : std::uint8_t {
  Canonical,     ///< classify + simulate the canonical DRIP + verify (the paper)
  ClassifyOnly,  ///< feasibility verdict only, no simulation
  BinarySearch,  ///< labeled deterministic bit-filter election, O(log n) rounds
  TreeSplit,     ///< labeled deterministic DFS tree-splitting election
  Randomized,    ///< anonymous randomized decay election (private coins)
};

/// A protocol plus its parameters — a value type, cheap to copy, compared
/// member-wise.  Construct via the factories or `parse_protocol`; the
/// defaults make `ProtocolSpec{}` the canonical protocol.
struct ProtocolSpec {
  static constexpr std::uint32_t kDefaultMaxSlots = 2048;

  ProtocolKind kind = ProtocolKind::Canonical;

  /// Label universe width for the labeled kinds; 0 (the default) auto-sizes
  /// to the smallest width whose universe covers the configuration.
  unsigned label_bits = 0;

  /// Slot guard for the randomized kind (forces termination even when no
  /// slot ever succeeds).
  std::uint32_t max_slots = kDefaultMaxSlots;

  [[nodiscard]] static ProtocolSpec canonical() { return {}; }
  [[nodiscard]] static ProtocolSpec classify_only() { return {ProtocolKind::ClassifyOnly}; }
  [[nodiscard]] static ProtocolSpec binary_search(unsigned label_bits = 0) {
    return {ProtocolKind::BinarySearch, label_bits};
  }
  [[nodiscard]] static ProtocolSpec tree_split(unsigned label_bits = 0) {
    return {ProtocolKind::TreeSplit, label_bits};
  }
  [[nodiscard]] static ProtocolSpec randomized(std::uint32_t max_slots = kDefaultMaxSlots) {
    return {ProtocolKind::Randomized, 0, max_slots};
  }

  /// Registry key, round-trippable through parse_protocol: "canonical",
  /// "classify", "binary-search", "tree-split", "randomized", with a
  /// ":value" suffix when a parameter differs from its default (e.g.
  /// "binary-search:12", "randomized:64").
  [[nodiscard]] std::string name() const;

  /// One-line human description (name, model assumptions, parameters).
  [[nodiscard]] std::string describe() const;

  /// True when the protocol runs on the simulator (everything but classify).
  [[nodiscard]] bool simulates() const { return kind != ProtocolKind::ClassifyOnly; }

  /// True when the protocol runs the Classifier (a feasibility verdict is
  /// only meaningful for these kinds).
  [[nodiscard]] bool classifies() const {
    return kind == ProtocolKind::Canonical || kind == ProtocolKind::ClassifyOnly;
  }

  /// True when the nodes receive distinct labels (the non-anonymous kinds).
  [[nodiscard]] bool uses_labels() const {
    return kind == ProtocolKind::BinarySearch || kind == ProtocolKind::TreeSplit;
  }

  /// True when the nodes flip private coins.
  [[nodiscard]] bool randomized_coins() const { return kind == ProtocolKind::Randomized; }

  friend bool operator==(const ProtocolSpec& a, const ProtocolSpec& b) = default;
};

/// The registered protocols, one spec per kind with default parameters, in
/// registry order.  `parse_protocol(p.name()) == p` for every entry
/// (asserted by tests/test_protocol.cpp).
[[nodiscard]] const std::vector<ProtocolSpec>& registered_protocols();

/// Comma-separated registry keys with parameter placeholders — the list CLI
/// error messages show ("canonical, classify, binary-search[:BITS], ...").
[[nodiscard]] std::string protocol_names();

/// Parses a registry key, with an optional ":value" parameter suffix for the
/// parameterized kinds (digits only, support/parse.hpp).  Throws
/// support::ContractViolation naming the registered protocols on an unknown
/// key, and a one-line reason on a malformed or out-of-range parameter.
[[nodiscard]] ProtocolSpec parse_protocol(std::string_view text);

/// Runs `spec` on `configuration` and fills a uniform report:
///  - Canonical / ClassifyOnly: today's elect() pipeline (classify, and for
///    the canonical kind compile + simulate + verify) — the spec kind
///    decides whether to simulate.
///  - BinarySearch / TreeSplit / Randomized: the shared baseline harness —
///    assign labels from wakeup order (unless `options.simulator.labels`
///    overrides them), instantiate the Drip, simulate under a
///    protocol-derived horizon guard, and verify termination and leader
///    uniqueness.  No classification is run (`report.feasible` stays false
///    and `report.classification` is default-constructed).
/// The report's `protocol` is `spec.name()` and its `disposition` says what
/// happened; determinism: the outcome is a pure function of (configuration,
/// spec, options), so engine sweeps stay bit-identical across thread counts.
[[nodiscard]] ElectionReport run_protocol(const config::Configuration& configuration,
                                          const ProtocolSpec& spec,
                                          const ElectionOptions& options = {});

/// Same as run_protocol(), reusing `scratch`'s buffers instead of allocating.
[[nodiscard]] ElectionReport run_protocol(const config::Configuration& configuration,
                                          const ProtocolSpec& spec, const ElectionOptions& options,
                                          ElectionScratch& scratch);

}  // namespace arl::core
