#pragma once

/// \file fault.hpp
/// The fault axis as a first-class API, mirroring the protocol and workload
/// registries (core/protocol.hpp, engine/workload.hpp): a value-typed
/// `FaultSpec` naming which adversary a run faces, a string-keyed registry
/// (`parse_fault` / `registered_faults`), and the deterministic runtime
/// (`FaultPlan`, `FaultContext`) the simulator consults round by round.
///
/// Why this exists: the paper's model assumes a perfectly reliable channel,
/// but robustness questions — how elections degrade under loss, corruption,
/// crash-stop nodes or adversarial wakeup staggering — need the same sweep
/// machinery (sharding, merging, caching, wire identity) the workload axis
/// already has.  With the fault behind one spec, a robustness sweep is
/// `arl sweep --fault=drop:0.1`, shard reports carry the fault spelling, and
/// two sweeps under different adversaries never merge.
///
/// Identity contract: `parse_fault(f.name()) == f` for every spec, and
/// `f.digest()` is a canonical 64-bit digest of the name under its own
/// domain seed (distinct from the workload and wire digest domains).
///
/// Determinism contract: every injected event is a pure function of
/// (FaultPlan::seed, round, node) — no hidden stream state — so a faulted
/// run replays bit-identically on any thread count, engine or shard, and
/// the per-job seed derives from the batch master seed through a reserved
/// stream split (`job_fault_seed`, the `sweep_configuration_seed`
/// discipline), independent of the coin and configuration streams.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace arl::fault {

/// Which adversary a spec names.
enum class FaultKind : std::uint8_t {
  None,             ///< the reliable channel of the paper's model
  Drop,             ///< lossy channel: a received message is erased to silence
  Corrupt,          ///< garbling channel: a heard message flips to noise
  Crash,            ///< crash-stop: k nodes halt at deterministic rounds
  AdversarialWake,  ///< wakeup staggering: per-node deterministic wake delays
};

/// A fault plus its parameters — a value type, compared member-wise.
/// Construct via the factories or `parse_fault`; the default is the
/// faultless `none`.
struct FaultSpec {
  /// Default crash-round window (crash rounds fall in [0, window)).
  static constexpr std::uint32_t kDefaultCrashWindow = 64;

  FaultKind kind = FaultKind::None;
  double probability = 0.0;      ///< drop/corrupt: per-reception event probability
  std::uint32_t seed_split = 0;  ///< drop: optional extra stream split (0 = none)
  std::uint32_t crashes = 0;     ///< crash: number of crash-stop nodes k
  std::uint32_t window = kDefaultCrashWindow;  ///< crash: crash-round window
  std::uint32_t stagger = 0;                   ///< adversarial-wake: max delay W

  [[nodiscard]] static FaultSpec none();
  [[nodiscard]] static FaultSpec drop(double p, std::uint32_t split = 0);
  [[nodiscard]] static FaultSpec corrupt(double p);
  [[nodiscard]] static FaultSpec crash(std::uint32_t k,
                                       std::uint32_t window = kDefaultCrashWindow);
  [[nodiscard]] static FaultSpec adversarial_wake(std::uint32_t stagger);

  /// True when the spec can inject anything at all: `none` and the provably
  /// inert parameterizations (drop:0, corrupt:0, crash:0, adversarial-wake:0)
  /// are inactive, so they run the exact unfaulted code path (no dice, no
  /// fault-inject phase) and stay bit-identical to no fault.
  [[nodiscard]] bool active() const;

  /// Registry key, round-trippable through parse_fault: the kind token
  /// followed by positional parameters ("drop:0.1", "drop:0.1,7",
  /// "corrupt:0.05", "crash:3", "crash:3,128", "adversarial-wake:16",
  /// bare "none"); optional parameters are omitted at their defaults.
  /// Names never contain spaces, so they travel verbatim on the
  /// shard-report and serve wires.
  [[nodiscard]] std::string name() const;

  /// One-line human description (what the adversary does).
  [[nodiscard]] std::string describe() const;

  /// Canonical 64-bit digest of the spec — a pure function of name() under
  /// the fault registry's own domain seed, folded into sweep identity next
  /// to the workload digest.
  [[nodiscard]] std::uint64_t digest() const;

  friend bool operator==(const FaultSpec& a, const FaultSpec& b) = default;
};

/// A spec plus the per-job seed its dice draw from — what SimulatorOptions
/// carries.  The engine overwrites `seed` per job (job_fault_seed), exactly
/// as it overwrites the coin seed.
struct FaultPlan {
  FaultSpec spec;
  std::uint64_t seed = 0;

  [[nodiscard]] bool active() const { return spec.active(); }

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) = default;
};

/// Per-run fault state both simulator engines consult: the crash schedule
/// and wake delays are precomputed at reset, the channel dice are pure
/// functions of (seed, round, node) — evaluation order never matters.
class FaultContext {
 public:
  /// Sentinel for "this node never crashes".
  static constexpr std::uint64_t kNeverCrashes = ~std::uint64_t{0};

  FaultContext() = default;

  /// Rebinds the context to one run.  Cheap when the plan is inactive.
  void reset(const FaultPlan& plan, std::size_t nodes);

  [[nodiscard]] bool active() const { return active_; }

  /// Drop die: true when this node's reception this round is erased.
  [[nodiscard]] bool drop_message(std::uint64_t round, std::uint32_t node) const;

  /// Corrupt die: true when this node's reception this round is garbled.
  [[nodiscard]] bool corrupt_message(std::uint64_t round, std::uint32_t node) const;

  /// The global round this node crash-stops at, or kNeverCrashes.
  [[nodiscard]] std::uint64_t crash_round(std::uint32_t node) const {
    return node < crash_round_.size() ? crash_round_[node] : kNeverCrashes;
  }

  /// This node's deterministic wakeup delay in [0, stagger].
  [[nodiscard]] std::uint64_t wake_delay(std::uint32_t node) const;

  /// Upper bound on every wake_delay — the horizon slack a faulted
  /// canonical run must add.
  [[nodiscard]] std::uint64_t max_wake_delay() const {
    return active_ ? plan_.spec.stagger : 0;
  }

 private:
  [[nodiscard]] bool channel_roll(std::uint64_t stream, std::uint64_t round,
                                  std::uint32_t node, double probability) const;

  FaultPlan plan_;
  bool active_ = false;
  std::uint64_t dice_seed_ = 0;  ///< plan seed after the optional drop split
  std::vector<std::uint64_t> crash_round_;
};

/// The registered faults, one default-parameter spec per kind, in registry
/// order.  `parse_fault(f.name()) == f` for every entry (tests/test_fault.cpp).
[[nodiscard]] const std::vector<FaultSpec>& registered_faults();

/// Comma-separated registry keys with parameter placeholders — the list CLI
/// error messages and `arl faults` show.
[[nodiscard]] std::string fault_names();

/// Parses a registry key with positional parameters ("drop:0.1,7").  Throws
/// support::ContractViolation naming the registered faults on an unknown
/// kind, and a one-line reason on a malformed or out-of-range parameter.
[[nodiscard]] FaultSpec parse_fault(std::string_view text);

/// The batch's reserved fault stream: `Rng(batch_seed).split(kFaultStream)`
/// — disjoint by construction from the per-job coin streams (split at the
/// job id) and the configuration stream (engine::sweep_configuration_seed).
[[nodiscard]] std::uint64_t fault_stream_seed(std::uint64_t batch_seed);

/// Fault seed of job `job` under batch master seed `batch_seed`: the fault
/// stream split at the job id, mirroring engine::job_coin_seed.  A pure
/// function of its arguments — thread count, shard shape and engine mode
/// can never change which dice a job rolls.
[[nodiscard]] std::uint64_t job_fault_seed(std::uint64_t batch_seed, std::uint64_t job);

}  // namespace arl::fault
