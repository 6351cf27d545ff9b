#pragma once

/// \file canonical_drip.hpp
/// The canonical DRIP D_G (paper §3.3.1) as an executable protocol.
///
/// Every node runs the same program, parameterized only by the schedule (the
/// list sequence L_j) compiled from a Classifier run.  Execution structure,
/// per node and per phase P_j:
///   - the phase spans numClasses_j transmission blocks of 2σ+1 rounds each,
///     followed by σ listening rounds;
///   - the node transmits '1' exactly once, in local round σ+1 of block
///     `tBlock`, and listens otherwise;
///   - at the phase boundary it recomputes `tBlock` by matching its observed
///     phase history (equivalently, the label the Partitioner would assign
///     it) against the entries of the next list;
///   - when the lists end (L_{T+1} = "terminate") it terminates, and — when
///     the schedule is feasible — declares itself leader iff its last-phase
///     signature equals the embedded leader signature.
///
/// In strict mode (default) any deviation from the behaviour the lemmas of
/// §3.3.2 guarantee (collision on a foreign payload, noise in the trailing σ
/// rounds, no matching list entry) is a contract violation — running the
/// protocol is then itself a machine-checked validation of Lemmas 3.6-3.9.
/// In robust mode the program instead terminates un-elected and raises a
/// `failed` flag; the §4 experiments use this to run canonical protocols on
/// configurations they were NOT compiled for (Proposition 4.4).

#include <memory>

#include "core/schedule.hpp"
#include "radio/program.hpp"

namespace arl::core {

/// Behaviour on observations the schedule cannot explain.
enum class MismatchPolicy : std::uint8_t {
  Strict,  ///< contract violation (the run must be schedule-conformant)
  Robust,  ///< terminate un-elected and record the failure
};

/// The canonical protocol for one compiled schedule.
class CanonicalDrip final : public radio::Drip {
 public:
  /// Shares ownership of the schedule; the node programs refer to it.
  explicit CanonicalDrip(std::shared_ptr<const CanonicalSchedule> schedule,
                         MismatchPolicy policy = MismatchPolicy::Strict);

  [[nodiscard]] std::unique_ptr<radio::NodeProgram> instantiate(
      const radio::NodeEnv& env) const override;

  /// Overwrites a CanonicalProgram already in `slot` (of this drip or
  /// another) with a fresh one instead of allocating; any other slot
  /// content is replaced.
  void instantiate_into(std::unique_ptr<radio::NodeProgram>& slot,
                        const radio::NodeEnv& env) const override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::optional<std::size_t> history_window() const override;

  /// The schedule this protocol executes.
  [[nodiscard]] const CanonicalSchedule& schedule() const { return *schedule_; }

 private:
  std::shared_ptr<const CanonicalSchedule> schedule_;
  MismatchPolicy policy_;
};

/// Program state exposed for post-run inspection by experiments.  The
/// program refers to the schedule its drip owns, so the drip must outlive it
/// (as radio::Simulator already requires of a run's drip), and allocates
/// nothing after construction: a phase's observed label is compared with
/// the schedule's labels where it lies, in the history.
class CanonicalProgram final : public radio::NodeProgram {
 public:
  CanonicalProgram(const CanonicalSchedule& schedule, MismatchPolicy policy);

  radio::Action decide(config::Round local_round, const radio::HistoryView& history) override;

  /// Listen run for the simulator's fast path: inside a phase the program
  /// listens in every round except its single transmission round whatever
  /// it hears (receptions are read only at the phase boundary), and only
  /// mutates state at phase boundaries, so the streak runs to whichever of
  /// the two comes first.
  [[nodiscard]] config::Round listen_streak(config::Round local_round,
                                            const radio::HistoryView& history) override;

  [[nodiscard]] bool elected() const override { return elected_; }

  /// True when robust mode hit an observation the schedule cannot explain.
  [[nodiscard]] bool failed() const { return failed_; }

  /// Transmission block used in the most recently started phase.
  [[nodiscard]] ClassId transmission_block() const { return tblock_; }

 private:
  /// First local round of the current phase's σ trailing rounds.
  [[nodiscard]] std::uint64_t trailing_round() const;

  /// Checks the just-finished phase's observations against what a
  /// schedule-conformant execution produces — only the canonical payload,
  /// and silence in the σ trailing rounds (Lemma 3.7) — and flags a
  /// violation.  Returns the size of the phase's observed label, the label
  /// the Partitioner would assign: one triple per non-silent round of the
  /// transmission blocks.  Walks only the phase's non-silent entries.
  [[nodiscard]] std::size_t check_phase(const radio::HistoryView& history);

  /// True when the just-finished phase's observed label, of `observed_size`
  /// triples, equals `label`: compared triple by triple over the phase's
  /// non-silent entries, without building it.
  [[nodiscard]] bool observed_equals(const Label& label, std::size_t observed_size,
                                     const radio::HistoryView& history) const;

  /// Handles a schedule violation according to the policy.
  void fail(const char* reason);

  const CanonicalSchedule* schedule_;
  MismatchPolicy policy_;
  std::size_t phase_ = 0;        ///< index of the phase currently executing
  std::uint64_t base_ = 0;       ///< local round before the current phase (r_{j-1})
  ClassId tblock_ = 1;           ///< transmission block for the current phase
  bool failed_ = false;
  bool done_ = false;
  bool elected_ = false;
};

}  // namespace arl::core
