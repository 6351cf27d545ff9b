#include "core/canonical_drip.hpp"

#include "support/assert.hpp"

namespace arl::core {

namespace {
/// The canonical protocol's only message payload.
constexpr radio::Message kCanonicalPayload = 1;
}  // namespace

CanonicalDrip::CanonicalDrip(std::shared_ptr<const CanonicalSchedule> schedule,
                             MismatchPolicy policy)
    : schedule_(std::move(schedule)), policy_(policy) {
  ARL_EXPECTS(schedule_ != nullptr, "schedule required");
  ARL_EXPECTS(!schedule_->phases.empty(), "a compiled schedule has at least phase P_1");
}

std::unique_ptr<radio::NodeProgram> CanonicalDrip::instantiate(const radio::NodeEnv&) const {
  // Anonymous and deterministic: the environment (labels, coins) is ignored.
  return std::make_unique<CanonicalProgram>(*schedule_, policy_);
}

void CanonicalDrip::instantiate_into(std::unique_ptr<radio::NodeProgram>& slot,
                                     const radio::NodeEnv& env) const {
  // CanonicalProgram is final, so the cast is an exact-type check.
  if (auto* program = dynamic_cast<CanonicalProgram*>(slot.get())) {
    *program = CanonicalProgram(*schedule_, policy_);
  } else {
    slot = instantiate(env);
  }
}

std::string CanonicalDrip::name() const {
  return schedule_->feasible ? "canonical-drip(feasible)" : "canonical-drip(infeasible)";
}

std::optional<std::size_t> CanonicalDrip::history_window() const {
  return schedule_->suggested_window();
}

CanonicalProgram::CanonicalProgram(const CanonicalSchedule& schedule, MismatchPolicy policy)
    : schedule_(&schedule), policy_(policy) {}

void CanonicalProgram::fail(const char* reason) {
  if (policy_ == MismatchPolicy::Strict) {
    ARL_ASSERT(false, std::string("canonical DRIP schedule violation: ") + reason);
  }
  failed_ = true;
}

std::uint64_t CanonicalProgram::trailing_round() const {
  return base_ + schedule_->phases[phase_].num_classes * schedule_->block_length() + 1;
}

std::size_t CanonicalProgram::check_phase(const radio::HistoryView& history) {
  const auto first = static_cast<std::size_t>(base_ + 1);
  const auto trailing = static_cast<std::size_t>(trailing_round());
  const auto end = static_cast<std::size_t>(base_ + schedule_->phase_length(phase_) + 1);

  // Every non-silent entry of the transmission blocks is one label triple;
  // silent rounds contribute nothing, so only the events are walked.
  std::size_t triples = 0;
  bool foreign_payload = false;
  history.for_each_event(first, trailing, [&](std::size_t, radio::HistoryEntry entry) {
    foreign_payload = entry.is_message() && entry.payload() != kCanonicalPayload;
    triples += foreign_payload ? 0 : 1;
    return !foreign_payload;
  });
  if (foreign_payload) {
    fail("received a non-canonical payload");
    return triples;
  }

  // Lemma 3.7: the σ trailing rounds of a phase are silent in a
  // schedule-conformant execution.
  bool noisy = false;
  history.for_each_event(trailing, end, [&](std::size_t, radio::HistoryEntry) {
    noisy = true;
    return false;
  });
  if (noisy) {
    fail("noise in the trailing sigma rounds of a phase");
  }
  return triples;
}

bool CanonicalProgram::observed_equals(const Label& label, std::size_t observed_size,
                                       const radio::HistoryView& history) const {
  if (label.size() != observed_size) {
    return false;
  }
  // The triples come in increasing (block, round) order, hence ≺hist-sorted
  // like `label`.
  const std::uint64_t block_len = schedule_->block_length();
  std::size_t matched = 0;
  history.for_each_event(
      static_cast<std::size_t>(base_ + 1), static_cast<std::size_t>(trailing_round()),
      [&](std::size_t t, radio::HistoryEntry entry) {
        const std::uint64_t offset = t - base_;
        const LabelTriple observed{static_cast<ClassId>((offset - 1) / block_len + 1),
                                   static_cast<std::uint32_t>((offset - 1) % block_len + 1),
                                   entry.is_collision()};
        if (observed != label[matched]) {
          return false;
        }
        ++matched;
        return true;
      });
  return matched == label.size();
}

radio::Action CanonicalProgram::decide(config::Round local_round,
                                       const radio::HistoryView& history) {
  if (done_) {
    // Termination is permanent (§2.2); the simulator does not call again,
    // but the formal object keeps answering terminate.
    return radio::Action::terminate();
  }
  const CanonicalSchedule& s = *schedule_;
  const std::uint64_t i = local_round;

  if (i == 1) {
    // Wake-round sanity: the canonical DRIP is patient (Lemma 3.6), so every
    // node wakes spontaneously hearing silence.
    if (!history.entry(0).is_silence()) {
      fail("non-silent wake round under a patient protocol");
      done_ = true;
      return radio::Action::terminate();
    }
  }

  // Phase boundary: the previous phase filled rounds base_+1 .. base_+len.
  if (i > base_ + s.phase_length(phase_)) {
    const std::size_t observed = check_phase(history);
    if (failed_) {
      done_ = true;
      return radio::Action::terminate();
    }

    if (phase_ + 1 == s.phases.size()) {
      // L_{T+1} = "terminate": all nodes stop in the same local round.
      // Decision function f: leader iff the last-phase signature matches
      // the singleton class Classifier found.
      if (s.feasible) {
        elected_ = tblock_ == s.leader_old_class &&
                   observed_equals(s.leader_label, observed, history);
      }
      done_ = true;
      return radio::Action::terminate();
    }

    // Match (old tBlock, observed label) against the next list L_{j+1}.
    const PhaseSpec& next = s.phases[phase_ + 1];
    ClassId matched = 0;
    for (ClassId k = 1; k <= next.num_classes; ++k) {
      const PhaseEntry& entry = next.entries[k - 1];
      if (entry.old_class == tblock_ && observed_equals(entry.label, observed, history)) {
        if (policy_ == MismatchPolicy::Strict) {
          ARL_ASSERT(matched == 0, "list entry match must be unique (Lemma 3.8)");
        }
        matched = k;
        if (policy_ == MismatchPolicy::Robust) {
          break;
        }
      }
    }
    if (matched == 0) {
      fail("no matching list entry for the observed phase history");
      done_ = true;
      return radio::Action::terminate();
    }
    base_ += s.phase_length(phase_);
    ++phase_;
    tblock_ = matched;
  }

  // Action within the current phase.
  const PhaseSpec& phase = s.phases[phase_];
  const std::uint64_t offset = i - base_;  // 1-based round within the phase
  const std::uint64_t block_len = s.block_length();
  const std::uint64_t blocks_span = phase.num_classes * block_len;
  ARL_ASSERT(offset >= 1 && offset <= s.phase_length(phase_), "offset outside phase");
  if (offset <= blocks_span) {
    const auto block = static_cast<ClassId>((offset - 1) / block_len + 1);
    const auto round = static_cast<std::uint32_t>((offset - 1) % block_len + 1);
    if (block == tblock_ && round == s.sigma + 1) {
      return radio::Action::transmit(kCanonicalPayload);
    }
  }
  return radio::Action::listen();
}

config::Round CanonicalProgram::listen_streak(config::Round local_round,
                                              const radio::HistoryView& history) {
  if (done_ || failed_) {
    return 0;  // next decide() terminates
  }
  const CanonicalSchedule& s = *schedule_;
  const std::uint64_t i = local_round;
  if (i == 1 && !(history.length() >= 1 && history.entry(0).is_silence())) {
    return 0;  // decide(1) inspects H[0] and may terminate on a forced wake
  }
  const std::uint64_t phase_end = base_ + s.phase_length(phase_);
  if (i < 1 || i > phase_end) {
    return 0;  // next decide() does phase-boundary work (state update)
  }
  // The phase's single transmission round for this node.
  const std::uint64_t transmit_round =
      base_ + (static_cast<std::uint64_t>(tblock_) - 1) * s.block_length() + s.sigma + 1;
  // First local round >= i where decide() may not simply listen: the
  // transmission round if still ahead, else the boundary call after the
  // phase's trailing sigma silent rounds.
  const std::uint64_t stop = i <= transmit_round ? transmit_round : phase_end + 1;
  return static_cast<config::Round>(stop - i);
}

}  // namespace arl::core
