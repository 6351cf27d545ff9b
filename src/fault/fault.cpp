#include "fault/fault.hpp"

#include <numeric>
#include <utility>

#include "support/assert.hpp"
#include "support/hash.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

namespace arl::fault {

namespace {

using support::require;

/// Domain seed of the fault digest family — distinct from the workload/wire
/// digest domain (0xD157) and the shard-report body domain (0xB0D7), so a
/// fault name and a workload name can never collide into one digest.
constexpr std::uint64_t kFaultDigestSeed = 0xFA17;

/// The batch's reserved fault stream id (see fault_stream_seed), disjoint
/// from engine::sweep_configuration_seed's 0x5EEDF00D configuration stream.
constexpr std::uint64_t kFaultStream = 0xFA175EED;

// Per-event dice streams inside one plan seed: the stream id is absorbed
// next to (round, node), so the drop and corrupt dice of one round are
// independent draws.
constexpr std::uint64_t kDropStream = 1;
constexpr std::uint64_t kCorruptStream = 2;
constexpr std::uint64_t kCrashStream = 3;
constexpr std::uint64_t kWakeStream = 4;

/// Registry-order kind tokens (the part of a name before ':').
constexpr support::KindTokens<FaultKind, 5> kKinds = {{
    {FaultKind::None, "none"},
    {FaultKind::Drop, "drop"},
    {FaultKind::Corrupt, "corrupt"},
    {FaultKind::Crash, "crash"},
    {FaultKind::AdversarialWake, "adversarial-wake"},
}};

/// Parameter bounds, enforced by parse_fault AND the factories (a spec built
/// by hand gets the same validation the grammar applies).
void validate(const FaultSpec& spec) {
  const std::string at = std::string("fault '") + support::kind_token(kKinds, spec.kind) + "': ";
  switch (spec.kind) {
    case FaultKind::Drop:
    case FaultKind::Corrupt:
      require(spec.probability >= 0.0 && spec.probability <= 1.0,
              at + "probability must be in [0, 1]");
      break;
    case FaultKind::Crash:
      require(spec.crashes <= 1'000'000, at + "k must be in [0, 1000000]");
      require(spec.window >= 1 && spec.window <= 1'000'000,
              at + "window must be in [1, 1000000]");
      break;
    case FaultKind::AdversarialWake:
      require(spec.stagger <= 1'000'000, at + "W must be in [0, 1000000]");
      break;
    case FaultKind::None:
      break;
  }
}

}  // namespace

FaultSpec FaultSpec::none() { return FaultSpec{}; }

FaultSpec FaultSpec::drop(double p, std::uint32_t split) {
  FaultSpec spec;
  spec.kind = FaultKind::Drop;
  spec.probability = p;
  spec.seed_split = split;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::corrupt(double p) {
  FaultSpec spec;
  spec.kind = FaultKind::Corrupt;
  spec.probability = p;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::crash(std::uint32_t k, std::uint32_t window) {
  FaultSpec spec;
  spec.kind = FaultKind::Crash;
  spec.crashes = k;
  spec.window = window;
  validate(spec);
  return spec;
}

FaultSpec FaultSpec::adversarial_wake(std::uint32_t stagger) {
  FaultSpec spec;
  spec.kind = FaultKind::AdversarialWake;
  spec.stagger = stagger;
  validate(spec);
  return spec;
}

bool FaultSpec::active() const {
  switch (kind) {
    case FaultKind::None:
      return false;
    case FaultKind::Drop:
    case FaultKind::Corrupt:
      return probability > 0.0;
    case FaultKind::Crash:
      return crashes > 0;
    case FaultKind::AdversarialWake:
      return stagger > 0;
  }
  return false;
}

std::string FaultSpec::name() const {
  std::string out = support::kind_token(kKinds, kind);
  const auto append = [&out](char separator, const std::string& parameter) {
    out += separator;
    out += parameter;
  };
  switch (kind) {
    case FaultKind::None:
      break;
    case FaultKind::Drop:
      append(':', support::shortest_double(probability));
      if (seed_split != 0) {
        append(',', std::to_string(seed_split));
      }
      break;
    case FaultKind::Corrupt:
      append(':', support::shortest_double(probability));
      break;
    case FaultKind::Crash:
      append(':', std::to_string(crashes));
      if (window != kDefaultCrashWindow) {
        append(',', std::to_string(window));
      }
      break;
    case FaultKind::AdversarialWake:
      append(':', std::to_string(stagger));
      break;
  }
  return out;
}

std::string FaultSpec::describe() const {
  switch (kind) {
    case FaultKind::None:
      return "the paper's reliable channel: nothing is injected";
    case FaultKind::Drop:
      return "lossy channel: each reception is erased to silence with probability p";
    case FaultKind::Corrupt:
      return "garbling channel: each heard message flips to noise with probability p";
    case FaultKind::Crash:
      return "crash-stop: k nodes halt forever at deterministic rounds in [0, window)";
    case FaultKind::AdversarialWake:
      return "wakeup staggering: each node's wakeup is delayed by a deterministic "
             "amount in [0, W]";
  }
  return "?";
}

std::uint64_t FaultSpec::digest() const {
  return support::hash_text(name(), kFaultDigestSeed);
}

void FaultContext::reset(const FaultPlan& plan, std::size_t nodes) {
  plan_ = plan;
  active_ = plan.active();
  crash_round_.clear();
  if (!active_) {
    return;
  }
  dice_seed_ = plan.seed;
  if (plan.spec.kind == FaultKind::Drop && plan.spec.seed_split != 0) {
    dice_seed_ = support::Rng(plan.seed).split(plan.spec.seed_split).next();
  }
  if (plan.spec.kind == FaultKind::Crash) {
    crash_round_.assign(nodes, kNeverCrashes);
    std::vector<std::uint32_t> victims(nodes);
    std::iota(victims.begin(), victims.end(), 0u);
    support::Rng rng(support::Hash64(dice_seed_).absorb(kCrashStream).digest());
    rng.shuffle(victims);
    const std::size_t count = std::min<std::size_t>(plan.spec.crashes, nodes);
    for (std::size_t i = 0; i < count; ++i) {
      crash_round_[victims[i]] = rng.below(plan.spec.window);
    }
  }
}

bool FaultContext::channel_roll(std::uint64_t stream, std::uint64_t round,
                                std::uint32_t node, double probability) const {
  // A pure function of (seed, stream, round, node): the die is rolled by
  // hashing the coordinates, not by consuming a stream, so the simulator may
  // evaluate receptions in any order and replay stays exact.
  const std::uint64_t raw = support::Hash64(dice_seed_)
                                .absorb(stream)
                                .absorb(round)
                                .absorb(node)
                                .digest();
  return support::Rng(raw).bernoulli(probability);
}

bool FaultContext::drop_message(std::uint64_t round, std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::Drop) {
    return false;
  }
  return channel_roll(kDropStream, round, node, plan_.spec.probability);
}

bool FaultContext::corrupt_message(std::uint64_t round, std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::Corrupt) {
    return false;
  }
  return channel_roll(kCorruptStream, round, node, plan_.spec.probability);
}

std::uint64_t FaultContext::wake_delay(std::uint32_t node) const {
  if (!active_ || plan_.spec.kind != FaultKind::AdversarialWake) {
    return 0;
  }
  const std::uint64_t raw =
      support::Hash64(dice_seed_).absorb(kWakeStream).absorb(node).digest();
  return support::Rng(raw).below(static_cast<std::uint64_t>(plan_.spec.stagger) + 1);
}

const std::vector<FaultSpec>& registered_faults() {
  static const std::vector<FaultSpec> registry = {
      FaultSpec::none(),
      FaultSpec::drop(0.1),
      FaultSpec::corrupt(0.05),
      FaultSpec::crash(1),
      FaultSpec::adversarial_wake(8),
  };
  return registry;
}

std::string fault_names() {
  return "none, drop:P[,SPLIT], corrupt:P, crash:K[,WINDOW], adversarial-wake:W";
}

FaultSpec parse_fault(std::string_view text) {
  const support::SpecText parts = support::split_spec(text);
  FaultSpec spec;
  spec.kind = support::find_kind(kKinds, parts.kind, text, "fault", fault_names);
  const std::vector<std::string_view> params =
      parts.params ? support::split(*parts.params, ',') : std::vector<std::string_view>{};
  const std::string at = "fault '" + std::string(parts.kind) + "': ";
  const auto arity = [&](std::size_t min_params, std::size_t max_params,
                         const std::string& grammar) {
    require(params.size() >= min_params && params.size() <= max_params,
            at + "takes " + grammar + " (got '" + std::string(text) + "')");
  };
  const auto integer = [&](std::size_t i, const char* what) {
    return static_cast<std::uint32_t>(support::parse_integer(params[i], at + what));
  };

  switch (spec.kind) {
    case FaultKind::None:
      arity(0, 0, "no parameters");
      break;
    case FaultKind::Drop:
      arity(1, 2, "drop:P[,SPLIT]");
      spec.probability = support::parse_probability(params[0], at + "P");
      if (params.size() == 2) {
        spec.seed_split = integer(1, "SPLIT");
      }
      break;
    case FaultKind::Corrupt:
      arity(1, 1, "corrupt:P");
      spec.probability = support::parse_probability(params[0], at + "P");
      break;
    case FaultKind::Crash:
      arity(1, 2, "crash:K[,WINDOW]");
      spec.crashes = integer(0, "K");
      if (params.size() == 2) {
        spec.window = integer(1, "WINDOW");
      }
      break;
    case FaultKind::AdversarialWake:
      arity(1, 1, "adversarial-wake:W");
      spec.stagger = integer(0, "W");
      break;
  }
  validate(spec);
  return spec;
}

std::uint64_t fault_stream_seed(std::uint64_t batch_seed) {
  return support::Rng(batch_seed).split(kFaultStream).next();
}

std::uint64_t job_fault_seed(std::uint64_t batch_seed, std::uint64_t job) {
  return support::Rng(fault_stream_seed(batch_seed)).split(job).next();
}

}  // namespace arl::fault
