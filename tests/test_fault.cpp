/// \file test_fault.cpp
/// The fault subsystem's contract (fault/fault.hpp): every spec round-trips
/// through its registry name and digests distinctly; malformed specs are
/// rejected, never guessed at; inert parameterizations run the exact
/// unfaulted code path (drop:0 is bit-identical to none); and faulted
/// batches stay deterministic across thread counts, shard shapes and
/// engine modes — the same invariances the unfaulted engine guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "config/families.hpp"
#include "core/election.hpp"
#include "core/protocol.hpp"
#include "engine/batch_runner.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "helpers.hpp"
#include "radio/simulator.hpp"
#include "support/assert.hpp"

namespace {

using namespace arl;

// ------------------------------------------------------------ spec identity

/// Representative specs across every kind, default and non-default
/// parameters alike — the set the identity suites quantify over.
std::vector<fault::FaultSpec> representative_specs() {
  return {
      fault::FaultSpec::none(),
      fault::FaultSpec::drop(0.1),
      fault::FaultSpec::drop(0.25, 7),
      fault::FaultSpec::drop(1.0),
      fault::FaultSpec::corrupt(0.05),
      fault::FaultSpec::corrupt(0.5),
      fault::FaultSpec::crash(1),
      fault::FaultSpec::crash(3, 128),
      fault::FaultSpec::adversarial_wake(8),
      fault::FaultSpec::adversarial_wake(1),
  };
}

TEST(FaultSpec, RegisteredFaultsRoundTripThroughTheirNames) {
  for (const fault::FaultSpec& spec : fault::registered_faults()) {
    EXPECT_EQ(fault::parse_fault(spec.name()), spec) << spec.name();
  }
}

TEST(FaultSpec, RepresentativeSpecsRoundTripThroughTheirNames) {
  for (const fault::FaultSpec& spec : representative_specs()) {
    EXPECT_EQ(fault::parse_fault(spec.name()), spec) << spec.name();
  }
}

TEST(FaultSpec, OptionalParametersAreOmittedAtTheirDefaults) {
  EXPECT_EQ(fault::FaultSpec::none().name(), "none");
  EXPECT_EQ(fault::FaultSpec::drop(0.1).name(), "drop:0.1");
  EXPECT_EQ(fault::FaultSpec::drop(0.1, 7).name(), "drop:0.1,7");
  EXPECT_EQ(fault::FaultSpec::crash(3).name(), "crash:3");
  EXPECT_EQ(fault::FaultSpec::crash(3, fault::FaultSpec::kDefaultCrashWindow).name(), "crash:3");
  EXPECT_EQ(fault::FaultSpec::crash(3, 128).name(), "crash:3,128");
  EXPECT_EQ(fault::FaultSpec::adversarial_wake(16).name(), "adversarial-wake:16");
}

TEST(FaultSpec, DigestsAreDistinctAndPureFunctionsOfTheName) {
  const std::vector<fault::FaultSpec> specs = representative_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].digest(), fault::parse_fault(specs[i].name()).digest());
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].digest(), specs[j].digest())
          << specs[i].name() << " vs " << specs[j].name();
    }
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const std::vector<std::string> malformed = {
      "",
      "bogus",
      "bogus:1",
      "drop",
      "drop:",
      "drop:2",
      "drop:-0.1",
      "drop:abc",
      "drop:0.1,",
      "drop:0.1,x",
      "drop:0.1,1,2",
      "corrupt",
      "corrupt:",
      "corrupt:1.5",
      "crash",
      "crash:",
      "crash:x",
      "crash:1,0",
      "crash:1,2,3",
      "adversarial-wake",
      "adversarial-wake:",
      "adversarial-wake:1.5",
      "adversarial-wake:-1",
      "none:1",
      "none:",
  };
  for (const std::string& text : malformed) {
    EXPECT_THROW((void)fault::parse_fault(text), support::ContractViolation) << "'" << text << "'";
  }
}

TEST(FaultSpec, FactoriesEnforceTheSameBoundsAsTheGrammar) {
  EXPECT_THROW((void)fault::FaultSpec::drop(1.5), support::ContractViolation);
  EXPECT_THROW((void)fault::FaultSpec::drop(-0.5), support::ContractViolation);
  EXPECT_THROW((void)fault::FaultSpec::corrupt(2.0), support::ContractViolation);
  EXPECT_THROW((void)fault::FaultSpec::crash(1, 0), support::ContractViolation);
}

TEST(FaultSpec, InertParameterizationsAreInactive) {
  EXPECT_FALSE(fault::FaultSpec::none().active());
  EXPECT_FALSE(fault::FaultSpec::drop(0.0).active());
  EXPECT_FALSE(fault::FaultSpec::corrupt(0.0).active());
  EXPECT_FALSE(fault::FaultSpec::crash(0).active());
  EXPECT_FALSE(fault::FaultSpec::adversarial_wake(0).active());

  EXPECT_TRUE(fault::FaultSpec::drop(0.1).active());
  EXPECT_TRUE(fault::FaultSpec::corrupt(0.05).active());
  EXPECT_TRUE(fault::FaultSpec::crash(1).active());
  EXPECT_TRUE(fault::FaultSpec::adversarial_wake(1).active());
}

TEST(FaultSpec, SeedStreamsArePureAndJobDisjoint) {
  constexpr std::uint64_t kBatchSeed = 0xDEADBEEF;
  EXPECT_EQ(fault::fault_stream_seed(kBatchSeed), fault::fault_stream_seed(kBatchSeed));
  EXPECT_NE(fault::fault_stream_seed(kBatchSeed), kBatchSeed);

  std::vector<std::uint64_t> seeds;
  for (std::uint64_t job = 0; job < 64; ++job) {
    const std::uint64_t seed = fault::job_fault_seed(kBatchSeed, job);
    EXPECT_EQ(seed, fault::job_fault_seed(kBatchSeed, job));
    seeds.push_back(seed);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "per-job fault seeds must be pairwise distinct";
}

// ------------------------------------------------------------- the runtime

TEST(FaultContext, ChannelDiceArePureFunctionsOfTheCoordinates) {
  fault::FaultContext context;
  context.reset({fault::FaultSpec::drop(0.5), 99}, 8);

  // Record the dice forward, then replay them backward: order of evaluation
  // (and repeated evaluation) can never change a roll.
  std::vector<bool> forward;
  for (std::uint64_t round = 0; round < 32; ++round) {
    for (std::uint32_t node = 0; node < 8; ++node) {
      forward.push_back(context.drop_message(round, node));
    }
  }
  std::vector<bool> backward(forward.size());
  for (std::uint64_t round = 32; round-- > 0;) {
    for (std::uint32_t node = 8; node-- > 0;) {
      backward[round * 8 + node] = context.drop_message(round, node);
    }
  }
  EXPECT_EQ(forward, backward);

  // A drop context never corrupts, and vice versa: the streams are disjoint.
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (std::uint32_t node = 0; node < 8; ++node) {
      EXPECT_FALSE(context.corrupt_message(round, node));
    }
  }
}

TEST(FaultContext, CrashScheduleIsDeterministicAndBounded) {
  constexpr std::size_t kNodes = 16;
  const fault::FaultPlan plan = {fault::FaultSpec::crash(3, 32), 1234};

  fault::FaultContext a;
  a.reset(plan, kNodes);
  std::size_t crashed = 0;
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    if (a.crash_round(v) != fault::FaultContext::kNeverCrashes) {
      ++crashed;
      EXPECT_LT(a.crash_round(v), 32u);
    }
  }
  EXPECT_EQ(crashed, 3u);

  // Re-resetting (and a second context) reproduces the schedule exactly.
  fault::FaultContext b;
  b.reset(plan, kNodes);
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    EXPECT_EQ(a.crash_round(v), b.crash_round(v));
  }

  // More crashes than nodes saturates at n, never overflows.
  fault::FaultContext saturated;
  saturated.reset({fault::FaultSpec::crash(100), 1234}, 4);
  std::size_t all = 0;
  for (std::uint32_t v = 0; v < 4; ++v) {
    all += saturated.crash_round(v) != fault::FaultContext::kNeverCrashes ? 1 : 0;
  }
  EXPECT_EQ(all, 4u);
}

TEST(FaultContext, WakeDelaysAreDeterministicAndBoundedByStagger) {
  fault::FaultContext context;
  context.reset({fault::FaultSpec::adversarial_wake(5), 7}, 8);
  EXPECT_EQ(context.max_wake_delay(), 5u);
  for (std::uint32_t v = 0; v < 8; ++v) {
    const std::uint64_t delay = context.wake_delay(v);
    EXPECT_LE(delay, 5u);
    EXPECT_EQ(delay, context.wake_delay(v));
  }
}

TEST(FaultContext, InactivePlansInjectNothing) {
  fault::FaultContext context;
  context.reset({fault::FaultSpec::drop(0.0), 42}, 8);
  EXPECT_FALSE(context.active());
  EXPECT_FALSE(context.drop_message(0, 0));
  EXPECT_EQ(context.crash_round(0), fault::FaultContext::kNeverCrashes);
  EXPECT_EQ(context.wake_delay(0), 0u);
  EXPECT_EQ(context.max_wake_delay(), 0u);
}

// ----------------------------------------------------- elections under fault

TEST(FaultElection, EnergyAccountingSumsToTheRunTotals) {
  const config::Configuration h3 = config::family_h(3);
  const core::ElectionReport report = core::elect(h3);
  ASSERT_TRUE(report.simulated);
  EXPECT_LE(report.stats.max_node_transmissions, report.stats.transmissions);
  EXPECT_LE(report.stats.max_node_awake_rounds, report.stats.node_rounds);
  EXPECT_GT(report.stats.max_node_awake_rounds, 0u);

  // The per-node counters of a direct simulator run sum (and max) to the
  // RunStats aggregates exactly.
  const testkit::BeaconDrip drip(2, 1, 6);
  radio::Simulator simulator(h3, drip);
  const radio::RunResult result = simulator.run();
  std::uint64_t transmissions = 0, awake = 0, max_tx = 0, max_awake = 0;
  for (const radio::NodeOutcome& node : result.nodes) {
    transmissions += node.transmissions;
    awake += node.awake_rounds;
    max_tx = std::max(max_tx, node.transmissions);
    max_awake = std::max(max_awake, node.awake_rounds);
  }
  EXPECT_EQ(transmissions, result.stats.transmissions);
  EXPECT_EQ(awake, result.stats.node_rounds);
  EXPECT_EQ(max_tx, result.stats.max_node_transmissions);
  EXPECT_EQ(max_awake, result.stats.max_node_awake_rounds);
}

TEST(FaultElection, CrashFaultIsDetectedAndCounted) {
  core::ElectionOptions options;
  options.simulator.fault = {fault::FaultSpec::crash(1, 1), 42};
  const core::ElectionReport report = core::elect(config::family_h(3), options);
  ASSERT_TRUE(report.simulated);
  EXPECT_FALSE(report.valid);
  EXPECT_EQ(report.disposition, core::Disposition::DetectedFault);
  EXPECT_EQ(report.stats.injected_crashes, 1u);
}

TEST(FaultElection, CertainDropIsDetectedAndCounted) {
  core::ElectionOptions options;
  options.simulator.fault = {fault::FaultSpec::drop(1.0), 42};
  const core::ElectionReport report = core::elect(config::family_h(3), options);
  ASSERT_TRUE(report.simulated);
  // Every reception erased: either the run misverifies (detected) or no
  // message was ever heard — but any heard message must have been dropped.
  if (!report.valid) {
    EXPECT_EQ(report.disposition, core::Disposition::DetectedFault);
    EXPECT_GT(report.stats.injected_drops, 0u);
  }
  EXPECT_EQ(report.stats.clean_receptions, 0u);
}

TEST(FaultElection, FaultedRunsReplayBitIdentically) {
  core::ElectionOptions options;
  options.simulator.fault = {fault::FaultSpec::corrupt(0.3), 7};
  const core::ElectionReport a = core::elect(config::family_h(3), options);
  const core::ElectionReport b = core::elect(config::family_h(3), options);
  EXPECT_EQ(a.disposition, b.disposition);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.stats, b.stats);
}

// -------------------------------------------------------- batches under fault

constexpr std::uint64_t kSeed = 77;
constexpr engine::JobId kConfigurations = 6;

engine::CountedSweep registry_sweep() {
  return engine::parse_workload("random:n=8,p=0.3,sigma=3")
      .instantiate(kSeed, core::registered_protocols(), {.count = kConfigurations});
}

engine::BatchReport run_faulted(const fault::FaultSpec& fault, unsigned threads,
                                engine::EngineMode engine = engine::EngineMode::Auto) {
  const engine::CountedSweep sweep = registry_sweep();
  engine::BatchRunner runner(
      {.threads = threads, .seed = kSeed, .engine = engine, .fault = fault});
  return runner.run(sweep.count, sweep.source);
}

TEST(FaultBatch, DropZeroIsBitIdenticalToNone) {
  const engine::BatchReport none = run_faulted(fault::FaultSpec::none(), 2);
  const engine::BatchReport zero = run_faulted(fault::FaultSpec::drop(0.0), 2);
  // The fault field spells what was asked for ("drop:0" vs "none"), but every
  // result — job outcomes, breakdowns, aggregates — is bit-identical because
  // an inactive spec runs the exact unfaulted code path.
  EXPECT_EQ(none.jobs, zero.jobs);
  EXPECT_EQ(none.by_protocol, zero.by_protocol);
  EXPECT_EQ(none.total_stats, zero.total_stats);
  EXPECT_EQ(none.valid_count, zero.valid_count);
  EXPECT_EQ(none.total_stats.injected_drops, 0u);
}

TEST(FaultBatch, FaultedBatchesAreThreadCountInvariant) {
  for (const fault::FaultSpec& spec :
       {fault::FaultSpec::crash(2), fault::FaultSpec::drop(0.1)}) {
    const engine::BatchReport one = run_faulted(spec, 1);
    const engine::BatchReport two = run_faulted(spec, 2);
    const engine::BatchReport eight = run_faulted(spec, 8);
    EXPECT_TRUE(engine::same_results(one, two)) << spec.name();
    EXPECT_TRUE(engine::same_results(one, eight)) << spec.name();
  }
}

TEST(FaultBatch, FaultedBatchesAreShardInvariant) {
  const engine::CountedSweep sweep = registry_sweep();
  const fault::FaultSpec spec = fault::FaultSpec::drop(0.1);

  engine::BatchRunner whole({.threads = 2, .seed = kSeed, .fault = spec});
  const engine::BatchReport full = whole.run(sweep.count, sweep.source);

  // Two separate runners over halves of the id range, as worker processes
  // would: per-job fault seeds are pure functions of (batch seed, job id),
  // so the concatenated outcomes match the whole-batch run exactly.
  std::vector<engine::JobOutcome> stitched;
  for (const auto& [begin, end] :
       std::vector<std::pair<engine::JobId, engine::JobId>>{{0, 2}, {2, sweep.count}}) {
    engine::BatchRunner part({.threads = 2, .seed = kSeed, .fault = spec});
    engine::BatchReport report = part.run_range(begin, end, sweep.source);
    stitched.insert(stitched.end(), report.jobs.begin(), report.jobs.end());
  }
  EXPECT_EQ(full.jobs, stitched);
}

TEST(FaultBatch, ActiveFaultsRunIdenticallyOnEveryEngine) {
  // Faulted jobs run on the requested engine — the scalar reference loop or
  // the event-driven fast path — and all three modes must agree
  // bit-for-bit, injected-event counters included.
  const fault::FaultSpec spec = fault::FaultSpec::corrupt(0.2);
  const engine::BatchReport automatic = run_faulted(spec, 2, engine::EngineMode::Auto);
  const engine::BatchReport scalar = run_faulted(spec, 2, engine::EngineMode::Scalar);
  const engine::BatchReport wavefront = run_faulted(spec, 2, engine::EngineMode::Wavefront);
  EXPECT_TRUE(engine::same_results(automatic, scalar));
  EXPECT_TRUE(engine::same_results(automatic, wavefront));
  EXPECT_GT(automatic.total_stats.injected_corruptions, 0u);
}

TEST(FaultBatch, OverrideFaultWinsOverBatchOptions) {
  const engine::CountedSweep sweep = registry_sweep();
  engine::BatchRunner runner({.threads = 2, .seed = kSeed});
  engine::RunOverrides overrides;
  overrides.fault = fault::FaultSpec::crash(2);
  const engine::BatchReport overridden =
      runner.run_range(0, sweep.count, sweep.source, overrides);
  EXPECT_EQ(overridden.fault, fault::FaultSpec::crash(2));

  const engine::BatchReport direct = run_faulted(fault::FaultSpec::crash(2), 2);
  EXPECT_TRUE(engine::same_results(overridden, direct));
}

TEST(FaultBatch, BreakdownsAttributeDetectedFaults) {
  const engine::BatchReport report = run_faulted(fault::FaultSpec::crash(2), 2);
  std::uint64_t detected = 0;
  for (const engine::ProtocolBreakdown& row : report.by_protocol) {
    detected += row.detected_fault;
  }
  std::uint64_t expected = 0;
  for (const engine::JobOutcome& job : report.jobs) {
    expected += job.disposition == core::Disposition::DetectedFault ? 1 : 0;
  }
  EXPECT_EQ(detected, expected);
  EXPECT_GT(report.total_stats.injected_crashes, 0u);
}

}  // namespace
