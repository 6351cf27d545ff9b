/// \file test_engine.cpp
/// The batch election engine's core contract: a parallel BatchRunner sweep
/// is bit-identical to the serial elect() loop over the same jobs — over
/// exhaustive small configurations and seeded random families — and the
/// per-job coin seeding makes reports invariant across thread counts.

#include <gtest/gtest.h>

#include <vector>

#include "config/families.hpp"
#include "engine/batch_runner.hpp"
#include "engine/sweep.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

/// The job mix the parity suites sweep: every connected configuration with
/// up to 3 nodes and tags in 0..2, the paper families, staggered paths, and
/// a seeded random family.
std::vector<engine::BatchJob> parity_jobs() {
  std::vector<engine::BatchJob> jobs;
  for (graph::NodeId n = 1; n <= 3; ++n) {
    for (auto& job : engine::exhaustive_jobs(n, 2)) {
      jobs.push_back(std::move(job));
    }
  }
  for (const config::Tag m : {1u, 2u, 3u}) {
    jobs.push_back({config::family_h(m), core::ProtocolSpec::canonical(), {}});
    jobs.push_back({config::family_s(m), core::ProtocolSpec::canonical(), {}});
  }
  jobs.push_back({config::family_g(2), core::ProtocolSpec::canonical(), {}});
  for (auto& job : engine::staggered_jobs(2, 4)) {
    jobs.push_back(std::move(job));
  }
  support::Rng rng(0xE16E);
  for (std::uint64_t i = 0; i < 20; ++i) {
    support::Rng stream = rng.split(i);
    jobs.push_back({config::random_tags_with_span(graph::gnp_connected(8, 0.3, stream), 3, stream),
                    core::ProtocolSpec::canonical(),
                    {}});
  }
  return jobs;
}

/// The protocol mix head-to-head sweeps exercise: the canonical DRIP, the
/// classify-only fast path, both labeled baselines and the randomized one.
std::vector<core::ProtocolSpec> protocol_mix() {
  return {core::ProtocolSpec::canonical(), core::ProtocolSpec::classify_only(),
          core::ProtocolSpec::binary_search(), core::ProtocolSpec::tree_split(),
          core::ProtocolSpec::randomized(64)};
}

/// Deep equality of two election reports (schedule compared by content).
void expect_reports_identical(const core::ElectionReport& a, const core::ElectionReport& b) {
  EXPECT_EQ(a.protocol, b.protocol);
  EXPECT_EQ(a.disposition, b.disposition);
  EXPECT_EQ(a.classification.verdict, b.classification.verdict);
  EXPECT_EQ(a.classification.model, b.classification.model);
  EXPECT_EQ(a.classification.iterations, b.classification.iterations);
  EXPECT_EQ(a.classification.steps, b.classification.steps);
  EXPECT_EQ(a.classification.leader, b.classification.leader);
  EXPECT_EQ(a.classification.leader_class, b.classification.leader_class);
  EXPECT_EQ(a.classification.records, b.classification.records);
  ASSERT_EQ(a.schedule != nullptr, b.schedule != nullptr);
  if (a.schedule != nullptr) {
    EXPECT_EQ(a.schedule->total_rounds(), b.schedule->total_rounds());
  }
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.simulated, b.simulated);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.global_rounds, b.global_rounds);
  EXPECT_EQ(a.local_rounds, b.local_rounds);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(BatchRunner, ParallelSweepMatchesSerialElectLoop) {
  const std::vector<engine::BatchJob> jobs = parity_jobs();
  constexpr std::uint64_t kSeed = 42;

  engine::BatchRunner runner({.threads = 4, .seed = kSeed, .keep_reports = true});
  const engine::BatchReport batch = runner.run(jobs);
  ASSERT_EQ(batch.jobs.size(), jobs.size());
  ASSERT_EQ(batch.reports.size(), jobs.size());

  // The reference path: plain serial elect() with the engine's seeding rule.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    core::ElectionOptions options = jobs[i].options;
    options.simulator.coin_seed = engine::job_coin_seed(kSeed, i);
    const core::ElectionReport serial = core::elect(jobs[i].configuration, options);
    expect_reports_identical(batch.reports[i], serial);
    EXPECT_EQ(batch.jobs[i].id, i);
    EXPECT_EQ(batch.jobs[i].feasible, serial.feasible);
    EXPECT_EQ(batch.jobs[i].valid, serial.valid);
    EXPECT_EQ(batch.jobs[i].leader, serial.leader);
    EXPECT_EQ(batch.jobs[i].local_rounds, serial.local_rounds);
    EXPECT_EQ(batch.jobs[i].global_rounds, serial.global_rounds);
    EXPECT_EQ(batch.jobs[i].stats, serial.stats);
  }
}

TEST(BatchRunner, OutcomesAreInvariantAcrossThreadCounts) {
  const std::vector<engine::BatchJob> jobs = parity_jobs();
  std::vector<engine::BatchReport> reports;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::BatchRunner runner({.threads = threads, .seed = 7});
    reports.push_back(runner.run(jobs));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].jobs, reports[0].jobs);
    EXPECT_EQ(reports[i].feasible_count, reports[0].feasible_count);
    EXPECT_EQ(reports[i].valid_count, reports[0].valid_count);
    EXPECT_EQ(reports[i].total_local_rounds, reports[0].total_local_rounds);
    EXPECT_EQ(reports[i].max_local_rounds, reports[0].max_local_rounds);
    EXPECT_EQ(reports[i].total_stats, reports[0].total_stats);
  }
}

TEST(BatchRunner, GeneratorAndMaterializedFormsAgree) {
  engine::RandomSweep sweep;
  sweep.nodes = 10;
  sweep.span = 2;
  sweep.seed = 99;
  const engine::JobSource source = engine::random_jobs(sweep);

  constexpr engine::JobId kCount = 40;
  std::vector<engine::BatchJob> materialized;
  materialized.reserve(kCount);
  for (engine::JobId i = 0; i < kCount; ++i) {
    materialized.push_back(source(i));
  }

  engine::BatchRunner runner({.threads = 4, .seed = 3});
  const engine::BatchReport lazy = runner.run(kCount, source);
  const engine::BatchReport eager = runner.run(materialized);
  EXPECT_EQ(lazy.jobs, eager.jobs);
}

TEST(BatchRunner, CoinSeedingIsAPureFunctionOfBatchSeedAndJobId) {
  EXPECT_EQ(engine::job_coin_seed(1, 0), engine::job_coin_seed(1, 0));
  EXPECT_NE(engine::job_coin_seed(1, 0), engine::job_coin_seed(1, 1));
  EXPECT_NE(engine::job_coin_seed(1, 0), engine::job_coin_seed(2, 0));

  // A job's preset coin seed is overwritten by the engine's derivation, so
  // two identical batches agree regardless of what callers left in options.
  std::vector<engine::BatchJob> jobs = engine::staggered_jobs(2, 6);
  jobs[0].options.simulator.coin_seed = 0xDEAD;
  engine::BatchRunner runner({.threads = 2, .seed = 11});
  const engine::BatchReport first = runner.run(jobs);
  jobs[0].options.simulator.coin_seed = 0xBEEF;
  const engine::BatchReport second = runner.run(jobs);
  EXPECT_EQ(first.jobs, second.jobs);
}

TEST(BatchRunner, ClassifyOnlySkipsTheSimulator) {
  std::vector<engine::BatchJob> jobs;
  jobs.push_back({config::family_h(2), core::ProtocolSpec::classify_only(), {}});
  jobs.push_back({config::family_s(2), core::ProtocolSpec::classify_only(), {}});
  const engine::BatchReport report = engine::run_batch(jobs, {.threads = 2});
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].feasible);
  EXPECT_FALSE(report.jobs[1].feasible);
  for (const engine::JobOutcome& outcome : report.jobs) {
    EXPECT_FALSE(outcome.simulated);
    EXPECT_FALSE(outcome.leader.has_value());
    EXPECT_EQ(outcome.stats, radio::RunStats{});
    EXPECT_TRUE(outcome.valid);  // nothing further to verify
  }
  EXPECT_EQ(report.feasible_count, 1u);
}

TEST(BatchRunner, AggregatesMatchThePerJobOutcomes) {
  const std::vector<engine::BatchJob> jobs = parity_jobs();
  engine::BatchRunner runner({.threads = 4, .seed = 5});
  const engine::BatchReport report = runner.run(jobs);

  std::uint64_t feasible = 0;
  std::uint64_t valid = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t max_rounds = 0;
  std::uint64_t transmissions = 0;
  for (const engine::JobOutcome& outcome : report.jobs) {
    feasible += outcome.feasible ? 1 : 0;
    valid += outcome.valid ? 1 : 0;
    total_rounds += outcome.local_rounds;
    max_rounds = std::max(max_rounds, outcome.local_rounds);
    transmissions += outcome.stats.transmissions;
  }
  EXPECT_EQ(report.feasible_count, feasible);
  EXPECT_EQ(report.valid_count, valid);
  EXPECT_EQ(report.total_local_rounds, total_rounds);
  EXPECT_EQ(report.max_local_rounds, max_rounds);
  EXPECT_EQ(report.total_stats.transmissions, transmissions);
  EXPECT_GT(report.valid_count, 0u);
  EXPECT_GE(report.wall_millis, 0.0);
}

TEST(BatchRunner, EmptyBatchYieldsEmptyReport) {
  engine::BatchRunner runner({.threads = 2});
  const engine::BatchReport report = runner.run(std::vector<engine::BatchJob>{});
  EXPECT_TRUE(report.jobs.empty());
  EXPECT_EQ(report.feasible_count, 0u);
  EXPECT_EQ(report.total_stats, radio::RunStats{});
}

TEST(BatchRunner, ExhaustiveSweepAllVerify) {
  // Every small configuration elects correctly through the engine: the
  // verification flag holds for feasible and infeasible runs alike.
  const std::vector<engine::BatchJob> jobs = engine::exhaustive_jobs(3, 2);
  engine::BatchRunner runner({.threads = 4});
  const engine::BatchReport report = runner.run(jobs);
  EXPECT_EQ(report.valid_count, report.jobs.size());
  EXPECT_GT(report.feasible_count, 0u);
  EXPECT_LT(report.feasible_count, report.jobs.size());

  // The lazy enumeration is the same sweep: same count, same outcomes.
  const engine::CountedSweep sweep = engine::exhaustive_sweep(3, 2);
  ASSERT_EQ(sweep.count, jobs.size());
  const engine::BatchReport lazy = runner.run(sweep.count, sweep.source);
  EXPECT_EQ(lazy.jobs, report.jobs);
}

TEST(BatchRunner, MixedProtocolSweepIsInvariantAcrossThreadCounts) {
  // The acceptance bar of the protocol-axis redesign: one cross-product
  // batch running the canonical DRIP and every baseline is bit-identical
  // regardless of the thread count, per-job outcomes and per-protocol
  // breakdowns alike.
  engine::RandomSweep sweep;
  sweep.nodes = 10;
  sweep.span = 2;
  sweep.seed = 5;
  sweep.protocols = protocol_mix();
  const engine::JobSource source = engine::random_jobs(sweep);
  constexpr engine::JobId kConfigurations = 24;
  const auto count = kConfigurations * static_cast<engine::JobId>(sweep.protocols.size());

  std::vector<engine::BatchReport> reports;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::BatchRunner runner({.threads = threads, .seed = 13});
    reports.push_back(runner.run(count, source));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].jobs, reports[0].jobs);
    EXPECT_EQ(reports[i].by_protocol, reports[0].by_protocol);
  }

  // The cross product is head-to-head: one breakdown row per protocol, in
  // sweep order, each over the same number of configurations.
  ASSERT_EQ(reports[0].by_protocol.size(), sweep.protocols.size());
  for (std::size_t k = 0; k < sweep.protocols.size(); ++k) {
    EXPECT_EQ(reports[0].by_protocol[k].protocol, sweep.protocols[k]);
    EXPECT_EQ(reports[0].by_protocol[k].jobs, kConfigurations);
  }
  // The comparison has signal: the canonical protocol elects on the
  // feasible configurations, while the baselines — whose single-hop
  // simultaneous-wakeup model these random staggered networks violate —
  // report their failures as dispositions instead of crashing the batch.
  EXPECT_GT(reports[0].by_protocol.front().elected, 0u);
  EXPECT_EQ(reports[0].by_protocol.front().elected +
                reports[0].by_protocol.front().no_leader,
            kConfigurations);
}

TEST(BatchRunner, CrossProductJobsShareConfigurations) {
  engine::RandomSweep sweep;
  sweep.nodes = 8;
  sweep.span = 2;
  sweep.seed = 77;
  sweep.protocols = protocol_mix();
  const engine::JobSource source = engine::random_jobs(sweep);
  const auto P = static_cast<engine::JobId>(sweep.protocols.size());
  for (const engine::JobId configuration : {engine::JobId{0}, engine::JobId{5}}) {
    const engine::BatchJob first = source(configuration * P);
    for (engine::JobId k = 0; k < P; ++k) {
      const engine::BatchJob job = source(configuration * P + k);
      EXPECT_EQ(job.configuration, first.configuration);
      EXPECT_EQ(job.protocol, sweep.protocols[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(BatchRunner, CrossProtocolsWrapsAnyCountedSweep) {
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical(),
                                                     core::ProtocolSpec::classify_only()};
  const engine::CountedSweep base = engine::exhaustive_sweep(3, 1);
  const engine::CountedSweep crossed = engine::cross_protocols(engine::exhaustive_sweep(3, 1),
                                                               protocols);
  ASSERT_EQ(crossed.count, base.count * 2);
  for (const engine::JobId id : {engine::JobId{0}, engine::JobId{7}}) {
    EXPECT_EQ(crossed.source(2 * id).configuration, base.source(id).configuration);
    EXPECT_EQ(crossed.source(2 * id).protocol, protocols[0]);
    EXPECT_EQ(crossed.source(2 * id + 1).configuration, base.source(id).configuration);
    EXPECT_EQ(crossed.source(2 * id + 1).protocol, protocols[1]);
  }

  engine::BatchRunner runner({.threads = 4});
  const engine::BatchReport report = runner.run(crossed.count, crossed.source);
  ASSERT_EQ(report.by_protocol.size(), 2u);
  EXPECT_EQ(report.by_protocol[0].protocol, protocols[0]);
  EXPECT_EQ(report.by_protocol[1].protocol, protocols[1]);
  // Same configurations, same classifier: identical feasible counts.
  EXPECT_EQ(report.by_protocol[0].feasible, report.by_protocol[1].feasible);
}

TEST(BatchRunner, SweepConfigurationSeedIsAPureDocumentedDerivation) {
  EXPECT_EQ(engine::sweep_configuration_seed(1), engine::sweep_configuration_seed(1));
  EXPECT_NE(engine::sweep_configuration_seed(1), engine::sweep_configuration_seed(2));
  // Independent of the per-job coin-seed stream: no job id collides with it.
  for (engine::JobId id = 0; id < 64; ++id) {
    EXPECT_NE(engine::sweep_configuration_seed(1), engine::job_coin_seed(1, id));
  }
}

TEST(BatchRunner, ClassifyOnlyOmitsTheSchedule) {
  // Classify-only jobs never pay for schedule compilation.
  std::vector<engine::BatchJob> jobs;
  jobs.push_back({config::family_h(2), core::ProtocolSpec::classify_only(), {}});
  engine::BatchRunner runner({.threads = 1, .keep_reports = true});
  const engine::BatchReport report = runner.run(jobs);
  ASSERT_EQ(report.reports.size(), 1u);
  EXPECT_EQ(report.reports[0].schedule, nullptr);
  EXPECT_TRUE(report.reports[0].feasible);
}

}  // namespace
