/// \file test_dist.cpp
/// The distributed sweep subsystem's contract: the shard planner tiles any
/// sweep exactly; shard reports round-trip through the wire format; and the
/// merge algebra — associative, order-insensitive — reassembles shard runs
/// into a report bit-identical to the unsharded one, for K ∈ {1, 2, 3, 7}
/// across the full protocol registry.  Malformed, overlapping or mismatched
/// inputs are rejected, never merged silently.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "dist/merge.hpp"
#include "dist/report_io.hpp"
#include "dist/shard.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "support/assert.hpp"

namespace {

using namespace arl;

// ---------------------------------------------------------------- the sweep
// The workload the algebra suites shard: a registry WorkloadSpec crossed
// with every registered protocol, so merge correctness is checked on
// mixed-protocol reports (per-protocol breakdown rows, baselines that fail
// out of model, randomized dispositions) rather than a single uniform batch
// — and the sweep identity shard reports carry is the workload's own
// canonical name + digest, exactly as the CLI emits it.

constexpr std::uint64_t kSeed = 77;
constexpr engine::JobId kConfigurations = 6;

engine::WorkloadSpec registry_workload() {
  return engine::parse_workload("random:n=8,p=0.3,sigma=3");
}

engine::CountedSweep registry_sweep() {
  return registry_workload().instantiate(kSeed, core::registered_protocols(),
                                         {.count = kConfigurations});
}

dist::SweepKey registry_key(const engine::CountedSweep& sweep) {
  return dist::make_sweep_key(registry_workload(), core::registered_protocols(), kSeed,
                              fault::FaultSpec::none(), sweep.count);
}

engine::BatchReport run_unsharded(const engine::CountedSweep& sweep) {
  engine::BatchRunner runner({.threads = 2, .seed = kSeed});
  return runner.run(sweep.count, sweep.source);
}

/// Runs every shard of a K-way plan in its own runner (as separate worker
/// processes would) and serializes + reparses each report, so every merge
/// test also exercises the wire format.
std::vector<dist::ShardReport> run_shards(const engine::CountedSweep& sweep,
                                          const dist::SweepKey& key, std::uint32_t k,
                                          std::size_t cache_capacity = 0) {
  std::vector<dist::ShardReport> shards;
  for (const dist::JobRange& range : dist::shard_ranges(sweep.count, k)) {
    engine::BatchRunner runner({.threads = 2, .seed = kSeed, .cache_capacity = cache_capacity});
    engine::BatchReport report = runner.run_range(range.begin, range.end, sweep.source);
    const dist::ShardReport shard = dist::make_shard_report(key, range, std::move(report));
    std::stringstream wire;
    dist::write_shard_report(shard, wire);
    shards.push_back(dist::read_shard_report(wire));
  }
  return shards;
}

std::vector<dist::ShardReport> run_shards(const engine::CountedSweep& sweep, std::uint32_t k,
                                          std::size_t cache_capacity = 0) {
  return run_shards(sweep, registry_key(sweep), k, cache_capacity);
}

// ------------------------------------------------------------ shard planner

TEST(ShardPlanner, RangesTileEveryTotalExactly) {
  for (const engine::JobId total : {0ull, 1ull, 2ull, 5ull, 7ull, 64ull, 1000ull, 1001ull}) {
    for (std::uint32_t k = 1; k <= 16; ++k) {
      const std::vector<dist::JobRange> ranges = dist::shard_ranges(total, k);
      ASSERT_EQ(ranges.size(), k);
      engine::JobId next = 0;
      engine::JobId smallest = total;
      engine::JobId largest = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        EXPECT_EQ(ranges[i], dist::shard_range(total, {i, k}));
        EXPECT_EQ(ranges[i].begin, next) << "gap or overlap at shard " << i;
        EXPECT_LE(ranges[i].begin, ranges[i].end);
        next = ranges[i].end;
        smallest = std::min(smallest, ranges[i].size());
        largest = std::max(largest, ranges[i].size());
      }
      EXPECT_EQ(next, total) << "plan must cover [0, total) exactly";
      EXPECT_LE(largest - smallest, 1u) << "shards must be balanced to within one job";
    }
  }
}

TEST(ShardPlanner, SpecParsesAndRoundTrips) {
  for (std::uint32_t k = 1; k <= 9; ++k) {
    for (std::uint32_t i = 0; i < k; ++i) {
      const dist::ShardSpec spec{i, k};
      EXPECT_EQ(dist::parse_shard(spec.name()), spec);
    }
  }
  for (const char* bad : {"", "/", "1/", "/2", "2/2", "3/2", "0/0", "a/2", "1/b", "1/2/3",
                          "-1/2", "1.0/2", " 1/2", "1/2 "}) {
    EXPECT_THROW((void)dist::parse_shard(bad), support::ContractViolation) << bad;
  }
}

// ------------------------------------------------------------- wire format

TEST(ReportIo, ShardReportsRoundTripExactly) {
  const engine::CountedSweep sweep = registry_sweep();
  const dist::SweepKey key = registry_key(sweep);
  for (const dist::JobRange& range : dist::shard_ranges(sweep.count, 3)) {
    engine::BatchRunner runner({.threads = 1, .seed = kSeed});
    const dist::ShardReport shard = dist::make_shard_report(
        key, range, runner.run_range(range.begin, range.end, sweep.source));

    std::stringstream wire;
    dist::write_shard_report(shard, wire);
    const dist::ShardReport parsed = dist::read_shard_report(wire);

    EXPECT_EQ(parsed.key, shard.key);
    EXPECT_EQ(parsed.ranges, shard.ranges);
    EXPECT_TRUE(engine::same_results(parsed.report, shard.report));
    EXPECT_EQ(parsed.report.wall_millis, shard.report.wall_millis);
    EXPECT_EQ(parsed.report.threads_used, shard.report.threads_used);
    EXPECT_EQ(parsed.report.cache.has_value(), shard.report.cache.has_value());

    // Serialization is canonical: writing the parse reproduces the bytes.
    std::stringstream rewire;
    dist::write_shard_report(parsed, rewire);
    EXPECT_EQ(rewire.str(), wire.str());
  }
}

TEST(ReportIo, CacheStatsSurviveTheRoundTrip) {
  const engine::CountedSweep sweep = registry_sweep();
  const std::vector<dist::ShardReport> shards =
      run_shards(sweep, 2, engine::ScheduleCache::kDefaultCapacity);
  for (const dist::ShardReport& shard : shards) {
    ASSERT_TRUE(shard.report.cache.has_value());
    EXPECT_GT(shard.report.cache->misses, 0u);
  }
  const dist::ShardReport merged = dist::merge_shards(shards);
  ASSERT_TRUE(merged.report.cache.has_value());
  EXPECT_EQ(merged.report.cache->misses,
            shards[0].report.cache->misses + shards[1].report.cache->misses);
}

TEST(ReportIo, RejectsVersionMismatch) {
  const engine::CountedSweep sweep = registry_sweep();
  std::stringstream wire;
  dist::write_shard_report(run_shards(sweep, 2).front(), wire);
  std::string text = wire.str();
  const std::string header =
      "arl-shard-report " + std::to_string(dist::kShardReportVersion);
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "arl-shard-report 99");
  std::istringstream bumped(text);
  EXPECT_THROW((void)dist::read_shard_report(bumped), dist::ReportFormatError);
}

TEST(ReportIo, RejectsEveryTruncation) {
  const engine::CountedSweep sweep = registry_sweep();
  std::stringstream wire;
  dist::write_shard_report(run_shards(sweep, 2).front(), wire);
  const std::string text = wire.str();
  // Dropping any suffix of whole lines loses the `end` marker (or the
  // counts stop agreeing): every prefix must be rejected.
  for (std::size_t cut = text.find('\n'); cut + 1 < text.size(); cut = text.find('\n', cut + 1)) {
    std::istringstream truncated(text.substr(0, cut + 1));
    EXPECT_THROW((void)dist::read_shard_report(truncated), dist::ReportFormatError);
  }
}

TEST(ReportIo, MakeShardReportRejectsMismatchedIds) {
  const engine::CountedSweep sweep = registry_sweep();
  const dist::SweepKey key = registry_key(sweep);
  engine::BatchRunner runner({.threads = 1, .seed = kSeed});
  engine::BatchReport report = runner.run_range(0, 5, sweep.source);
  // Claiming a different range than the one that ran is a misuse.
  EXPECT_THROW((void)dist::make_shard_report(key, {5, 10}, report), support::ContractViolation);
  EXPECT_THROW((void)dist::make_shard_report(key, {0, 4}, report), support::ContractViolation);
}

// ------------------------------------------------------------ merge algebra

TEST(MergeAlgebra, ShardedRunsMergeBitIdenticalToUnsharded) {
  const engine::CountedSweep sweep = registry_sweep();
  const engine::BatchReport unsharded = run_unsharded(sweep);
  ASSERT_EQ(unsharded.jobs.size(), sweep.count);
  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    const engine::BatchReport merged =
        dist::complete_report(dist::merge_shards(run_shards(sweep, k)));
    EXPECT_TRUE(engine::same_results(merged, unsharded)) << "K = " << k;
    // Spot-check that same_results covered what the acceptance criterion
    // names: per-job outcomes (ids, dispositions, fingerprints) and the
    // per-protocol aggregate rows.
    ASSERT_EQ(merged.jobs.size(), unsharded.jobs.size());
    EXPECT_EQ(merged.jobs == unsharded.jobs, true);
    EXPECT_EQ(merged.by_protocol == unsharded.by_protocol, true);
  }
}

TEST(MergeAlgebra, FaultedShardedRunsMergeBitIdenticalToUnsharded) {
  // The fault subsystem's determinism bar: a `--fault=drop:0.1` sweep is
  // shard-invariant because every die roll is a pure function of
  // (seed, job, round, node) — never of which worker ran the job — so the
  // merged report is bit-identical to the unsharded one at every K.
  const fault::FaultSpec fault = fault::FaultSpec::drop(0.1);
  const engine::CountedSweep sweep = registry_sweep();
  dist::SweepKey key = registry_key(sweep);
  key.fault = fault.name();

  engine::BatchRunner runner({.threads = 2, .seed = kSeed, .fault = fault});
  const engine::BatchReport unsharded = runner.run(sweep.count, sweep.source);
  ASSERT_EQ(unsharded.jobs.size(), sweep.count);
  ASSERT_GT(unsharded.total_stats.injected_drops, 0u);

  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    std::vector<dist::ShardReport> shards;
    for (const dist::JobRange& range : dist::shard_ranges(sweep.count, k)) {
      engine::BatchRunner worker({.threads = 2, .seed = kSeed, .fault = fault});
      const dist::ShardReport shard = dist::make_shard_report(
          key, range, worker.run_range(range.begin, range.end, sweep.source));
      std::stringstream wire;
      dist::write_shard_report(shard, wire);
      shards.push_back(dist::read_shard_report(wire));
    }
    const dist::ShardReport merged = dist::merge_shards(shards);
    EXPECT_EQ(merged.key.fault, fault.name());
    EXPECT_EQ(merged.report.fault, fault);
    EXPECT_TRUE(engine::same_results(dist::complete_report(merged), unsharded)) << "K = " << k;
  }
}

TEST(MergeAlgebra, MergeIsOrderInsensitive) {
  const engine::CountedSweep sweep = registry_sweep();
  std::vector<dist::ShardReport> shards = run_shards(sweep, 3);
  const engine::BatchReport forward = dist::complete_report(dist::merge_shards(shards));
  std::reverse(shards.begin(), shards.end());
  const engine::BatchReport backward = dist::complete_report(dist::merge_shards(shards));
  std::swap(shards[0], shards[1]);
  const engine::BatchReport shuffled = dist::complete_report(dist::merge_shards(shards));
  EXPECT_TRUE(engine::same_results(forward, backward));
  EXPECT_TRUE(engine::same_results(forward, shuffled));
}

TEST(MergeAlgebra, MergeIsAssociative) {
  const engine::CountedSweep sweep = registry_sweep();
  const std::vector<dist::ShardReport> shards = run_shards(sweep, 7);

  // ((s0 + s1) + (s2 + s3 + s4)) + (s5 + s6), versus one flat merge.
  const dist::ShardReport left = dist::merge_shards({shards[0], shards[1]});
  const dist::ShardReport middle = dist::merge_shards({shards[2], shards[3], shards[4]});
  const dist::ShardReport right = dist::merge_shards({shards[5], shards[6]});
  const dist::ShardReport nested = dist::merge_shards({dist::merge_shards({left, middle}), right});
  const engine::BatchReport flat = dist::complete_report(dist::merge_shards(shards));
  EXPECT_TRUE(engine::same_results(dist::complete_report(nested), flat));

  // A partial merge round-trips through the wire format too (a coordinator
  // can re-ship a combined report), with coalesced multi-range covers.
  const dist::ShardReport gappy = dist::merge_shards({shards[0], shards[2]});
  EXPECT_EQ(gappy.ranges.size(), 2u);
  std::stringstream wire;
  dist::write_shard_report(gappy, wire);
  const dist::ShardReport reparsed = dist::read_shard_report(wire);
  EXPECT_EQ(reparsed.ranges, gappy.ranges);
  EXPECT_TRUE(engine::same_results(reparsed.report, gappy.report));
}

TEST(MergeAlgebra, RejectsOverlapGapAndForeignShards) {
  const engine::CountedSweep sweep = registry_sweep();
  const std::vector<dist::ShardReport> shards = run_shards(sweep, 3);

  // Overlap: the same shard twice claims the same jobs.
  EXPECT_THROW((void)dist::merge_shards({shards[0], shards[0]}), dist::MergeError);

  // Gap: a partial merge is representable, but completing it is not.
  EXPECT_THROW((void)dist::complete_report(dist::merge_shards({shards[0], shards[2]})),
               dist::MergeError);

  // Foreign shard: same shape, different sweep identity fields.
  for (const char* field : {"digest", "seed", "jobs", "protocols"}) {
    dist::ShardReport foreign = shards[1];
    if (std::string(field) == "digest") {
      foreign.key.description += " (edited)";
      foreign.key.digest = dist::sweep_digest(foreign.key.description);
    } else if (std::string(field) == "seed") {
      foreign.key.seed += 1;
    } else if (std::string(field) == "jobs") {
      foreign.key.total_jobs += 1;
    } else {
      foreign.key.protocols.pop_back();
    }
    EXPECT_THROW((void)dist::merge_shards({shards[0], foreign}), dist::MergeError) << field;
  }

  // Nothing at all.
  EXPECT_THROW((void)dist::merge_shards({}), dist::MergeError);
}

TEST(MergeAlgebra, EmptySweepMergesToEmptyReport) {
  engine::CountedSweep empty;
  empty.count = 0;
  empty.source = [](engine::JobId) -> engine::BatchJob {
    throw support::ContractViolation("an empty sweep has no jobs");
  };
  const dist::SweepKey key = dist::make_sweep_key(engine::WorkloadSpec::staggered(),
                                                  {core::ProtocolSpec::canonical()}, 0,
                                                  fault::FaultSpec::none(), 0);

  std::vector<dist::ShardReport> shards;
  for (const dist::JobRange& range : dist::shard_ranges(0, 3)) {
    engine::BatchRunner runner({.threads = 1});
    engine::BatchReport report = runner.run_range(range.begin, range.end, empty.source);
    const dist::ShardReport shard = dist::make_shard_report(key, range, std::move(report));
    std::stringstream wire;
    dist::write_shard_report(shard, wire);
    shards.push_back(dist::read_shard_report(wire));
  }
  const engine::BatchReport merged = dist::complete_report(dist::merge_shards(shards));
  EXPECT_TRUE(merged.jobs.empty());
  EXPECT_TRUE(merged.by_protocol.empty());
}

// -------------------------------------------------- workload-kind coverage
// The merge algebra over the *workload* registry: every new workload kind —
// generator topologies and mutation neighbourhoods alike — shards and
// merges bit-identically to its unsharded run at the same K fan-outs as the
// protocol-registry suite above, with the sweep identity taken straight
// from the spec (name + digest).

class WorkloadMergeAlgebra : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadMergeAlgebra, ShardedRunsMergeBitIdenticalToUnsharded) {
  const engine::WorkloadSpec workload = engine::parse_workload(GetParam());
  const std::vector<core::ProtocolSpec> protocols = {core::ProtocolSpec::canonical(),
                                                     core::ProtocolSpec::classify_only()};
  const engine::CountedSweep sweep = workload.instantiate(kSeed, protocols, {.count = 3});
  const dist::SweepKey key =
      dist::make_sweep_key(workload, protocols, kSeed, fault::FaultSpec::none(), sweep.count);
  ASSERT_GT(sweep.count, 0u);

  const engine::BatchReport unsharded = run_unsharded(sweep);
  ASSERT_EQ(unsharded.jobs.size(), sweep.count);
  for (const std::uint32_t k : {1u, 2u, 3u, 7u}) {
    const engine::BatchReport merged =
        dist::complete_report(dist::merge_shards(run_shards(sweep, key, k)));
    EXPECT_TRUE(engine::same_results(merged, unsharded)) << workload.name() << " K = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkloadKinds, WorkloadMergeAlgebra,
                         ::testing::Values("grid:rows=3,cols=3,sigma=2",
                                           "torus:rows=3,cols=3,sigma=2",
                                           "hypercube:d=3,sigma=2", "tree:n=9,sigma=2",
                                           "single-hop:n=6,sigma=2", "mutations:family-h"));

// ------------------------------------------------------------ sweep identity

// ---------------------------------------------------------- resume notation

TEST(ResumeNotation, JobRangesParseStrictly) {
  EXPECT_EQ(dist::parse_job_range("0-5"), (dist::JobRange{0, 5}));
  EXPECT_EQ(dist::parse_job_range("17-18"), (dist::JobRange{17, 18}));
  EXPECT_EQ(dist::parse_job_range("100-250"), (dist::JobRange{100, 250}));

  for (const char* bad : {"", "-", "3-3", "5-3", "a-b", "1-2-3", "1/2", " 1-2", "1-2 ", "-5",
                          "3-", "0x1-2", "+1-2", "12345678901234567890-12345678901234567899"}) {
    EXPECT_THROW((void)dist::parse_job_range(bad), support::ContractViolation) << "'" << bad << "'";
  }
}

TEST(ResumeNotation, MissingRangesComplementTheCover) {
  const engine::CountedSweep sweep = registry_sweep();
  const std::vector<dist::ShardReport> shards = run_shards(sweep, 3);
  ASSERT_EQ(shards.size(), 3u);
  const engine::JobId total = shards[0].key.total_jobs;

  // Full cover: nothing missing.
  EXPECT_TRUE(dist::missing_ranges(dist::merge_shards(shards)).empty());

  // One lost shard: exactly its range is missing (head, middle, tail).
  for (std::size_t lost = 0; lost < shards.size(); ++lost) {
    std::vector<dist::ShardReport> survivors;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (i != lost) {
        survivors.push_back(shards[i]);
      }
    }
    const std::vector<dist::JobRange> gaps =
        dist::missing_ranges(dist::merge_shards(survivors));
    ASSERT_EQ(gaps.size(), 1u) << "lost shard " << lost;
    EXPECT_EQ(gaps[0], shards[lost].ranges.front()) << "lost shard " << lost;
  }

  // Two lost, non-adjacent shards: two gaps, in job-id order.
  const std::vector<dist::JobRange> gaps =
      dist::missing_ranges(dist::merge_shards({shards[1]}));
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], shards[0].ranges.front());
  EXPECT_EQ(gaps[1], shards[2].ranges.front());

  // The complement really is a partition: gaps + covered ranges tile
  // [0, total) exactly.
  engine::JobId covered = 0;
  for (const dist::JobRange& gap : gaps) {
    covered += gap.size();
  }
  EXPECT_EQ(covered + shards[1].ranges.front().size(), total);
}

TEST(ResumeNotation, ResumedShardsMergeBitIdenticalToTheUninterruptedRun) {
  // The crash-recovery contract end to end: drop one shard of a sharded run
  // (the SIGKILLed worker), re-run exactly the gap missing_ranges() names,
  // and the merge of survivors + resumed shard equals the full merge.
  const engine::CountedSweep sweep = registry_sweep();
  const dist::SweepKey key = registry_key(sweep);
  const std::vector<dist::ShardReport> shards = run_shards(sweep, 3);

  std::vector<dist::ShardReport> survivors = {shards[0], shards[2]};
  const std::vector<dist::JobRange> gaps =
      dist::missing_ranges(dist::merge_shards(survivors));
  for (const dist::JobRange& gap : gaps) {
    engine::BatchRunner runner({.threads = 2, .seed = kSeed});
    engine::BatchReport report = runner.run_range(gap.begin, gap.end, sweep.source);
    survivors.push_back(dist::make_shard_report(key, gap, std::move(report)));
  }

  const engine::BatchReport resumed = dist::complete_report(dist::merge_shards(survivors));
  const engine::BatchReport reference = dist::complete_report(dist::merge_shards(shards));
  EXPECT_EQ(resumed.jobs, reference.jobs);
  EXPECT_EQ(resumed.by_protocol, reference.by_protocol);
  EXPECT_TRUE(engine::same_results(resumed, run_unsharded(sweep)));
}

TEST(SweepIdentity, WorkloadDigestIsTheSweepDigestOfItsName) {
  // The contract that lets a spec's digest feed dist::SweepKey directly.
  for (const engine::WorkloadSpec& workload : engine::registered_workloads()) {
    EXPECT_EQ(workload.digest(), dist::sweep_digest(workload.name())) << workload.name();
  }
}

TEST(SweepIdentity, DescriptionsMustReParseAsCanonicalWorkloads) {
  // Identity is re-parsed, not trusted: a report whose description is not a
  // registered workload — or not its canonical spelling — is rejected even
  // though its digest line is internally consistent.
  const engine::CountedSweep sweep = registry_sweep();
  for (const char* description : {"not a workload", "random:sigma=5", "grid:rows=3"}) {
    dist::SweepKey key = registry_key(sweep);
    key.description = description;
    key.digest = dist::sweep_digest(key.description);
    engine::BatchRunner runner({.threads = 1, .seed = kSeed});
    const dist::ShardReport shard = dist::make_shard_report(
        key, {0, sweep.count}, runner.run_range(0, sweep.count, sweep.source));
    std::stringstream wire;
    dist::write_shard_report(shard, wire);
    EXPECT_THROW((void)dist::read_shard_report(wire), dist::ReportFormatError) << description;
  }
}

// ----------------------------------------------------- engine range contract

TEST(RunRange, ShardOutcomesEqualTheUnshardedSlice) {
  const engine::CountedSweep sweep = registry_sweep();
  const engine::BatchReport unsharded = run_unsharded(sweep);
  for (const dist::JobRange& range : dist::shard_ranges(sweep.count, 4)) {
    engine::BatchRunner runner({.threads = 1, .seed = kSeed});
    const engine::BatchReport shard = runner.run_range(range.begin, range.end, sweep.source);
    ASSERT_EQ(shard.jobs.size(), range.size());
    for (std::size_t i = 0; i < shard.jobs.size(); ++i) {
      EXPECT_EQ(shard.jobs[i], unsharded.jobs[static_cast<std::size_t>(range.begin) + i]);
    }
  }
}

}  // namespace
