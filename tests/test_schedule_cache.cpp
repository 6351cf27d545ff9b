/// \file test_schedule_cache.cpp
/// The schedule/classification cache's contract: cache-on and cache-off
/// batches are bit-identical — every JobOutcome (leader, rounds,
/// disposition) — for a seeded random workload crossed with every registered
/// protocol, across 1, 2 and 8 threads; plus the unit behaviour of the
/// sharded LRU itself (hits, upgrades, evictions, key separation) and of
/// the per-batch statistics the engine reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "core/protocol.hpp"
#include "engine/batch_runner.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/workload.hpp"

namespace {

using namespace arl;

/// The issue's parity workload: a seeded random sweep crossed with every
/// protocol in the registry, so consecutive jobs share a configuration and
/// the cache sees hits from the classifying kinds next to pass-through
/// baseline jobs.
engine::CountedSweep registry_sweep(std::size_t configurations) {
  const engine::WorkloadSpec workload = engine::WorkloadSpec::random(10, 0.3, 2);
  return workload.instantiate(4242, core::registered_protocols(), {.count = configurations});
}

constexpr engine::JobId kParityConfigurations = 12;

TEST(ScheduleCache, CacheOnAndCacheOffBatchesAreBitIdentical) {
  const engine::CountedSweep sweep = registry_sweep(kParityConfigurations);
  const engine::JobSource& source = sweep.source;
  const engine::JobId count = sweep.count;

  std::vector<engine::BatchReport> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const std::size_t capacity : {std::size_t{0}, std::size_t{256}}) {
      engine::BatchRunner runner(
          {.threads = threads, .seed = 99, .cache_capacity = capacity});
      reports.push_back(runner.run(count, source));
      EXPECT_EQ(reports.back().cache.has_value(), capacity > 0);
    }
  }
  // Every (thread count, cache setting) combination agrees job for job —
  // leader, rounds, disposition and all — and row for row.
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].jobs, reports[0].jobs) << "combination " << i;
    EXPECT_EQ(reports[i].by_protocol, reports[0].by_protocol) << "combination " << i;
  }
  // The workload has signal: elections happened and the cache actually hit
  // (P - 1 classifying/simulating repeats per configuration would be wasted
  // compiles without it).
  EXPECT_GT(reports[0].valid_count, 0u);
  ASSERT_TRUE(reports[1].cache.has_value());
  EXPECT_GT(reports[1].cache->hits, 0u);
}

TEST(ScheduleCache, CachedFullReportsMatchUncachedOnes) {
  // Beyond the condensed outcomes: the full ElectionReports — classification
  // records, schedule contents, verification — are equal too.
  const engine::CountedSweep sweep = registry_sweep(4);
  const engine::JobSource& source = sweep.source;
  const engine::JobId count = sweep.count;

  engine::BatchRunner uncached({.threads = 2, .seed = 7, .keep_reports = true});
  engine::BatchRunner cached(
      {.threads = 2, .seed = 7, .keep_reports = true, .cache_capacity = 64});
  const engine::BatchReport a = uncached.run(count, source);
  const engine::BatchReport b = cached.run(count, source);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_EQ(a.reports[i].classification.records, b.reports[i].classification.records) << i;
    EXPECT_EQ(a.reports[i].classification.steps, b.reports[i].classification.steps) << i;
    ASSERT_EQ(a.reports[i].schedule != nullptr, b.reports[i].schedule != nullptr) << i;
    if (a.reports[i].schedule != nullptr) {
      EXPECT_EQ(a.reports[i].schedule->total_rounds(), b.reports[i].schedule->total_rounds())
          << i;
    }
    EXPECT_EQ(a.reports[i].leader, b.reports[i].leader) << i;
    EXPECT_EQ(a.reports[i].valid, b.reports[i].valid) << i;
  }
}

TEST(ScheduleCache, LookupMissesThenHitsTheStoredEntry) {
  engine::ScheduleCache cache(16);
  const config::Configuration c = config::family_h(2);
  const auto model = radio::ChannelModel::CollisionDetection;
  EXPECT_EQ(cache.lookup(c, model, false), nullptr);

  core::CompiledConfiguration compiled;
  compiled.classification = core::Classifier(model).run(c);
  const auto stored = cache.store(c, model, false, std::move(compiled));
  ASSERT_NE(stored, nullptr);
  // The hit returns the very same entry (shared, immutable), and marks it
  // most recently used.
  EXPECT_EQ(cache.lookup(c, model, false), stored);

  const engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ScheduleCache, KeysSeparateModelAndClassifierChoice) {
  // The same configuration under a different channel model or classifier
  // implementation compiles to different artifacts, so each (model, fast)
  // pair owns a distinct entry.
  engine::ScheduleCache cache(16);
  const config::Configuration c = config::family_h(2);
  core::CompiledConfiguration compiled;
  compiled.classification = core::Classifier(radio::ChannelModel::CollisionDetection).run(c);
  (void)cache.store(c, radio::ChannelModel::CollisionDetection, false, std::move(compiled));

  EXPECT_NE(cache.lookup(c, radio::ChannelModel::CollisionDetection, false), nullptr);
  EXPECT_EQ(cache.lookup(c, radio::ChannelModel::NoCollisionDetection, false), nullptr);
  EXPECT_EQ(cache.lookup(c, radio::ChannelModel::CollisionDetection, true), nullptr);
}

TEST(ScheduleCache, ClassifyThenCanonicalUpgradesTheEntryInPlace) {
  // A classify-only job caches the classification without paying for the
  // schedule; a later canonical job on the same configuration reuses the
  // classification, builds only the schedule, and upgrades the entry.
  engine::ScheduleCache cache(16);
  core::ElectionScratch scratch;
  scratch.schedule_cache = &cache;
  const config::Configuration c = config::family_h(2);

  const core::ElectionReport classify =
      core::run_protocol(c, core::ProtocolSpec::classify_only(), {}, scratch);
  EXPECT_TRUE(classify.feasible);
  EXPECT_EQ(classify.schedule, nullptr);
  engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.schedule_builds, 0u);
  EXPECT_EQ(stats.entries, 1u);

  const core::ElectionReport canonical =
      core::run_protocol(c, core::ProtocolSpec::canonical(), {}, scratch);
  EXPECT_TRUE(canonical.valid);
  ASSERT_NE(canonical.schedule, nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);             // the classification was reused...
  EXPECT_EQ(stats.schedule_builds, 1u);  // ...and only the schedule was built
  EXPECT_EQ(stats.entries, 1u);

  // A third run is a pure hit: same shared schedule, nothing compiled.
  const core::ElectionReport again =
      core::run_protocol(c, core::ProtocolSpec::canonical(), {}, scratch);
  EXPECT_EQ(again.schedule, canonical.schedule);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.schedule_builds, 1u);
}

TEST(ScheduleCache, ClassifyOnlyStoreNeverDowngradesAFullEntry) {
  // The racing-worker interleaving: a classify-only compile stored after a
  // full compile of the same key must keep the schedule the entry already
  // holds, not discard it.
  engine::ScheduleCache cache(16);
  const auto model = radio::ChannelModel::CollisionDetection;
  const config::Configuration c = config::family_h(2);

  core::CompiledConfiguration full;
  full.classification = core::Classifier(model).run(c);
  full.schedule = core::make_schedule(c, model);
  const auto stored = cache.store(c, model, false, std::move(full));
  ASSERT_NE(stored->schedule, nullptr);

  core::CompiledConfiguration classify_only;
  classify_only.classification = core::Classifier(model).run(c);
  const auto kept = cache.store(c, model, false, std::move(classify_only));
  EXPECT_EQ(kept, stored);  // the more complete artifacts survived

  const auto hit = cache.lookup(c, model, false);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->schedule, stored->schedule);
}

TEST(ScheduleCache, EffectiveCapacityNeverExceedsTheRequest) {
  for (const std::size_t requested : {std::size_t{1}, std::size_t{3}, std::size_t{10},
                                      std::size_t{1024}}) {
    engine::ScheduleCache cache(requested);
    EXPECT_LE(cache.capacity(), requested) << requested;
    EXPECT_GE(cache.capacity(), 1u) << requested;
  }
}

TEST(ScheduleCache, CapacityBoundEvictsLeastRecentlyUsed) {
  engine::ScheduleCache cache(1);  // one shard, one slot
  EXPECT_GE(cache.capacity(), 1u);
  const auto model = radio::ChannelModel::CollisionDetection;
  const config::Configuration a = config::family_h(2);
  const config::Configuration b = config::family_s(2);

  core::CompiledConfiguration compiled_a;
  compiled_a.classification = core::Classifier(model).run(a);
  (void)cache.store(a, model, false, std::move(compiled_a));
  core::CompiledConfiguration compiled_b;
  compiled_b.classification = core::Classifier(model).run(b);
  (void)cache.store(b, model, false, std::move(compiled_b));

  EXPECT_EQ(cache.lookup(a, model, false), nullptr);  // evicted by b
  EXPECT_NE(cache.lookup(b, model, false), nullptr);
  const engine::ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.lookup(b, model, false), nullptr);
}

TEST(ScheduleCache, SingleThreadedCrossProtocolCountersAreExact) {
  // One thread makes the counters deterministic: a {canonical, classify}
  // cross product classifies each configuration exactly once (the canonical
  // job misses and compiles, the classify job hits) and builds exactly one
  // schedule per configuration.
  constexpr engine::JobId kConfigurations = 6;
  const engine::CountedSweep crossed = engine::WorkloadSpec::exhaustive(3, 1).instantiate(
      0, {core::ProtocolSpec::canonical(), core::ProtocolSpec::classify_only()});
  const auto count = std::min<engine::JobId>(crossed.count, 2 * kConfigurations);

  engine::BatchRunner runner({.threads = 1, .cache_capacity = 64});
  const engine::BatchReport report = runner.run(count, crossed.source);
  ASSERT_TRUE(report.cache.has_value());
  EXPECT_EQ(report.cache->misses, count / 2);
  EXPECT_EQ(report.cache->hits, count / 2);
  EXPECT_EQ(report.cache->schedule_builds, count / 2);
  EXPECT_EQ(report.cache->evictions, 0u);
  EXPECT_DOUBLE_EQ(report.cache->hit_rate(), 0.5);
}

TEST(ScheduleCache, RepeatedConfigurationsShareOneScheduleObject) {
  // The memoization is visible in the artifacts: two canonical jobs on the
  // same configuration carry pointer-identical schedules when cached, and
  // distinct ones when not.
  std::vector<engine::BatchJob> jobs;
  jobs.push_back({config::family_h(3), core::ProtocolSpec::canonical(), {}});
  jobs.push_back({config::family_h(3), core::ProtocolSpec::canonical(), {}});

  const engine::BatchReport cached =
      engine::run_batch(jobs, {.threads = 1, .keep_reports = true, .cache_capacity = 8});
  ASSERT_EQ(cached.reports.size(), 2u);
  EXPECT_EQ(cached.reports[0].schedule, cached.reports[1].schedule);

  const engine::BatchReport uncached =
      engine::run_batch(jobs, {.threads = 1, .keep_reports = true});
  ASSERT_EQ(uncached.reports.size(), 2u);
  EXPECT_NE(uncached.reports[0].schedule, uncached.reports[1].schedule);
  EXPECT_FALSE(uncached.cache.has_value());
}

TEST(ScheduleCache, UncachedRunProtocolIsUnaffected) {
  // A null cache handle (the default scratch) is exactly the old pipeline.
  const config::Configuration c = config::family_h(2);
  core::ElectionScratch scratch;
  const core::ElectionReport a = core::run_protocol(c, core::ProtocolSpec::canonical(), {});
  const core::ElectionReport b =
      core::run_protocol(c, core::ProtocolSpec::canonical(), {}, scratch);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.local_rounds, b.local_rounds);
  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
}

}  // namespace
