/// \file test_exhaustive.cpp
/// Experiment E1 (Theorem 3.17) as an exhaustive integration sweep: every
/// labelled connected graph up to n = 4 with every tag vector over {0,1,2}
/// goes through the full pipeline — paper Classifier, FastClassifier,
/// canonical-DRIP simulation — and all three must agree everywhere.  For
/// n = 3 the Lemma 3.9 history-partition referee also validates every phase.
/// Feasible-configuration counts are pinned as regression values.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "config/io.hpp"
#include "core/canonical_drip.hpp"
#include "core/election.hpp"
#include "core/fast_classifier.hpp"
#include "helpers.hpp"

namespace {

using namespace arl;

struct SweepCounts {
  std::uint64_t configurations = 0;
  std::uint64_t feasible = 0;
};

SweepCounts full_pipeline_sweep(graph::NodeId n, config::Tag max_tag) {
  SweepCounts counts;
  testkit::for_each_configuration(n, max_tag, [&](const config::Configuration& c) {
    ++counts.configurations;
    const core::ClassifierResult paper = core::Classifier{}.run(c);
    const core::ClassifierResult fast = core::FastClassifier{}.run(c);
    ASSERT_EQ(paper.verdict, fast.verdict);
    ASSERT_EQ(paper.iterations, fast.iterations);
    ASSERT_EQ(paper.leader, fast.leader);
    for (std::size_t j = 0; j < paper.records.size(); ++j) {
      ASSERT_EQ(paper.records[j].clazz, fast.records[j].clazz);
    }

    const core::ElectionReport report = core::elect(c);
    ASSERT_TRUE(report.valid) << config::to_text_string(c);
    ASSERT_EQ(report.feasible, paper.feasible());
    if (report.feasible) {
      ++counts.feasible;
      ASSERT_EQ(*report.leader, paper.leader);
    }
  });
  return counts;
}

TEST(Exhaustive, N1FullPipeline) {
  const SweepCounts counts = full_pipeline_sweep(1, 2);
  EXPECT_EQ(counts.configurations, 3u);  // 1 graph x 3 tag vectors
  EXPECT_EQ(counts.feasible, 3u);        // a lone node always elects itself
}

TEST(Exhaustive, N2FullPipeline) {
  const SweepCounts counts = full_pipeline_sweep(2, 2);
  EXPECT_EQ(counts.configurations, 9u);  // 1 graph x 9 tag vectors
  // Feasible iff the two tags differ: 6 of 9.
  EXPECT_EQ(counts.feasible, 6u);
}

TEST(Exhaustive, N3FullPipeline) {
  const SweepCounts counts = full_pipeline_sweep(3, 2);
  EXPECT_EQ(counts.configurations, 4u * 27u);
  EXPECT_EQ(counts.feasible, 96u);  // pinned: only the 12 all-equal-tag configs are infeasible
}

TEST(Exhaustive, N4FullPipeline) {
  const SweepCounts counts = full_pipeline_sweep(4, 2);
  EXPECT_EQ(counts.configurations, 38u * 81u);
  EXPECT_EQ(counts.feasible, 2784u);  // pinned regression value
}

TEST(Exhaustive, N3Lemma39RerefereesEveryPhase) {
  // Simulation-level referee: on every 3-node configuration, the history
  // partition after each phase equals the Classifier partition — tying the
  // combinatorial algorithm to the radio semantics, exhaustively.
  testkit::for_each_configuration(3, 2, [&](const config::Configuration& c) {
    const core::ClassifierResult classification = core::Classifier{}.run(c);
    const auto schedule = std::make_shared<const core::CanonicalSchedule>(
        core::build_schedule(c, classification));
    radio::SimulatorOptions options;
    options.history_window = 0;
    const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(schedule), options);
    ASSERT_TRUE(run.all_terminated);
    std::uint64_t r_j = 0;
    for (std::uint32_t j = 1; j <= classification.iterations; ++j) {
      r_j += schedule->phase_length(j - 1);
      const auto by_history = testkit::history_partition(run, static_cast<std::size_t>(r_j));
      ASSERT_TRUE(testkit::same_partition(by_history, classification.classes_after(j)))
          << config::to_text_string(c) << " phase " << j;
    }
  });
}

TEST(Exhaustive, N5ClassifierEquivalenceBinaryTags) {
  // n = 5 with tags over {0,1}: classifier-only (23k runs), both
  // implementations bit-identical.
  std::uint64_t feasible = 0;
  std::uint64_t total = 0;
  testkit::for_each_configuration(5, 1, [&](const config::Configuration& c) {
    ++total;
    const core::ClassifierResult paper = core::Classifier{}.run(c);
    const core::ClassifierResult fast = core::FastClassifier{}.run(c);
    ASSERT_EQ(paper.verdict, fast.verdict);
    ASSERT_EQ(paper.iterations, fast.iterations);
    ASSERT_EQ(paper.leader, fast.leader);
    feasible += paper.feasible() ? 1 : 0;
  });
  EXPECT_EQ(total, 728u * 32u);
  EXPECT_EQ(feasible, 21520u);  // pinned regression value
}

}  // namespace
