/// \file test_extensions.cpp
/// The beyond-the-paper extensions: the no-collision-detection channel
/// model, schedule serialization, the independent execution validator,
/// worst-case hardness search, and configuration mutations.

#include <gtest/gtest.h>

#include "config/families.hpp"
#include "config/io.hpp"
#include "config/mutations.hpp"
#include "core/canonical_drip.hpp"
#include "core/election.hpp"
#include "core/fast_classifier.hpp"
#include "core/partition.hpp"
#include "core/schedule_io.hpp"
#include "graph/algorithms.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "lowerbounds/hardness.hpp"
#include "lowerbounds/universal.hpp"
#include "radio/validator.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using arl::support::ContractViolation;

// ------------------------------------------------------------ no-CD channel

TEST(NoCd, CollisionsReadAsSilence) {
  // Star: both leaves transmit at once; with CD the hub hears (∗), without
  // CD it hears (∅).
  const config::Configuration c(graph::star(3), {0, 0, 0});
  const testkit::BeaconDrip leaves(2, 9, 5);
  class Selective final : public radio::Drip {
   public:
    std::unique_ptr<radio::NodeProgram> instantiate(const radio::NodeEnv& env) const override {
      if (env.label == 1u) {
        return testkit::BeaconDrip(2, 9, 5).instantiate(env);
      }
      return testkit::SilentDrip(5).instantiate(env);
    }
    std::string name() const override { return "selective"; }
  };
  radio::SimulatorOptions options;
  options.labels = {0, 1, 1};
  options.channel_model = radio::ChannelModel::NoCollisionDetection;
  const radio::RunResult run = radio::simulate(c, Selective{}, options);
  EXPECT_TRUE(run.nodes[0].history[2].is_silence());
  EXPECT_EQ(run.stats.collisions_heard, 0u);
}

TEST(NoCd, LabelsDropStarredSlots) {
  // Hub with two same-tag leaves: the CD label is {(1,3,*)}, the no-CD label
  // is empty (the collided slot is inaudible).
  const config::Configuration c(graph::star(3), {0, 1, 1});
  const auto cd = core::compute_labels(c, {1, 1, 1});
  const auto nocd = core::compute_labels(c, {1, 1, 1}, nullptr,
                                         radio::ChannelModel::NoCollisionDetection);
  EXPECT_EQ(core::Label(cd[0].begin(), cd[0].end()), (core::Label{{1, 3, true}}));
  EXPECT_TRUE(nocd[0].empty());
  EXPECT_EQ(core::Label(nocd[1].begin(), nocd[1].end()),
            core::Label(cd[1].begin(), cd[1].end()));  // clean slots are unaffected
}

TEST(NoCd, WeakerFeedbackNeverHelps) {
  // Every configuration feasible without collision detection is feasible
  // with it — exhaustively on n <= 4.
  std::uint64_t cd_feasible = 0;
  std::uint64_t nocd_feasible = 0;
  for (graph::NodeId n = 1; n <= 4; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      std::vector<config::Tag> tags(n, 0);
      for (;;) {
        const config::Configuration c(g, tags);
        const bool cd = core::FastClassifier{}.run(c).feasible();
        const bool nocd =
            core::FastClassifier(radio::ChannelModel::NoCollisionDetection).run(c).feasible();
        EXPECT_TRUE(cd || !nocd) << config::to_text_string(c);
        cd_feasible += cd ? 1 : 0;
        nocd_feasible += nocd ? 1 : 0;
        graph::NodeId position = 0;
        while (position < n && tags[position] == 2) {
          tags[position] = 0;
          ++position;
        }
        if (position == n) {
          break;
        }
        ++tags[position];
      }
    });
  }
  // Collision detection strictly enlarges the feasible set.  Pinned counts
  // (n = 1..4, tags {0,1,2}): the weaker feedback loses 360 of the 2889
  // CD-feasible configurations, all of them at n = 4.
  EXPECT_EQ(cd_feasible, 2889u);
  EXPECT_EQ(nocd_feasible, 2529u);
}

TEST(NoCd, WitnessWhereCollisionDetectionIsEssential) {
  // The hub of a star with two equal-tag leaves hears only the collision of
  // its leaves; drop CD and the hub stays indistinguishable... except the
  // leaves hear the hub cleanly either way.  A genuine witness needs the
  // star to be told apart *through* the collision.  K_{1,3} with tags
  // 0,1,1,0 does it: found by the exhaustive sweep, verified here.
  const config::Configuration c(graph::star(4), {0, 1, 1, 0});
  EXPECT_TRUE(core::FastClassifier{}.run(c).feasible());
  EXPECT_FALSE(
      core::FastClassifier(radio::ChannelModel::NoCollisionDetection).run(c).feasible());
}

TEST(NoCd, ElectionPipelineStaysConsistent) {
  // elect() with the no-CD model: classification, schedule and simulation
  // all run under the weaker feedback and must stay mutually consistent
  // (exactly the classifier-predicted leader, or nobody).
  core::ElectionOptions options;
  options.channel_model = radio::ChannelModel::NoCollisionDetection;
  for (graph::NodeId n = 1; n <= 3; ++n) {
    graph::for_each_connected_graph(n, [&](const graph::Graph& g) {
      std::vector<config::Tag> tags(n, 0);
      for (;;) {
        const core::ElectionReport report = core::elect(config::Configuration(g, tags), options);
        ASSERT_TRUE(report.valid);
        graph::NodeId position = 0;
        while (position < n && tags[position] == 2) {
          tags[position] = 0;
          ++position;
        }
        if (position == n) {
          break;
        }
        ++tags[position];
      }
    });
  }
}

TEST(NoCd, RandomConfigurationsElectConsistently) {
  support::Rng rng(404);
  core::ElectionOptions options;
  options.channel_model = radio::ChannelModel::NoCollisionDetection;
  for (int repeat = 0; repeat < 20; ++repeat) {
    const auto n = static_cast<graph::NodeId>(2 + rng.below(12));
    const config::Configuration c =
        config::random_tags(graph::gnp_connected(n, 0.4, rng), 3, rng);
    const core::ElectionReport report = core::elect(c, options);
    EXPECT_TRUE(report.valid);
  }
}

// ------------------------------------------------------------- schedule io

TEST(ScheduleIo, RoundTripsFeasibleSchedules) {
  for (const auto& c : {config::family_h(3), config::family_g(3), config::staggered_path(6)}) {
    const auto schedule = core::make_schedule(c);
    const std::string text = core::schedule_to_text_string(*schedule);
    const core::CanonicalSchedule parsed = core::schedule_from_text_string(text);
    EXPECT_EQ(parsed.sigma, schedule->sigma);
    EXPECT_EQ(parsed.model, schedule->model);
    EXPECT_EQ(parsed.feasible, schedule->feasible);
    EXPECT_EQ(parsed.leader_old_class, schedule->leader_old_class);
    EXPECT_EQ(parsed.leader_label, schedule->leader_label);
    ASSERT_EQ(parsed.phases.size(), schedule->phases.size());
    for (std::size_t j = 0; j < parsed.phases.size(); ++j) {
      EXPECT_EQ(parsed.phases[j].num_classes, schedule->phases[j].num_classes);
      for (std::size_t k = 0; k < parsed.phases[j].entries.size(); ++k) {
        EXPECT_EQ(parsed.phases[j].entries[k].old_class,
                  schedule->phases[j].entries[k].old_class);
        EXPECT_EQ(parsed.phases[j].entries[k].label, schedule->phases[j].entries[k].label);
      }
    }
  }
}

TEST(ScheduleIo, RoundTripsInfeasibleAndNoCdSchedules) {
  const auto infeasible = core::make_schedule(config::family_s(2));
  EXPECT_EQ(core::schedule_from_text_string(core::schedule_to_text_string(*infeasible)).feasible,
            false);
  const auto nocd =
      core::make_schedule(config::family_h(2), radio::ChannelModel::NoCollisionDetection);
  EXPECT_EQ(core::schedule_from_text_string(core::schedule_to_text_string(*nocd)).model,
            radio::ChannelModel::NoCollisionDetection);
}

TEST(ScheduleIo, ParsedScheduleDrivesARealElection) {
  // The full deployment story: compile, serialize, parse, run.
  const config::Configuration c = config::family_h(4);
  const auto compiled = core::make_schedule(c);
  const auto parsed = std::make_shared<const core::CanonicalSchedule>(
      core::schedule_from_text_string(core::schedule_to_text_string(*compiled)));
  const radio::RunResult run = radio::simulate(c, core::CanonicalDrip(parsed));
  ASSERT_TRUE(run.all_terminated);
  EXPECT_EQ(run.leaders().size(), 1u);
}

TEST(ScheduleIo, MalformedInputsThrow) {
  EXPECT_THROW((void)core::schedule_from_text_string(""), ContractViolation);
  EXPECT_THROW((void)core::schedule_from_text_string("bogus v9\n"), ContractViolation);
  EXPECT_THROW((void)core::schedule_from_text_string("arl-schedule v1\nsigma x\n"),
               ContractViolation);
  // Unsorted label triples are rejected.
  const std::string bad_label =
      "arl-schedule v1\nsigma 1\nmodel cd\nfeasible 1\n"
      "leader 1 2 1 5 1 1 2 1\nphases 1\nphase 1\nentry 1 0\n";
  EXPECT_THROW((void)core::schedule_from_text_string(bad_label), ContractViolation);
  // Phase P_1 must be L_1 = [(1, null)].
  const std::string bad_p1 =
      "arl-schedule v1\nsigma 1\nmodel cd\nfeasible 0\nphases 1\nphase 1\nentry 2 0\n";
  EXPECT_THROW((void)core::schedule_from_text_string(bad_p1), ContractViolation);
}

// --------------------------------------------------------------- validator

radio::ValidationReport validate_canonical_run(const config::Configuration& c) {
  const auto schedule = core::make_schedule(c);
  const core::CanonicalDrip drip(schedule);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  const radio::RunResult run = radio::simulate(c, drip, options);
  return radio::validate_execution(c, recorder, run);
}

TEST(Validator, CanonicalRunsValidate) {
  for (const auto& c : {config::family_h(3), config::family_s(2), config::family_g(3),
                        config::staggered_path(6)}) {
    const radio::ValidationReport report = validate_canonical_run(c);
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(Validator, BaselineRunsValidate) {
  // Also validates a protocol with forced wakeups and collisions.
  const config::Configuration c = config::family_h(2);
  const lowerbounds::BeepCandidate candidate = lowerbounds::BeepCandidate(1, 9);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  const radio::RunResult run = radio::simulate(c, candidate, options);
  const radio::ValidationReport report = radio::validate_execution(c, recorder, run);
  EXPECT_TRUE(report.ok) << report.error;
}

TEST(Validator, DetectsTamperedHistories) {
  const config::Configuration c = config::family_h(2);
  const auto schedule = core::make_schedule(c);
  const core::CanonicalDrip drip(schedule);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  radio::RunResult run = radio::simulate(c, drip, options);

  run.nodes[1].history[3] = radio::HistoryEntry::collision();  // tamper
  const radio::ValidationReport report = radio::validate_execution(c, recorder, run);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("node 1"), std::string::npos);
  EXPECT_NE(report.error.find("H[3]"), std::string::npos);
}

TEST(Validator, DetectsWrongWakeKind) {
  const config::Configuration c = config::family_h(2);
  const auto schedule = core::make_schedule(c);
  const core::CanonicalDrip drip(schedule);
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 0;
  radio::RunResult run = radio::simulate(c, drip, options);

  run.nodes[0].forced_wake = true;  // tamper: canonical wakeups are spontaneous
  const radio::ValidationReport report = radio::validate_execution(c, recorder, run);
  EXPECT_FALSE(report.ok);
}

TEST(Validator, RejectsWindowedHistories) {
  const config::Configuration c = config::family_h(2);
  const testkit::SilentDrip drip(30);  // long enough that the window evicts
  radio::ExecutionRecorder recorder;
  radio::SimulatorOptions options;
  options.trace = &recorder;
  options.history_window = 3;
  const radio::RunResult run = radio::simulate(c, drip, options);
  const radio::ValidationReport report = radio::validate_execution(c, recorder, run);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("full histories"), std::string::npos);
}

// ---------------------------------------------------------------- hardness

TEST(Hardness, ExhaustiveFindsTheFamilyGPattern) {
  // On the path of 9 nodes with binary tags, G_2's assignment (0 0 1 1 1 1 1
  // 0 0) forces 2 iterations; the exhaustive search must find at least that.
  const auto result = lowerbounds::hardest_tags_exhaustive(graph::path(9), 1);
  EXPECT_EQ(result.evaluated, 512u);  // 2^9 assignments
  EXPECT_GE(result.iterations, 2u);
  EXPECT_EQ(result.tags.size(), 9u);
}

TEST(Hardness, ExhaustiveGuardRejectsHugeSpaces) {
  EXPECT_THROW((void)lowerbounds::hardest_tags_exhaustive(graph::path(30), 3),
               ContractViolation);
}

TEST(Hardness, SearchRespectsBudgetAndFindsSomething) {
  support::Rng rng(5);
  const auto result = lowerbounds::hardest_tags_search(graph::path(17), 1, rng, 800);
  EXPECT_GE(result.evaluated, 800u);     // budget exhausted (restarts overshoot a bit)
  EXPECT_LE(result.evaluated, 800u + 200u);
  EXPECT_GE(result.iterations, 2u);      // better than a trivial assignment
  EXPECT_EQ(result.tags.size(), 17u);
}

TEST(Hardness, SearchMatchesExhaustiveOnSmallInstances) {
  support::Rng rng(11);
  const graph::Graph g = graph::path(8);
  const auto exhaustive = lowerbounds::hardest_tags_exhaustive(g, 1);
  const auto search = lowerbounds::hardest_tags_search(g, 1, rng, 4000);
  EXPECT_EQ(search.iterations, exhaustive.iterations);
}

// --------------------------------------------------------------- mutations

TEST(Mutations, WithTagReplacesExactlyOneTag) {
  const config::Configuration c = config::family_h(2);
  const config::Configuration mutated = config::with_tag(c, 1, 7);
  EXPECT_EQ(mutated.tag(1), 7u);
  EXPECT_EQ(mutated.tag(0), c.tag(0));
  EXPECT_EQ(mutated.graph(), c.graph());
}

TEST(Mutations, ExtraEdgeGrowsTheGraph) {
  support::Rng rng(3);
  const config::Configuration c(graph::path(5), {0, 1, 0, 1, 0});
  const auto mutated = config::with_random_extra_edge(c, rng);
  ASSERT_TRUE(mutated.has_value());
  EXPECT_EQ(mutated->graph().edge_count(), c.graph().edge_count() + 1);
  EXPECT_EQ(mutated->tags(), c.tags());
}

TEST(Mutations, ExtraEdgeOnCompleteGraphIsImpossible) {
  support::Rng rng(3);
  const config::Configuration c(graph::complete(4), {0, 1, 2, 3});
  EXPECT_EQ(config::with_random_extra_edge(c, rng), std::nullopt);
}

TEST(Mutations, EdgeRemovalKeepsConnectivity) {
  support::Rng rng(9);
  const config::Configuration c(graph::cycle(6), {0, 1, 2, 0, 1, 2});
  const auto mutated = config::with_random_edge_removed(c, rng);
  ASSERT_TRUE(mutated.has_value());
  EXPECT_EQ(mutated->graph().edge_count(), c.graph().edge_count() - 1);
  EXPECT_TRUE(graph::is_connected(mutated->graph()));
}

TEST(Mutations, TreesHaveNoRemovableEdges) {
  support::Rng rng(9);
  const config::Configuration c(graph::path(5), {0, 1, 0, 1, 0});
  EXPECT_EQ(config::with_random_edge_removed(c, rng), std::nullopt);
}

TEST(Mutations, AllTagMutationsEnumerateEverySingleFlip) {
  const config::Configuration c(graph::path(3), {0, 1, 2});
  const auto mutations = config::all_tag_mutations(c, 2);
  EXPECT_EQ(mutations.size(), 3u * 2u);  // n nodes x max_tag alternatives
  for (const auto& mutated : mutations) {
    graph::NodeId differing = 0;
    for (graph::NodeId v = 0; v < 3; ++v) {
      differing += (mutated.tag(v) != c.tag(v)) ? 1 : 0;
    }
    EXPECT_EQ(differing, 1u);
  }
}

TEST(Mutations, FeasibilityCanFlipUnderOneTagChange) {
  // S_2 (infeasible) becomes H-like (feasible) by nudging one endpoint tag.
  const config::Configuration s = config::family_s(2);
  EXPECT_FALSE(core::FastClassifier{}.run(s).feasible());
  const config::Configuration nudged = config::with_tag(s, 3, 3);  // t_d: 2 -> 3
  EXPECT_TRUE(core::FastClassifier{}.run(nudged).feasible());
}

}  // namespace
