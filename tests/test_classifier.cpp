/// \file test_classifier.cpp
/// Tests for the Classifier (Algorithms 1-4): hand-computed partitions and
/// labels on the paper's families, structural properties (Observation 3.2,
/// Corollary 3.3, Lemma 3.4), exact equality with the rep-scan reference
/// (every result field, `steps` included) and of the flat label table with
/// per-node labels, and differential equality with FastClassifier.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "config/families.hpp"
#include "config/io.hpp"
#include "core/classifier.hpp"
#include "core/fast_classifier.hpp"
#include "core/partition.hpp"
#include "engine/workload.hpp"
#include "graph/generators.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using core::ClassId;
using core::Label;
using core::LabelTriple;

/// Node v's row of a label table, copied into an owning Label.
Label row(const core::LabelTable& labels, std::size_t v) {
  return Label(labels[v].begin(), labels[v].end());
}

// ----------------------------------------------------- hand-computed families

TEST(Classifier, FamilyHSplitsCompletelyInOneIteration) {
  // H_m: path a-b-c-d, tags m,0,0,m+1, σ = m+1.  First-iteration labels:
  //   a: {(1, 2, 1)}       (hears b at block round σ+1+0-m = 2)
  //   b: {(1, 2m+2, 1)}    (hears a at σ+1+m; c is same-class same-tag)
  //   c: {(1, 2m+3, 1)}    (hears d at σ+1+(m+1))
  //   d: {(1, 1, 1)}       (hears c at σ+1-(m+1) = 1)
  for (const config::Tag m : {1u, 2u, 5u, 9u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_h(m));
    ASSERT_EQ(result.iterations, 1u) << "m=" << m;
    EXPECT_TRUE(result.feasible());
    const auto& record = result.records[0];
    EXPECT_EQ(record.num_classes, 4u);
    EXPECT_EQ(row(record.labels, 0), (Label{{1, 2, false}}));
    EXPECT_EQ(row(record.labels, 1), (Label{{1, 2 * m + 2, false}}));
    EXPECT_EQ(row(record.labels, 2), (Label{{1, 2 * m + 3, false}}));
    EXPECT_EQ(row(record.labels, 3), (Label{{1, 1, false}}));
    // Smallest singleton class is a's (vertex order makes node 0 class 1).
    EXPECT_EQ(result.leader_class, 1u);
    EXPECT_EQ(result.leader, 0u);
  }
}

TEST(Classifier, FamilySStabilizesAtTwoPairs) {
  // S_m: tags m,0,0,m — Proposition 4.5's infeasible family.  Iteration 1
  // splits into {a,d} and {b,c}; iteration 2 changes nothing.
  for (const config::Tag m : {1u, 3u, 7u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_s(m));
    EXPECT_FALSE(result.feasible());
    ASSERT_EQ(result.iterations, 2u) << "m=" << m;
    EXPECT_EQ(result.records[0].clazz, (std::vector<ClassId>{1, 2, 2, 1}));
    EXPECT_EQ(result.records[0].num_classes, 2u);
    EXPECT_EQ(result.records[1].clazz, (std::vector<ClassId>{1, 2, 2, 1}));
    EXPECT_EQ(result.records[1].num_classes, 2u);
  }
}

TEST(Classifier, FamilyGElectsTheCenterAfterMIterations) {
  // Proposition 4.1: "the central node b_{m+1} will be in a one-element
  // equivalence class after m iterations".
  for (const config::Tag m : {2u, 3u, 4u, 6u}) {
    const core::ClassifierResult result = core::Classifier{}.run(config::family_g(m));
    EXPECT_TRUE(result.feasible()) << "m=" << m;
    EXPECT_EQ(result.iterations, m) << "m=" << m;
    EXPECT_EQ(result.leader, config::family_g_center(m)) << "m=" << m;
  }
}

TEST(Classifier, ZeroSpanIsAlwaysInfeasibleForTwoPlusNodes) {
  // With equal tags every label is empty (same class, same tag ⇒ excluded),
  // so the partition never leaves {all}: one iteration, verdict "No".
  // This holds for ANY topology — even asymmetric ones like stars or paths,
  // because radio nodes in lockstep can never hear each other.
  const std::vector<graph::Graph> graphs = {
      graph::path(2),  graph::path(5),     graph::cycle(6),      graph::complete(4),
      graph::star(7),  graph::grid(3, 3),  graph::binary_tree(7)};
  for (const auto& g : graphs) {
    const config::Configuration c(g, std::vector<config::Tag>(g.node_count(), 0));
    const core::ClassifierResult result = core::Classifier{}.run(c);
    EXPECT_FALSE(result.feasible()) << "n=" << g.node_count();
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_EQ(result.records[0].num_classes, 1u);
  }
}

TEST(Classifier, SingleNodeIsFeasible) {
  const config::Configuration c(graph::path(1), {0});
  const core::ClassifierResult result = core::Classifier{}.run(c);
  EXPECT_TRUE(result.feasible());
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_EQ(result.leader, 0u);
}

TEST(Classifier, StaggeredPathElectsFirstNode) {
  for (const graph::NodeId n : {2u, 3u, 8u, 15u}) {
    const core::ClassifierResult result =
        core::Classifier{}.run(config::staggered_path(n));
    EXPECT_TRUE(result.feasible()) << "n=" << n;
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_EQ(result.leader, 0u);
  }
}

TEST(Classifier, ClassesAfterZeroIsAllOnes) {
  const core::ClassifierResult result = core::Classifier{}.run(config::family_h(2));
  EXPECT_EQ(result.classes_after(0), (std::vector<ClassId>{1, 1, 1, 1}));
  EXPECT_EQ(result.num_classes_after(0), 1u);
}

// ----------------------------------------------------------- label mechanics

TEST(Partitioner, CollisionSlotsBecomeStars) {
  // Star hub with two leaves of equal tag (≠ hub's): both leaves land on the
  // same (class, round) slot at the hub, so the hub's label holds one (∗)
  // triple.
  const config::Configuration c(graph::star(3), {0, 1, 1});
  const auto labels = core::compute_labels(c, {1, 1, 1});
  // σ = 1: leaves (tag 1) seen from the hub (tag 0) at round σ+1+1 = 3.
  EXPECT_EQ(row(labels, 0), (Label{{1, 3, true}}));
  // Each leaf sees only the hub at round σ+1-1 = 1.
  EXPECT_EQ(row(labels, 1), (Label{{1, 1, false}}));
  EXPECT_EQ(row(labels, 2), (Label{{1, 1, false}}));
}

TEST(Partitioner, SameClassSameTagNeighboursAreExcluded) {
  const config::Configuration c(graph::complete(3), {0, 0, 0});
  const auto labels = core::compute_labels(c, {1, 1, 1});
  ASSERT_EQ(labels.size(), 3u);
  for (std::size_t v = 0; v < labels.size(); ++v) {
    EXPECT_TRUE(row(labels, v).empty());
  }
}

TEST(Partitioner, SameClassDifferentTagNeighboursAreIncluded) {
  const config::Configuration c(graph::path(2), {0, 2});
  const auto labels = core::compute_labels(c, {1, 1});
  EXPECT_EQ(row(labels, 0), (Label{{1, 5, false}}));  // σ=2: 2+1+2
  EXPECT_EQ(row(labels, 1), (Label{{1, 1, false}}));  // 2+1-2
}

TEST(Partitioner, LabelsAreSortedByPrecHist) {
  // A centre with neighbours in different classes and at different offsets;
  // the label must come out (class, round, star)-lexicographic.
  const config::Configuration c(graph::star(4), {1, 0, 2, 2});
  const auto labels = core::compute_labels(c, {1, 2, 2, 3});
  const Label hub = row(labels, 0);
  ASSERT_GE(hub.size(), 2u);
  for (std::size_t i = 0; i + 1 < hub.size(); ++i) {
    EXPECT_LT(hub[i], hub[i + 1]);
  }
}

TEST(LabelOrdering, PrecHistMatchesDefinition31) {
  // (a,b,c) ≺ (a',b',c') iff a<a', or a=a' ∧ b<b', or a=a' ∧ b=b' ∧ c=1.
  EXPECT_LT((LabelTriple{1, 9, true}), (LabelTriple{2, 1, false}));
  EXPECT_LT((LabelTriple{1, 2, true}), (LabelTriple{1, 3, false}));
  EXPECT_LT((LabelTriple{1, 2, false}), (LabelTriple{1, 2, true}));
  EXPECT_EQ(core::format_label({}), "null");
  EXPECT_EQ(core::format_label({{1, 2, false}, {1, 2, true}}), "(1,2,1)(1,2,*)");
}

// ------------------------------------------------------- structural properties

void expect_structural_invariants(const core::ClassifierResult& result, graph::NodeId n) {
  // Lemma 3.4: exit within ceil(n/2) iterations.
  EXPECT_GE(result.iterations, 1u);
  EXPECT_LE(result.iterations, (n + 1u) / 2u);
  // Corollary 3.3: class counts never decrease.
  ClassId previous = 1;
  for (const auto& record : result.records) {
    EXPECT_GE(record.num_classes, previous);
    previous = record.num_classes;
    EXPECT_LE(record.num_classes, n);
  }
  // Observation 3.2: partitions refine (same class later ⇒ same class earlier).
  for (std::size_t j = 1; j < result.records.size(); ++j) {
    const auto& earlier = result.records[j - 1].clazz;
    const auto& later = result.records[j].clazz;
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) {
        if (later[u] == later[v]) {
          EXPECT_EQ(earlier[u], earlier[v]);
        }
      }
    }
  }
  // Representatives live in their class.
  for (const auto& record : result.records) {
    for (ClassId k = 1; k <= record.num_classes; ++k) {
      EXPECT_EQ(record.clazz[record.reps[k - 1]], k);
    }
  }
  // Feasible ⇔ singleton in the final partition.
  const auto& final_record = result.records.back();
  const auto singleton = core::find_singleton(final_record.clazz, final_record.num_classes);
  EXPECT_EQ(result.feasible(), singleton.has_value());
  if (result.feasible()) {
    EXPECT_EQ(result.leader_class, singleton->first);
    EXPECT_EQ(result.leader, singleton->second);
  }
  EXPECT_GT(result.steps, 0u);
}

TEST(Classifier, StructuralInvariantsOnFamilies) {
  expect_structural_invariants(core::Classifier{}.run(config::family_g(4)), 17);
  expect_structural_invariants(core::Classifier{}.run(config::family_h(3)), 4);
  expect_structural_invariants(core::Classifier{}.run(config::family_s(3)), 4);
  expect_structural_invariants(core::Classifier{}.run(config::staggered_path(9)), 9);
}

// ----------------------------------------- differential: fast classifier

void expect_identical_results(const core::ClassifierResult& a, const core::ClassifierResult& b) {
  ASSERT_EQ(a.verdict, b.verdict);
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.leader_class, b.leader_class);
  EXPECT_EQ(a.leader, b.leader);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t j = 0; j < a.records.size(); ++j) {
    EXPECT_EQ(a.records[j].clazz, b.records[j].clazz) << "iteration " << j + 1;
    EXPECT_EQ(a.records[j].num_classes, b.records[j].num_classes);
    EXPECT_EQ(a.records[j].reps, b.records[j].reps);
    EXPECT_EQ(a.records[j].labels, b.records[j].labels);
  }
}

/// Parameterized over RNG seeds: random topology + tags, both classifiers
/// must agree bit-for-bit.
class ClassifierEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierEquivalence, FastMatchesPaperOnRandomConfigurations) {
  support::Rng rng(GetParam());
  for (int repeat = 0; repeat < 8; ++repeat) {
    const auto n = static_cast<graph::NodeId>(2 + rng.below(18));
    const auto sigma = static_cast<config::Tag>(rng.below(4));
    graph::Graph g;
    switch (rng.below(4)) {
      case 0:
        g = graph::path(n);
        break;
      case 1:
        g = n >= 3 ? graph::cycle(n) : graph::path(n);
        break;
      case 2:
        g = graph::random_tree(n, rng);
        break;
      default:
        g = graph::gnp_connected(n, 0.3, rng);
        break;
    }
    const config::Configuration c = config::random_tags(std::move(g), sigma, rng);
    const core::ClassifierResult paper = core::Classifier{}.run(c);
    const core::ClassifierResult fast = core::FastClassifier{}.run(c);
    expect_identical_results(paper, fast);
    expect_structural_invariants(paper, c.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------ exact: the rep-scan reference

/// Runs the production Classifier and the rep-scan reference under both
/// channel models on every configuration it is shown, and counts the runs
/// whose results differ in any field — `steps`, the paper's count that the
/// production Refine computes in closed form, included.
class ReferenceDifferential {
 public:
  void check(const config::Configuration& c) {
    for (const radio::ChannelModel model :
         {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
      const core::ClassifierResult reference = core::classify(c, model, core::Refine::RepScan);
      const core::ClassifierResult production = core::Classifier(model).run(c);
      ++runs_;
      multi_iteration_ += reference.iterations > 1 ? 1 : 0;
      if (production != reference && mismatches_++ == 0) {
        std::ostringstream out;
        out << "model " << static_cast<int>(model) << ": steps " << production.steps;
        out << " vs reference " << reference.steps << " on " << config::to_text_string(c);
        first_mismatch_ = out.str();
      }
    }
  }

  /// Asserts zero mismatches over `expected_runs` runs, `min_multi` of them
  /// taking more than one iteration.
  void expect_clean(std::uint64_t expected_runs, std::uint64_t min_multi) const {
    EXPECT_EQ(mismatches_, 0u) << "first mismatch: " << first_mismatch_;
    EXPECT_EQ(runs_, expected_runs);
    EXPECT_GE(multi_iteration_, min_multi);
  }

 private:
  std::uint64_t runs_ = 0;
  std::uint64_t multi_iteration_ = 0;
  std::uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

TEST(ClassifierReference, ExhaustiveSmallConfigurationsMatchExactly) {
  // Every labelled connected graph on n <= 5 nodes with every tag vector
  // over {0, 1, 2}: 3 + 9 + 108 + 3078 + 176904 configurations.
  ReferenceDifferential differential;
  const auto check = [&](const config::Configuration& c) { differential.check(c); };
  std::uint64_t configurations = 0;
  for (graph::NodeId n = 1; n <= 5; ++n) {
    configurations += testkit::for_each_configuration(n, 2, check);
  }
  EXPECT_EQ(configurations, 180102u);
  differential.expect_clean(2 * configurations, 30000);
}

/// The Partitioner's labels as computed before they were stored flat: one
/// Label per node, a linear scan marking a second transmitter on a slot
/// with a star, the no-CD erase of starred triples, and a sort, charging
/// `steps` one per scanned triple and one per kept triple.
std::vector<Label> per_node_labels(const config::Configuration& c,
                                   const std::vector<ClassId>& clazz, std::uint64_t& steps,
                                   radio::ChannelModel model) {
  std::vector<Label> labels(c.size());
  const auto sigma = static_cast<std::int64_t>(c.span());
  for (graph::NodeId v = 0; v < c.size(); ++v) {
    Label& label = labels[v];
    const auto tv = static_cast<std::int64_t>(c.tag(v));
    for (const graph::NodeId w : c.graph().neighbors(v)) {
      const auto tw = static_cast<std::int64_t>(c.tag(w));
      if (clazz[w] == clazz[v] && tw == tv) {
        continue;
      }
      const auto round = static_cast<std::uint32_t>(sigma + 1 + tw - tv);
      bool fresh = true;
      for (LabelTriple& triple : label) {
        ++steps;
        if (triple.cls == clazz[w] && triple.round == round) {
          triple.star = true;
          fresh = false;
          break;
        }
      }
      if (fresh) {
        label.push_back(LabelTriple{clazz[w], round, false});
      }
    }
    if (model == radio::ChannelModel::NoCollisionDetection) {
      std::erase_if(label, [](const LabelTriple& triple) { return triple.star; });
    }
    std::sort(label.begin(), label.end());
    steps += label.size();
  }
  return labels;
}

TEST(ClassifierReference, LabelTableRowsMatchPerNodeLabels) {
  // compute_labels writes every node's label into one flat table.  On
  // generated configurations — G(n, p) with n <= 64, σ in {0, 1, 3, 200},
  // random partitions into 1..n classes — each row must equal the per-node
  // reference under both channel models, with the same step charge, and
  // the table must hold exactly the rows' triples.
  support::Rng rng(1906);
  std::uint64_t starred = 0;
  std::uint64_t triples = 0;
  for (int i = 0; i < 400; ++i) {
    const auto n = static_cast<graph::NodeId>(1 + rng.below(64));
    const double p = std::array{0.05, 0.1, 0.3, 0.6}[rng.below(4)];
    const auto sigma = std::array<config::Tag, 4>{0, 1, 3, 200}[rng.below(4)];
    graph::Graph g = graph::gnp_connected(n, p, rng);
    const config::Configuration c =
        sigma == 0 || n == 1
            ? config::Configuration(std::move(g), std::vector<config::Tag>(n, 0))
            : config::random_tags_with_span(std::move(g), sigma, rng);
    const auto classes = static_cast<ClassId>(1 + rng.below(n));
    std::vector<ClassId> clazz(n);
    for (ClassId& cls : clazz) {
      cls = static_cast<ClassId>(1 + rng.below(classes));
    }
    for (const radio::ChannelModel model :
         {radio::ChannelModel::CollisionDetection, radio::ChannelModel::NoCollisionDetection}) {
      std::uint64_t reference_steps = 0;
      const std::vector<Label> reference = per_node_labels(c, clazz, reference_steps, model);
      std::uint64_t steps = 0;
      const core::LabelTable table = core::compute_labels(c, clazz, &steps, model);
      std::ostringstream what;
      what << '#' << i << " model " << static_cast<int>(model) << ": "
           << config::to_text_string(c);
      ASSERT_EQ(table.size(), n) << what.str();
      std::size_t total = 0;
      for (graph::NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(row(table, v), reference[v]) << what.str() << " node " << v;
        total += reference[v].size();
        starred += static_cast<std::uint64_t>(
            std::count_if(reference[v].begin(), reference[v].end(),
                          [](const LabelTriple& triple) { return triple.star; }));
      }
      EXPECT_EQ(table.triples.size(), total) << what.str();
      EXPECT_EQ(steps, reference_steps) << what.str();
      triples += total;
    }
  }
  // The comparison is only as strong as the labels it saw.
  EXPECT_GT(starred, 100u);
  EXPECT_GT(triples, 10000u);
}

TEST(ClassifierReference, PaperFamiliesMatchExactly) {
  // G_m elects after m iterations (Proposition 4.1) and S_m stabilizes after
  // two: the multi-iteration paths of the step charge.
  ReferenceDifferential differential;
  std::uint64_t configurations = 0;
  for (config::Tag m = 1; m <= 40; ++m) {
    if (m >= 2) {
      differential.check(config::family_g(m));
      ++configurations;
    }
    differential.check(config::family_h(m));
    differential.check(config::family_s(m));
    differential.check(config::staggered_path(m));
    configurations += 3;
  }
  differential.expect_clean(2 * configurations, 150);
}

TEST(ClassifierReference, RegistryTopologiesMatchExactly) {
  // 50 configurations of every seeded topology kind, the benchmark shapes
  // (n = 256 and n = 1024) included; the σ = 1 variants are where
  // multi-iteration runs come from.
  const char* const workloads[] = {
      "random",
      "random:n=12,p=0.3,sigma=1",
      "grid",
      "grid:rows=3,cols=5,sigma=1",
      "torus",
      "hypercube",
      "hypercube:d=4,sigma=1",
      "tree",
      "single-hop",
      "random:n=256,p=0.03,sigma=200",
      "random:n=1024,p=0.01,sigma=200",
  };
  constexpr std::size_t kConfigurations = 50;
  ReferenceDifferential differential;
  for (const char* text : workloads) {
    const engine::CountedSweep sweep = engine::parse_workload(text).instantiate(
        7, {core::ProtocolSpec::classify_only()}, {.count = kConfigurations});
    for (engine::JobId id = 0; id < sweep.count; ++id) {
      differential.check(sweep.source(id).configuration);
    }
  }
  differential.expect_clean(2 * kConfigurations * std::size(workloads), 200);
}

}  // namespace
