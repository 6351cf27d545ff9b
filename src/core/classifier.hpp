#pragma once

/// \file classifier.hpp
/// The centralized feasibility decision algorithm (paper §3.1, Algorithms
/// 1-4) and its result record.
///
/// `Classifier::run` decides whether a configuration is feasible — whether
/// any deterministic distributed algorithm can elect a leader on it.  The
/// paper's formulation takes O(n³Δ) time (Lemma 3.5, Theorem 3.17); the run
/// records every iteration's partition, labels and class representatives,
/// and those records are exactly the list sequence L_j from which the
/// canonical DRIP (§3.3.1) is compiled, so a "Yes" answer doubles as a
/// constructive leader election algorithm.
///
/// One loop (`classify`) runs Algorithm 4 for every classifier; only
/// Algorithm 2 (Refine) varies.  Production refines through hashed
/// (old class, label) buckets, one open-addressing array per run; the
/// paper's rep scan is kept as the reference the hashed form is tested
/// against.

#include <cstdint>
#include <vector>

#include "config/configuration.hpp"
#include "core/label.hpp"
#include "graph/graph.hpp"
#include "radio/message.hpp"

namespace arl::core {

/// Decision outcome.
enum class Verdict : std::uint8_t {
  Feasible,    ///< Classifier output "Yes": leader election is possible
  Infeasible,  ///< Classifier output "No": the partition stabilized without a singleton
};

/// Snapshot of the augmented configuration after one Partitioner iteration.
struct IterationRecord {
  /// Class of each node at the end of this iteration (the paper's
  /// vCLASS,j+1 when this is iteration j).
  std::vector<ClassId> clazz;

  /// Label assigned to each node during this iteration (the paper's vLBL),
  /// one row per node.
  LabelTable labels;

  /// reps[k-1] = representative node of class k at the end of the iteration.
  std::vector<graph::NodeId> reps;

  /// Number of classes at the end of the iteration.
  ClassId num_classes = 0;

  friend bool operator==(const IterationRecord& a, const IterationRecord& b) = default;
};

/// Full result of a Classifier run.
struct ClassifierResult {
  Verdict verdict = Verdict::Infeasible;

  /// Channel model the run assumed (labels depend on it).
  radio::ChannelModel model = radio::ChannelModel::CollisionDetection;

  /// Number of Partitioner iterations executed (the paper's exit iteration;
  /// always in [1, ceil(n/2)] by Lemma 3.4).
  std::uint32_t iterations = 0;

  /// records[j-1] describes the state after iteration j.
  std::vector<IterationRecord> records;

  /// When feasible: the smallest singleton class m̂ at the exit iteration...
  ClassId leader_class = 0;

  /// ...and the unique node in it (the elected leader of the canonical DRIP).
  graph::NodeId leader = 0;

  /// Basic-operation counter of the paper's formulation — label
  /// construction plus the rep-scan Refine's label comparisons — for
  /// validating the O(n³Δ) bound of Lemma 3.5.  `Classifier` computes the
  /// rep scan's count without performing its comparisons (see
  /// Refine::Hashed); `FastClassifier` charges one step per bucket lookup
  /// instead.
  std::uint64_t steps = 0;

  friend bool operator==(const ClassifierResult& a, const ClassifierResult& b) = default;

  [[nodiscard]] bool feasible() const { return verdict == Verdict::Feasible; }

  /// Classes at the end of iteration j (j >= 1); j = 0 gives the initial
  /// all-ones partition.
  [[nodiscard]] std::vector<ClassId> classes_after(std::uint32_t j) const;

  /// Number of classes at the end of iteration j (j = 0 → 1).
  [[nodiscard]] ClassId num_classes_after(std::uint32_t j) const;

  /// Class of node v at the end of iteration j (j = 0 → 1), without
  /// copying the partition.
  [[nodiscard]] ClassId class_after(std::uint32_t j, graph::NodeId v) const;
};

/// How Algorithm 2 (Refine) sorts nodes into classes, and what it charges
/// to ClassifierResult::steps.  All three give the same partitions, class
/// numbering, representatives, labels, iterations and verdict.
enum class Refine : std::uint8_t {
  /// Buckets keyed by (old class, label), pre-seeded with the old
  /// representatives so surviving classes keep their numbers and new ones
  /// open in vertex order, as in the paper.  Charged the rep scan's exact
  /// count in closed form: node v against K classes costs
  /// Σ_k (1 + min(|L_v|, |L_rep_k|)), one Fenwick-tree query over the
  /// representatives' label sizes.  `Classifier` runs this.
  Hashed,
  /// The same buckets, charged one step per lookup.  `FastClassifier`
  /// runs this.
  HashedPerLookup,
  /// The paper's scan of every node against every class representative,
  /// performing each comparison it charges: O(n²Δ) per iteration.  The
  /// reference the hashed forms are checked against (test_classifier,
  /// bench_refine), the way the scalar simulator loop is the event engine's.
  RepScan,
};

/// Algorithm 4: Init-Aug (Algorithm 1), then Partitioner iterations
/// (Algorithm 3) refined by `refine`, until a singleton class elects its node
/// or the partition stops changing.  The one loop behind every classifier.
[[nodiscard]] ClassifierResult classify(const config::Configuration& configuration,
                                        radio::ChannelModel model, Refine refine);

/// Algorithms 1-4 with hashed refinement; `steps` is the paper's rep-scan
/// count, computed without performing its comparisons (Refine::Hashed).
class Classifier {
 public:
  /// The paper's model has collision detection; NoCollisionDetection is the
  /// weaker-feedback extension (see ChannelModel) under which collided
  /// slots carry no information.
  explicit Classifier(radio::ChannelModel model = radio::ChannelModel::CollisionDetection)
      : model_(model) {}

  /// Runs Classifier on `configuration` (Algorithm 4).
  [[nodiscard]] ClassifierResult run(const config::Configuration& configuration) const {
    return classify(configuration, model_, Refine::Hashed);
  }

  /// The channel model the classification assumes.
  [[nodiscard]] radio::ChannelModel model() const { return model_; }

 private:
  radio::ChannelModel model_;
};

}  // namespace arl::core
