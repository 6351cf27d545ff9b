#include "core/classifier.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/partition.hpp"
#include "support/assert.hpp"

namespace arl::core {

std::vector<ClassId> ClassifierResult::classes_after(std::uint32_t j) const {
  if (j == 0) {
    // Init-Aug: every node in class 1.
    const std::size_t n = records.empty() ? 0 : records.front().clazz.size();
    return std::vector<ClassId>(n, 1);
  }
  ARL_EXPECTS(j <= records.size(), "iteration index out of range");
  return records[j - 1].clazz;
}

ClassId ClassifierResult::num_classes_after(std::uint32_t j) const {
  if (j == 0) {
    return 1;
  }
  ARL_EXPECTS(j <= records.size(), "iteration index out of range");
  return records[j - 1].num_classes;
}

namespace {

/// The partition Refine rewrites: the class of every node, and reps[k] the
/// representative of class k (1-based; reps[0] is unused).
struct Partition {
  std::vector<ClassId> clazz;
  std::vector<graph::NodeId> reps;
  ClassId num_classes = 1;

  /// Opens the next class with v as its representative.
  ClassId open(graph::NodeId v) {
    ++num_classes;
    ARL_ASSERT(num_classes <= clazz.size(), "cannot have more classes than nodes");
    reps[num_classes] = v;
    return num_classes;
  }
};

/// Algorithm 2 as the paper writes it: compare each node against every class
/// representative; unmatched nodes open new classes in vertex order.
void refine_rep_scan(const std::vector<Label>& labels, Partition& partition, std::uint64_t& steps) {
  const std::vector<ClassId> old_class = partition.clazz;
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    bool assigned = false;
    for (ClassId k = 1; k <= partition.num_classes; ++k) {
      const graph::NodeId rep = partition.reps[k];
      steps += 1 + std::min(labels[v].size(), labels[rep].size());
      if (old_class[v] == old_class[rep] && labels[v] == labels[rep]) {
        partition.clazz[v] = k;
        assigned = true;
        // The paper's loop keeps scanning; the match is provably unique
        // (distinct old reps have distinct old classes), so breaking is
        // observationally identical and the step counter above already
        // charged the comparison.
      }
    }
    if (!assigned) {
      partition.clazz[v] = partition.open(v);
    }
  }
}

/// A bucket of the hashed Refine: (old class, label), the label by pointer.
struct BucketKey {
  ClassId old_class;
  const Label* label;

  friend bool operator==(const BucketKey& a, const BucketKey& b) {
    return a.old_class == b.old_class && *a.label == *b.label;
  }
};

/// FNV-1a over (old class, label triples).
struct BucketKeyHash {
  std::size_t operator()(const BucketKey& key) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t value) {
      h ^= value;
      h *= 0x100000001b3ULL;
    };
    mix(key.old_class);
    for (const auto& triple : *key.label) {
      mix(triple.cls);
      mix(triple.round);
      mix(triple.star ? 2 : 1);
    }
    return static_cast<std::size_t>(h);
  }
};

/// The representatives' label sizes, as Fenwick trees over [0, max_size] of
/// their count and their sum: enough to charge a node what the rep scan
/// would, Σ_k (1 + min(size, size_k)), without visiting the K classes.
class RepSizes {
 public:
  explicit RepSizes(std::size_t max_size) : count_(max_size + 2, 0), sum_(max_size + 2, 0) {}

  void insert(std::size_t size) {
    for (std::size_t i = size + 1; i < count_.size(); i += lowest_bit(i)) {
      ++count_[i];
      sum_[i] += size;
    }
  }

  /// The rep scan's charge for a label of `size` against the `reps`
  /// inserted sizes: reps + S(≤ size) + size · (reps − C(≤ size)), where C
  /// and S count and sum the sizes up to `size`.
  [[nodiscard]] std::uint64_t charge(std::size_t size, std::uint64_t reps) const {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    for (std::size_t i = size + 1; i > 0; i -= lowest_bit(i)) {
      count += count_[i];
      sum += sum_[i];
    }
    return reps + sum + size * (reps - count);
  }

 private:
  static std::size_t lowest_bit(std::size_t i) { return i & (~i + 1); }

  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> sum_;
};

/// Algorithm 2 through (old class, label) buckets pre-seeded with the old
/// representatives: a node matching rep k's bucket keeps class k, any other
/// opens a new class in vertex order, exactly as the rep scan numbers them.
/// `paper_charge` charges the rep scan's count (Refine::Hashed), otherwise
/// one step per lookup (Refine::HashedPerLookup).
void refine_hashed(const std::vector<Label>& labels, Partition& partition, std::uint64_t& steps,
                   bool paper_charge) {
  std::unordered_map<BucketKey, ClassId, BucketKeyHash> buckets;
  buckets.reserve(labels.size());
  std::size_t max_size = 0;
  for (const Label& label : labels) {
    max_size = std::max(max_size, label.size());
  }
  RepSizes sizes(paper_charge ? max_size : 0);
  for (ClassId k = 1; k <= partition.num_classes; ++k) {
    const Label& label = labels[partition.reps[k]];
    buckets.emplace(BucketKey{k, &label}, k);
    if (paper_charge) {
      sizes.insert(label.size());
    }
  }
  // A node's old class is read only by its own lookup, so the partition is
  // rewritten in place.
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    const BucketKey key{partition.clazz[v], &labels[v]};
    steps += paper_charge ? sizes.charge(labels[v].size(), partition.num_classes) : 1;
    const auto found = buckets.find(key);
    if (found != buckets.end()) {
      partition.clazz[v] = found->second;
    } else {
      partition.clazz[v] = partition.open(v);
      buckets.emplace(key, partition.num_classes);
      if (paper_charge) {
        sizes.insert(labels[v].size());
      }
    }
  }
}

}  // namespace

ClassifierResult classify(const config::Configuration& configuration, radio::ChannelModel model,
                          Refine refine) {
  const graph::NodeId n = configuration.size();
  ClassifierResult result;
  result.model = model;

  // Algorithm 1 (Init-Aug): one class, represented by the first node in the
  // fixed vertex order.
  Partition partition{std::vector<ClassId>(n, 1), std::vector<graph::NodeId>(n + 1, 0), 1};

  const std::uint32_t max_iterations = (n + 1) / 2;  // ceil(n/2)
  for (std::uint32_t iteration = 1; iteration <= max_iterations; ++iteration) {
    const ClassId old_class_count = partition.num_classes;

    // Algorithm 3 (Partitioner), lines 1-22: label every node.
    std::vector<Label> labels =
        compute_labels(configuration, partition.clazz, &result.steps, model);

    // Algorithm 2 (Refine).
    if (refine == Refine::RepScan) {
      refine_rep_scan(labels, partition, result.steps);
    } else {
      refine_hashed(labels, partition, result.steps, refine == Refine::Hashed);
    }

    // Record the iteration for schedule compilation.
    IterationRecord record;
    record.clazz = partition.clazz;
    record.labels = std::move(labels);
    record.reps.assign(partition.reps.begin() + 1,
                       partition.reps.begin() + 1 + partition.num_classes);
    record.num_classes = partition.num_classes;
    result.records.push_back(std::move(record));
    result.iterations = iteration;

    // Algorithm 4 line 5: a singleton class elects its node.
    if (const auto singleton = find_singleton(partition.clazz, partition.num_classes)) {
      result.verdict = Verdict::Feasible;
      result.leader_class = singleton->first;
      result.leader = singleton->second;
      return result;
    }
    // Algorithm 4 line 8: a stable partition can never change again.
    if (partition.num_classes == old_class_count) {
      result.verdict = Verdict::Infeasible;
      return result;
    }
  }

  // Lemma 3.4: one of the two exits always fires within ceil(n/2) iterations.
  ARL_ASSERT(false, "Classifier failed to terminate within ceil(n/2) iterations");
  return result;
}

}  // namespace arl::core
