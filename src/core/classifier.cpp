#include "core/classifier.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>

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

ClassId ClassifierResult::class_after(std::uint32_t j, graph::NodeId v) const {
  if (j == 0) {
    return 1;
  }
  ARL_EXPECTS(j <= records.size(), "iteration index out of range");
  return records[j - 1].clazz[v];
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
void refine_rep_scan(const LabelTable& labels, Partition& partition, std::uint64_t& steps) {
  const std::vector<ClassId> old_class = partition.clazz;
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    bool assigned = false;
    for (ClassId k = 1; k <= partition.num_classes; ++k) {
      const graph::NodeId rep = partition.reps[k];
      steps += 1 + std::min(labels[v].size(), labels[rep].size());
      if (old_class[v] == old_class[rep] && std::ranges::equal(labels[v], labels[rep])) {
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

/// FNV-1a over (old class, label triples).
std::uint64_t bucket_hash(ClassId old_class, std::span<const LabelTriple> label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t value) {
    h ^= value;
    h *= 0x100000001b3ULL;
  };
  mix(old_class);
  for (const auto& triple : label) {
    mix(triple.cls);
    mix(triple.round);
    mix(triple.star ? 2 : 1);
  }
  return h;
}

/// The (old class, label) buckets of the hashed Refine in one open-addressing
/// array with linear probing.  A slot holds its key's hash, its old class
/// (the partition is rewritten in place, so it cannot be read back) and the
/// node whose label row is the key.  There are at most n buckets (one per
/// class), so the array, at least 2n slots, stays at most half full.
class BucketTable {
 public:
  explicit BucketTable(std::size_t nodes) : slots_(std::bit_ceil(2 * nodes + 2)) {}

  /// Empties every slot.
  void clear() { std::fill(slots_.begin(), slots_.end(), Slot{}); }

  /// The class of the bucket (old_class, labels[node]), by reference.  It
  /// reads 0 when the bucket is new: the slot is then keyed by node's row,
  /// and the caller sets the class.
  ClassId& class_of(const LabelTable& labels, ClassId old_class, graph::NodeId node) {
    const std::span<const LabelTriple> label = labels[node];
    const std::uint64_t hash = bucket_hash(old_class, label);
    const auto check = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.cls == 0) {
        slot = Slot{check, old_class, 0, node};
        return slot.cls;
      }
      if (slot.check == check && slot.old_class == old_class &&
          std::ranges::equal(labels[slot.node], label)) {
        return slot.cls;
      }
    }
  }

 private:
  struct Slot {
    std::uint32_t check = 0;  ///< the high half of the key's hash
    ClassId old_class = 0;
    ClassId cls = 0;          ///< 0: empty
    graph::NodeId node = 0;   ///< the node whose label row is the key
  };

  std::vector<Slot> slots_;
};

/// The representatives' label sizes, as Fenwick trees over [0, max_size] of
/// their count and their sum: enough to charge a node what the rep scan
/// would, Σ_k (1 + min(size, size_k)), without visiting the K classes.
class RepSizes {
 public:
  /// Empties the trees for sizes in [0, max_size], keeping their capacity.
  void reset(std::size_t max_size) {
    count_.assign(max_size + 2, 0);
    sum_.assign(max_size + 2, 0);
  }

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
/// one step per lookup (Refine::HashedPerLookup).  The bucket array and the
/// Fenwick trees are allocated once per classify() call.
class HashedRefine {
 public:
  HashedRefine(std::size_t nodes, bool paper_charge)
      : buckets_(nodes), paper_charge_(paper_charge) {}

  void operator()(const LabelTable& labels, Partition& partition, std::uint64_t& steps) {
    buckets_.clear();
    if (paper_charge_) {
      std::size_t max_size = 0;
      for (std::size_t v = 0; v < labels.size(); ++v) {
        max_size = std::max(max_size, labels[v].size());
      }
      sizes_.reset(max_size);
    }
    for (ClassId k = 1; k <= partition.num_classes; ++k) {
      const graph::NodeId rep = partition.reps[k];
      buckets_.class_of(labels, k, rep) = k;
      if (paper_charge_) {
        sizes_.insert(labels[rep].size());
      }
    }
    // A node's old class is read only by its own lookup (a bucket keeps its
    // key's old class), so the partition is rewritten in place.
    for (graph::NodeId v = 0; v < labels.size(); ++v) {
      steps += paper_charge_ ? sizes_.charge(labels[v].size(), partition.num_classes) : 1;
      ClassId& cls = buckets_.class_of(labels, partition.clazz[v], v);
      if (cls == 0) {
        cls = partition.open(v);
        if (paper_charge_) {
          sizes_.insert(labels[v].size());
        }
      }
      partition.clazz[v] = cls;
    }
  }

 private:
  BucketTable buckets_;
  RepSizes sizes_;
  bool paper_charge_;
};

}  // namespace

ClassifierResult classify(const config::Configuration& configuration, radio::ChannelModel model,
                          Refine refine) {
  const graph::NodeId n = configuration.size();
  ClassifierResult result;
  result.model = model;

  // Algorithm 1 (Init-Aug): one class, represented by the first node in the
  // fixed vertex order.
  Partition partition{std::vector<ClassId>(n, 1), std::vector<graph::NodeId>(n + 1, 0), 1};
  std::optional<HashedRefine> hashed;
  if (refine != Refine::RepScan) {
    hashed.emplace(n, refine == Refine::Hashed);
  }

  const std::uint32_t max_iterations = (n + 1) / 2;  // ceil(n/2)
  for (std::uint32_t iteration = 1; iteration <= max_iterations; ++iteration) {
    const ClassId old_class_count = partition.num_classes;

    // Algorithm 3 (Partitioner), lines 1-22: label every node.
    LabelTable labels = compute_labels(configuration, partition.clazz, &result.steps, model);

    // Algorithm 2 (Refine).
    if (hashed) {
      (*hashed)(labels, partition, result.steps);
    } else {
      refine_rep_scan(labels, partition, result.steps);
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
