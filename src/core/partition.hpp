#pragma once

/// \file partition.hpp
/// Helpers of the Classifier loop: the label computation from Algorithm 3
/// (Partitioner, lines 1-22) and partition inspection utilities.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "config/configuration.hpp"
#include "core/label.hpp"
#include "graph/graph.hpp"
#include "radio/message.hpp"

namespace arl::core {

/// Computes the label of every node per Algorithm 3 lines 1-22: for each
/// neighbour w of v with (class(w) != class(v) or t_w != t_v), the triple
/// (class(w), σ+1+t_w-t_v, ·) joins v's label, with c = ∗ when two or more
/// neighbours produce the same (a, b).  Labels come out ≺hist-sorted, one
/// row per node, written straight into the table's flat storage.
/// `steps`, when non-null, accumulates the basic-operation count (triple
/// comparisons + sort work) for complexity instrumentation.
///
/// Under ChannelModel::NoCollisionDetection (extension, not in the paper) a
/// slot with two or more transmitters is heard as silence, so such (a, b)
/// slots are dropped from the label instead of being starred — the label is
/// exactly what a no-CD listener can know about the phase.
[[nodiscard]] LabelTable compute_labels(
    const config::Configuration& configuration, const std::vector<ClassId>& clazz,
    std::uint64_t* steps = nullptr,
    radio::ChannelModel model = radio::ChannelModel::CollisionDetection);

/// Number of nodes in each class; index k-1 holds the size of class k.
[[nodiscard]] std::vector<std::uint32_t> class_sizes(const std::vector<ClassId>& clazz,
                                                     ClassId num_classes);

/// Smallest class containing exactly one node, with that node, or nullopt.
[[nodiscard]] std::optional<std::pair<ClassId, graph::NodeId>> find_singleton(
    const std::vector<ClassId>& clazz, ClassId num_classes);

}  // namespace arl::core
