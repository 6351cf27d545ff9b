#include "core/partition.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace arl::core {

LabelTable compute_labels(const config::Configuration& configuration,
                          const std::vector<ClassId>& clazz, std::uint64_t* steps,
                          radio::ChannelModel model) {
  const graph::Graph& graph = configuration.graph();
  const graph::NodeId n = graph.node_count();
  ARL_EXPECTS(clazz.size() == n, "one class per node required");
  const config::Tag sigma = configuration.span();
  const std::vector<config::Tag>& tags = configuration.tags();

  std::uint64_t ops = 0;
  LabelTable labels;
  labels.reset(n, 2 * graph.edge_count());  // at most one triple per neighbour
  std::vector<LabelTriple>& triples = labels.triples;
  for (graph::NodeId v = 0; v < n; ++v) {
    // v's row is the tail triples[row ..], built in place.
    const auto row = static_cast<std::ptrdiff_t>(triples.size());
    const auto tv = static_cast<std::int64_t>(tags[v]);
    for (const graph::NodeId w : graph.neighbors(v)) {
      const auto tw = static_cast<std::int64_t>(tags[w]);
      if (clazz[w] == clazz[v] && tw == tv) {
        // v and w would transmit simultaneously: v neither receives w's
        // transmission nor detects a collision from it (Algorithm 3 line 4).
        continue;
      }
      const auto round = static_cast<std::uint32_t>(sigma + 1 + tw - tv);
      bool fresh = true;
      for (auto triple = triples.begin() + row; triple != triples.end(); ++triple) {
        ++ops;
        if (triple->cls == clazz[w] && triple->round == round) {
          triple->star = true;  // second transmitter on the same slot → (∗)
          fresh = false;
          break;
        }
      }
      if (fresh) {
        triples.push_back(LabelTriple{clazz[w], round, false});
      }
    }
    if (model == radio::ChannelModel::NoCollisionDetection) {
      // Collided slots read as silence: erase the starred triples.
      triples.erase(std::remove_if(triples.begin() + row, triples.end(),
                                   [](const LabelTriple& triple) { return triple.star; }),
                    triples.end());
    }
    std::sort(triples.begin() + row, triples.end());
    ops += triples.size() - static_cast<std::size_t>(row);
    labels.end_row();
  }
  if (steps != nullptr) {
    *steps += ops;
  }
  return labels;
}

std::vector<std::uint32_t> class_sizes(const std::vector<ClassId>& clazz, ClassId num_classes) {
  std::vector<std::uint32_t> sizes(num_classes, 0);
  for (const ClassId c : clazz) {
    ARL_EXPECTS(c >= 1 && c <= num_classes, "class id out of range");
    ++sizes[c - 1];
  }
  return sizes;
}

std::optional<std::pair<ClassId, graph::NodeId>> find_singleton(const std::vector<ClassId>& clazz,
                                                                ClassId num_classes) {
  const auto sizes = class_sizes(clazz, num_classes);
  for (ClassId k = 1; k <= num_classes; ++k) {
    if (sizes[k - 1] == 1) {
      for (std::size_t v = 0; v < clazz.size(); ++v) {
        if (clazz[v] == k) {
          return std::make_pair(k, static_cast<graph::NodeId>(v));
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace arl::core
