#include "graph/graph.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "support/assert.hpp"

namespace arl::graph {

Graph Graph::from_edges(NodeId nodes, const std::vector<Edge>& edges) {
  Graph graph;
  // Counting sort.  Each degree is counted two slots to the right of its
  // node, so after the prefix sum offsets[v + 1] is where row v starts; it
  // is row v's write cursor while the edges are placed, and ends where row
  // v + 1 starts — the CSR offset.  The spare last slot is dropped after.
  std::vector<std::size_t>& offsets = graph.offsets_;
  offsets.assign(std::size_t{nodes} + 2, 0);
  for (const auto& [u, v] : edges) {
    ARL_EXPECTS(u < nodes && v < nodes, "edge endpoint out of range");
    ARL_EXPECTS(u != v, "self loops are not allowed in a simple graph");
    ++offsets[std::size_t{u} + 2];
    ++offsets[std::size_t{v} + 2];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<NodeId>& neighbors = graph.neighbors_;
  neighbors.resize(offsets.back());
  for (const auto& [u, v] : edges) {
    neighbors[offsets[std::size_t{u} + 1]++] = v;
    neighbors[offsets[std::size_t{v} + 1]++] = u;
  }
  offsets.pop_back();
  // A row that is strictly increasing is sorted and free of parallel edges;
  // only a row that is not gets sorted, which puts a parallel edge next to
  // its twin.
  for (NodeId v = 0; v < nodes; ++v) {
    const auto begin = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
    const auto end = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
    if (std::adjacent_find(begin, end, std::greater_equal<>()) != end) {
      std::sort(begin, end);
      ARL_EXPECTS(std::adjacent_find(begin, end) == end,
                  "parallel edges are not allowed in a simple graph");
    }
  }
  return graph;
}

std::span<const NodeId> Graph::neighbors(NodeId v) const {
  ARL_EXPECTS(v < node_count(), "node out of range");
  return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

NodeId Graph::degree(NodeId v) const {
  ARL_EXPECTS(v < node_count(), "node out of range");
  return static_cast<NodeId>(offsets_[v + 1] - offsets_[v]);
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < node_count(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto span = neighbors(u);
  ARL_EXPECTS(v < node_count(), "node out of range");
  return std::binary_search(span.begin(), span.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> result;
  result.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) {
        result.emplace_back(u, v);
      }
    }
  }
  return result;
}

}  // namespace arl::graph
