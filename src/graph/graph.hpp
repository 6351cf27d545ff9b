#pragma once

/// \file graph.hpp
/// Simple undirected graph with compact adjacency storage.
///
/// Radio networks in the paper are simple undirected connected graphs; this
/// type stores exactly that.  The one way to build a non-empty graph is
/// `Graph::from_edges`, which counting-sorts an edge list into the CSR arrays
/// and validates simplicity on the way: an endpoint out of range or a self
/// loop is rejected as the edges are counted, and a parallel edge, which
/// lands next to its twin once each neighbour list is sorted, as the lists
/// are checked.  Neighbour lists are sorted, enabling O(log Δ) adjacency
/// queries and deterministic iteration order — determinism matters because
/// `Classifier` fixes "an arbitrary ordering of the vertices" and all our
/// algorithms must replay identically.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace arl::graph {

/// Index of a node in a graph; nodes are 0..n-1.
using NodeId = std::uint32_t;

/// An undirected edge as an (unordered) pair of node ids.
using Edge = std::pair<NodeId, NodeId>;

/// Immutable simple undirected graph.
class Graph {
 public:
  /// Empty graph (0 nodes).
  Graph() = default;

  /// Builds the graph on `nodes` vertices with the given edges, in any order
  /// and orientation.  Requires both endpoints of every edge in range, no
  /// self loop and no edge given twice (as {u, v} or {v, u}).
  static Graph from_edges(NodeId nodes, const std::vector<Edge>& edges);

  /// Number of nodes.
  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Sorted neighbours of `v`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;

  /// Degree of `v`.
  [[nodiscard]] NodeId degree(NodeId v) const;

  /// Maximum degree Δ (0 for the empty graph).
  [[nodiscard]] NodeId max_degree() const;

  /// True if {u, v} is an edge (O(log Δ)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// All edges with u < v, lexicographically sorted.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Structural equality (same node count and edge set).
  friend bool operator==(const Graph& a, const Graph& b) = default;

 private:
  // CSR storage: neighbours of v are neighbors_[offsets_[v] .. offsets_[v+1]).
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> neighbors_;
};

}  // namespace arl::graph
