/// \file test_graph.cpp
/// Unit and property tests for the graph library: construction contracts,
/// generator invariants, algorithms, exhaustive enumeration counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.hpp"
#include "graph/enumeration.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using arl::support::ContractViolation;

// -------------------------------------------------------------- construction

TEST(Graph, FromEdgesRejectsSelfLoops) {
  EXPECT_THROW((void)graph::Graph::from_edges(3, {{1, 1}}), ContractViolation);
}

TEST(Graph, FromEdgesRejectsParallelEdges) {
  EXPECT_THROW((void)graph::Graph::from_edges(3, {{0, 1}, {1, 0}}), ContractViolation);
  // Reversed and far from its twin: the duplicate meets it only once the
  // neighbour lists are sorted.
  EXPECT_THROW((void)graph::Graph::from_edges(4, {{0, 1}, {2, 3}, {1, 0}}), ContractViolation);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  EXPECT_THROW((void)graph::Graph::from_edges(3, {{0, 3}}), ContractViolation);
}

TEST(Graph, FromEdgesMatchesPerNodeSortReference) {
  // The reference is the construction from_edges replaced: one list per
  // node, each sorted, then concatenated.  Edge lists come in random order
  // and orientation, and also in generator order with one extra edge
  // appended at the end, which leaves the rows it touches unsorted (as
  // config::with_random_extra_edge does).
  const auto reference = [](graph::NodeId n, const std::vector<graph::Edge>& edges) {
    std::vector<std::vector<graph::NodeId>> rows(n);
    for (const auto& [u, v] : edges) {
      rows[u].push_back(v);
      rows[v].push_back(u);
    }
    for (auto& row : rows) {
      std::sort(row.begin(), row.end());
    }
    return rows;
  };
  support::Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<graph::NodeId>(1 + rng.below(64));
    std::vector<graph::Edge> edges;
    std::vector<graph::Edge> missing;
    for (graph::NodeId u = 0; u < n; ++u) {
      for (graph::NodeId v = u + 1; v < n; ++v) {
        (rng.bernoulli(0.2) ? edges : missing).emplace_back(u, v);
      }
    }
    if (trial % 2 == 0) {
      rng.shuffle(edges);
      for (auto& edge : edges) {
        if (rng.bernoulli(0.5)) {
          std::swap(edge.first, edge.second);
        }
      }
    } else if (!missing.empty()) {
      edges.push_back(rng.pick(missing));
    }
    const graph::Graph g = graph::Graph::from_edges(n, edges);
    const auto rows = reference(n, edges);
    ASSERT_EQ(g.node_count(), n);
    EXPECT_EQ(g.edge_count(), edges.size());
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      EXPECT_EQ(std::vector<graph::NodeId>(row.begin(), row.end()), rows[v])
          << "trial " << trial << ", node " << v;
    }
  }
}

TEST(Graph, NeighborsAreSortedAndSymmetric) {
  const graph::Graph g = graph::Graph::from_edges(4, {{2, 0}, {3, 0}, {0, 1}});
  const auto around_zero = g.neighbors(0);
  EXPECT_EQ(std::vector<graph::NodeId>(around_zero.begin(), around_zero.end()),
            (std::vector<graph::NodeId>{1, 2, 3}));
  for (graph::NodeId v = 1; v <= 3; ++v) {
    EXPECT_TRUE(g.has_edge(v, 0));
    EXPECT_TRUE(g.has_edge(0, v));
  }
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, EdgesRoundTrip) {
  const std::vector<graph::Edge> edges{{0, 1}, {0, 3}, {1, 2}};
  const graph::Graph g = graph::Graph::from_edges(4, edges);
  EXPECT_EQ(g.edges(), edges);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(Graph, EqualityIsStructural) {
  const graph::Graph a = graph::Graph::from_edges(3, {{0, 1}, {1, 2}});
  const graph::Graph b = graph::Graph::from_edges(3, {{1, 2}, {0, 1}});
  const graph::Graph c = graph::Graph::from_edges(3, {{0, 1}, {0, 2}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------- generators

TEST(Generators, PathShape) {
  const graph::Graph p = graph::path(5);
  EXPECT_EQ(p.node_count(), 5u);
  EXPECT_EQ(p.edge_count(), 4u);
  EXPECT_EQ(p.degree(0), 1u);
  EXPECT_EQ(p.degree(2), 2u);
  EXPECT_EQ(graph::diameter(p), 4u);
}

TEST(Generators, SingleNodePath) {
  const graph::Graph p = graph::path(1);
  EXPECT_EQ(p.node_count(), 1u);
  EXPECT_EQ(p.edge_count(), 0u);
  EXPECT_TRUE(graph::is_connected(p));
}

TEST(Generators, CycleShape) {
  const graph::Graph c = graph::cycle(6);
  EXPECT_EQ(c.edge_count(), 6u);
  for (graph::NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(c.degree(v), 2u);
  }
  EXPECT_EQ(graph::diameter(c), 3u);
}

TEST(Generators, CompleteShape) {
  const graph::Graph k = graph::complete(5);
  EXPECT_EQ(k.edge_count(), 10u);
  EXPECT_EQ(k.max_degree(), 4u);
  EXPECT_EQ(graph::diameter(k), 1u);
}

TEST(Generators, StarShape) {
  const graph::Graph s = graph::star(7);
  EXPECT_EQ(s.edge_count(), 6u);
  EXPECT_EQ(s.degree(0), 6u);
  EXPECT_EQ(s.degree(3), 1u);
  EXPECT_EQ(graph::diameter(s), 2u);
}

TEST(Generators, CompleteBipartiteShape) {
  const graph::Graph kb = graph::complete_bipartite(2, 3);
  EXPECT_EQ(kb.node_count(), 5u);
  EXPECT_EQ(kb.edge_count(), 6u);
  EXPECT_EQ(kb.degree(0), 3u);  // left side
  EXPECT_EQ(kb.degree(2), 2u);  // right side
  EXPECT_FALSE(kb.has_edge(0, 1));
  EXPECT_TRUE(kb.has_edge(0, 2));
}

TEST(Generators, GridShape) {
  const graph::Graph g = graph::grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 2u * 4);  // 17
  EXPECT_EQ(g.degree(0), 2u);                  // corner
  EXPECT_EQ(g.degree(5), 4u);                  // interior
  EXPECT_EQ(graph::diameter(g), 5u);
}

TEST(Generators, TorusIsRegular) {
  const graph::Graph t = graph::torus(3, 4);
  EXPECT_EQ(t.node_count(), 12u);
  for (graph::NodeId v = 0; v < 12; ++v) {
    EXPECT_EQ(t.degree(v), 4u);
  }
  EXPECT_EQ(t.edge_count(), 24u);
}

TEST(Generators, HypercubeShape) {
  const graph::Graph h = graph::hypercube(4);
  EXPECT_EQ(h.node_count(), 16u);
  for (graph::NodeId v = 0; v < 16; ++v) {
    EXPECT_EQ(h.degree(v), 4u);
  }
  EXPECT_EQ(graph::diameter(h), 4u);
}

TEST(Generators, BinaryTreeShape) {
  const graph::Graph t = graph::binary_tree(7);
  EXPECT_EQ(t.edge_count(), 6u);
  EXPECT_TRUE(graph::is_connected(t));
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 3u);
  EXPECT_EQ(t.degree(6), 1u);
}

TEST(Generators, RandomTreeIsATree) {
  support::Rng rng(2024);
  for (graph::NodeId n : {1u, 2u, 3u, 8u, 25u, 60u}) {
    const graph::Graph t = graph::random_tree(n, rng);
    EXPECT_EQ(t.node_count(), n);
    EXPECT_EQ(t.edge_count(), static_cast<std::size_t>(n) - 1);
    EXPECT_TRUE(graph::is_connected(t));
  }
}

TEST(Generators, RandomTreesVary) {
  support::Rng rng(7);
  std::set<std::vector<graph::Edge>> shapes;
  for (int i = 0; i < 20; ++i) {
    shapes.insert(graph::random_tree(8, rng).edges());
  }
  EXPECT_GT(shapes.size(), 5u);
}

TEST(Generators, GnpConnectedIsAlwaysConnected) {
  support::Rng rng(99);
  for (const double p : {0.0, 0.05, 0.3, 0.9}) {
    for (int repeat = 0; repeat < 5; ++repeat) {
      const graph::Graph g = graph::gnp_connected(20, p, rng);
      EXPECT_EQ(g.node_count(), 20u);
      EXPECT_TRUE(graph::is_connected(g));
    }
  }
}

TEST(Generators, GnpDensityScalesWithP) {
  support::Rng rng(5);
  const graph::Graph sparse = graph::gnp_connected(40, 0.05, rng);
  const graph::Graph dense = graph::gnp_connected(40, 0.6, rng);
  EXPECT_LT(sparse.edge_count(), dense.edge_count());
}

TEST(Generators, BarbellShape) {
  const graph::Graph b = graph::barbell(4, 3);
  // Two K_4 (12 edges) + a 3-edge bridge with 2 intermediate nodes.
  EXPECT_EQ(b.node_count(), 10u);
  EXPECT_EQ(b.edge_count(), 12u + 3u);
  EXPECT_TRUE(graph::is_connected(b));
  EXPECT_EQ(b.max_degree(), 4u);
}

TEST(Generators, CaterpillarShape) {
  const graph::Graph c = graph::caterpillar(4, 2);
  EXPECT_EQ(c.node_count(), 12u);
  EXPECT_EQ(c.edge_count(), 11u);  // it is a tree
  EXPECT_TRUE(graph::is_connected(c));
}

// ---------------------------------------------------------------- algorithms

TEST(Algorithms, BfsDistancesOnPath) {
  const graph::Graph p = graph::path(5);
  const auto d = graph::bfs_distances(p, 0);
  EXPECT_EQ(d, (std::vector<graph::NodeId>{0, 1, 2, 3, 4}));
}

TEST(Algorithms, ComponentsSplitDisconnected) {
  const graph::Graph g = graph::Graph::from_edges(5, {{0, 1}, {2, 3}});
  const auto comp = graph::components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
  EXPECT_FALSE(graph::is_connected(g));
}

TEST(Algorithms, EmptyGraphIsNotConnected) {
  const graph::Graph g;
  EXPECT_FALSE(graph::is_connected(g));
}

TEST(Algorithms, DiameterRequiresConnectivity) {
  const graph::Graph g = graph::Graph::from_edges(4, {{0, 1}});
  EXPECT_THROW((void)graph::diameter(g), ContractViolation);
}

// --------------------------------------------------------------- enumeration

TEST(Enumeration, CountsMatchOeisA001187) {
  for (graph::NodeId n = 1; n <= 5; ++n) {
    std::uint64_t visited = graph::for_each_connected_graph(n, [](const graph::Graph&) {});
    EXPECT_EQ(visited, graph::connected_graph_count(n)) << "n=" << n;
  }
}

TEST(Enumeration, VisitedGraphsAreConnectedAndSized) {
  graph::for_each_connected_graph(4, [](const graph::Graph& g) {
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_TRUE(graph::is_connected(g));
  });
}

TEST(Enumeration, RejectsOversizedN) {
  EXPECT_THROW(graph::for_each_connected_graph(8, [](const graph::Graph&) {}),
               ContractViolation);
}

}  // namespace
