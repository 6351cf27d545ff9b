#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/assert.hpp"

namespace arl::graph {

Graph path(NodeId n) {
  ARL_EXPECTS(n >= 1, "path needs at least one node");
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.emplace_back(v, v + 1);
  }
  return Graph::from_edges(n, edges);
}

Graph cycle(NodeId n) {
  ARL_EXPECTS(n >= 3, "cycle needs at least three nodes");
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.emplace_back(v, v + 1);
  }
  edges.emplace_back(n - 1, 0);
  return Graph::from_edges(n, edges);
}

Graph complete(NodeId n) {
  ARL_EXPECTS(n >= 1, "complete graph needs at least one node");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph star(NodeId n) {
  ARL_EXPECTS(n >= 1, "star needs at least one node");
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    edges.emplace_back(0, v);
  }
  return Graph::from_edges(n, edges);
}

Graph complete_bipartite(NodeId a, NodeId b) {
  ARL_EXPECTS(a >= 1 && b >= 1, "both sides must be non-empty");
  std::vector<Edge> edges;
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      edges.emplace_back(u, a + v);
    }
  }
  return Graph::from_edges(a + b, edges);
}

Graph grid(NodeId rows, NodeId cols) {
  ARL_EXPECTS(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.emplace_back(id(r, c), id(r, c + 1));
      }
      if (r + 1 < rows) {
        edges.emplace_back(id(r, c), id(r + 1, c));
      }
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph torus(NodeId rows, NodeId cols) {
  ARL_EXPECTS(rows >= 3 && cols >= 3, "torus needs dimensions >= 3 to stay simple");
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph hypercube(unsigned d) {
  ARL_EXPECTS(d >= 1 && d <= 20, "hypercube dimension out of range");
  const NodeId n = NodeId{1} << d;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < d; ++bit) {
      const NodeId w = v ^ (NodeId{1} << bit);
      if (v < w) {
        edges.emplace_back(v, w);
      }
    }
  }
  return Graph::from_edges(n, edges);
}

Graph binary_tree(NodeId n) {
  ARL_EXPECTS(n >= 1, "tree needs at least one node");
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    edges.emplace_back(v, (v - 1) / 2);
  }
  return Graph::from_edges(n, edges);
}

Graph random_tree(NodeId n, support::Rng& rng) {
  ARL_EXPECTS(n >= 1, "tree needs at least one node");
  if (n == 1) {
    return Graph::from_edges(1, {});
  }
  if (n == 2) {
    return Graph::from_edges(2, {{0, 1}});
  }
  // Decode a uniformly random Prüfer sequence of length n-2.
  std::vector<NodeId> prufer(n - 2);
  for (auto& entry : prufer) {
    entry = static_cast<NodeId>(rng.below(n));
  }
  std::vector<NodeId> degree(n, 1);
  for (const NodeId v : prufer) {
    ++degree[v];
  }
  std::vector<Edge> edges;
  NodeId ptr = 0;  // smallest current leaf candidate
  while (degree[ptr] != 1) {
    ++ptr;
  }
  NodeId leaf = ptr;
  for (const NodeId v : prufer) {
    edges.emplace_back(leaf, v);
    if (--degree[v] == 1 && v < ptr) {
      leaf = v;  // v became a leaf smaller than the scan pointer
    } else {
      ++ptr;
      while (degree[ptr] != 1) {
        ++ptr;
      }
      leaf = ptr;
    }
  }
  // The two remaining degree-1 nodes close the tree; one of them is `leaf`.
  NodeId last = n - 1;
  edges.emplace_back(leaf, last);
  return Graph::from_edges(n, edges);
}

Graph gnp_connected(NodeId n, double p, support::Rng& rng) {
  ARL_EXPECTS(n >= 1, "graph needs at least one node");
  ARL_EXPECTS(p >= 0.0 && p <= 1.0, "probability out of range");
  // The pair loop draws on a local copy of the stream and writes each row's
  // hits into a buffer sized for a full row, appending them to the edge
  // list only after the row: with no call inside the loop, the generator
  // state stays in registers instead of going through memory on every draw.
  // The stream is written back, so the caller sees exactly the draws of one
  // bernoulli(p) per pair.  Rows come out in order and each row's hits
  // increase, so `from_edges` finds every neighbour list already sorted.
  std::vector<Edge> edges;
  support::Rng local = rng;
  std::vector<NodeId> hits(n);
  for (NodeId u = 0; u < n; ++u) {
    NodeId* end = hits.data();
    for (NodeId v = u + 1; v < n; ++v) {
      if (local.bernoulli(p)) {
        *end++ = v;
      }
    }
    for (const NodeId* hit = hits.data(); hit != end; ++hit) {
      edges.emplace_back(u, *hit);
    }
  }
  rng = local;
  Graph sample = Graph::from_edges(n, edges);
  const auto component = components(sample);
  const NodeId parts = *std::max_element(component.begin(), component.end()) + 1;
  if (parts == 1) {
    return sample;
  }
  // Stitch the components together with uniformly random cross edges so that
  // the sample is always usable as a radio network: component 0's anchor is
  // joined to one random node of every other component.  Anchors of two
  // different components are never adjacent, so no stitch edge is a parallel
  // edge, and the stitched graph is connected.
  std::vector<NodeId> anchor_of(parts, n);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (const NodeId v : order) {
    if (anchor_of[component[v]] == n) {
      anchor_of[component[v]] = v;
    }
  }
  for (NodeId part = 1; part < parts; ++part) {
    edges.emplace_back(anchor_of[0], anchor_of[part]);
  }
  return Graph::from_edges(n, edges);
}

Graph barbell(NodeId k, NodeId bridge) {
  ARL_EXPECTS(k >= 1, "cliques need at least one node");
  ARL_EXPECTS(bridge >= 1, "bridge needs at least one edge");
  const NodeId n = 2 * k + (bridge - 1);
  std::vector<Edge> edges;
  auto clique = [&](NodeId base) {
    for (NodeId u = 0; u < k; ++u) {
      for (NodeId v = u + 1; v < k; ++v) {
        edges.emplace_back(base + u, base + v);
      }
    }
  };
  clique(0);
  clique(k + (bridge - 1));
  // Path of `bridge` edges from node k-1 through bridge-1 intermediate nodes
  // to the first node of the second clique.
  NodeId prev = k - 1;
  for (NodeId i = 0; i < bridge - 1; ++i) {
    const NodeId mid = k + i;
    edges.emplace_back(prev, mid);
    prev = mid;
  }
  edges.emplace_back(prev, k + (bridge - 1));
  return Graph::from_edges(n, edges);
}

Graph caterpillar(NodeId spine, NodeId legs) {
  ARL_EXPECTS(spine >= 1, "caterpillar needs a spine");
  const NodeId n = spine + spine * legs;
  std::vector<Edge> edges;
  for (NodeId s = 0; s + 1 < spine; ++s) {
    edges.emplace_back(s, s + 1);
  }
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId leg = 0; leg < legs; ++leg) {
      edges.emplace_back(s, spine + s * legs + leg);
    }
  }
  return Graph::from_edges(n, edges);
}

}  // namespace arl::graph
