#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/assert.hpp"

namespace arl::graph {

Graph path(NodeId n) {
  ARL_EXPECTS(n >= 1, "path needs at least one node");
  Graph::Builder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    builder.add_edge(v, v + 1);
  }
  return std::move(builder).build();
}

Graph cycle(NodeId n) {
  ARL_EXPECTS(n >= 3, "cycle needs at least three nodes");
  Graph::Builder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    builder.add_edge(v, v + 1);
  }
  builder.add_edge(n - 1, 0);
  return std::move(builder).build();
}

Graph complete(NodeId n) {
  ARL_EXPECTS(n >= 1, "complete graph needs at least one node");
  Graph::Builder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      builder.add_edge(u, v);
    }
  }
  return std::move(builder).build();
}

Graph star(NodeId n) {
  ARL_EXPECTS(n >= 1, "star needs at least one node");
  Graph::Builder builder(n);
  for (NodeId v = 1; v < n; ++v) {
    builder.add_edge(0, v);
  }
  return std::move(builder).build();
}

Graph complete_bipartite(NodeId a, NodeId b) {
  ARL_EXPECTS(a >= 1 && b >= 1, "both sides must be non-empty");
  Graph::Builder builder(a + b);
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      builder.add_edge(u, a + v);
    }
  }
  return std::move(builder).build();
}

Graph grid(NodeId rows, NodeId cols) {
  ARL_EXPECTS(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  Graph::Builder builder(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        builder.add_edge(id(r, c), id(r, c + 1));
      }
      if (r + 1 < rows) {
        builder.add_edge(id(r, c), id(r + 1, c));
      }
    }
  }
  return std::move(builder).build();
}

Graph torus(NodeId rows, NodeId cols) {
  ARL_EXPECTS(rows >= 3 && cols >= 3, "torus needs dimensions >= 3 to stay simple");
  Graph::Builder builder(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      builder.add_edge(id(r, c), id(r, (c + 1) % cols));
      builder.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(builder).build();
}

Graph hypercube(unsigned d) {
  ARL_EXPECTS(d >= 1 && d <= 20, "hypercube dimension out of range");
  const NodeId n = NodeId{1} << d;
  Graph::Builder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < d; ++bit) {
      const NodeId w = v ^ (NodeId{1} << bit);
      if (v < w) {
        builder.add_edge(v, w);
      }
    }
  }
  return std::move(builder).build();
}

Graph binary_tree(NodeId n) {
  ARL_EXPECTS(n >= 1, "tree needs at least one node");
  Graph::Builder builder(n);
  for (NodeId v = 1; v < n; ++v) {
    builder.add_edge(v, (v - 1) / 2);
  }
  return std::move(builder).build();
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
  Graph::Builder builder(n);
  NodeId ptr = 0;  // smallest current leaf candidate
  while (degree[ptr] != 1) {
    ++ptr;
  }
  NodeId leaf = ptr;
  for (const NodeId v : prufer) {
    builder.add_edge(leaf, v);
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
  builder.add_edge(leaf, last);
  return std::move(builder).build();
}

Graph gnp_connected(NodeId n, double p, support::Rng& rng) {
  ARL_EXPECTS(n >= 1, "graph needs at least one node");
  ARL_EXPECTS(p >= 0.0 && p <= 1.0, "probability out of range");
  Graph::Builder builder(n);
  // The pair loop draws on a local copy of the stream and writes each row's
  // hits into a buffer sized for a full row, adding them to the builder
  // only after the row: with no call inside the loop, the generator state
  // stays in registers instead of going through memory on every draw.  The
  // stream is written back, so the caller sees exactly the draws of one
  // bernoulli(p) per pair.
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
      builder.add_edge(u, *hit);
    }
  }
  rng = local;
  // Stitch components together with uniformly random cross edges so that the
  // sample is always usable as a radio network.
  for (;;) {
    Graph candidate = std::move(builder).build();
    const auto component = components(candidate);
    const NodeId parts = *std::max_element(component.begin(), component.end()) + 1;
    if (parts == 1) {
      return candidate;
    }
    builder = Graph::Builder(n);
    for (const auto& [u, v] : candidate.edges()) {
      builder.add_edge(u, v);
    }
    // Connect component 0 to one random node of every other component.
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
      if (!builder.has_edge(anchor_of[0], anchor_of[part])) {
        builder.add_edge(anchor_of[0], anchor_of[part]);
      }
    }
  }
}

Graph barbell(NodeId k, NodeId bridge) {
  ARL_EXPECTS(k >= 1, "cliques need at least one node");
  ARL_EXPECTS(bridge >= 1, "bridge needs at least one edge");
  const NodeId n = 2 * k + (bridge - 1);
  Graph::Builder builder(n);
  auto clique = [&](NodeId base) {
    for (NodeId u = 0; u < k; ++u) {
      for (NodeId v = u + 1; v < k; ++v) {
        builder.add_edge(base + u, base + v);
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
    builder.add_edge(prev, mid);
    prev = mid;
  }
  builder.add_edge(prev, k + (bridge - 1));
  return std::move(builder).build();
}

Graph caterpillar(NodeId spine, NodeId legs) {
  ARL_EXPECTS(spine >= 1, "caterpillar needs a spine");
  const NodeId n = spine + spine * legs;
  Graph::Builder builder(n);
  for (NodeId s = 0; s + 1 < spine; ++s) {
    builder.add_edge(s, s + 1);
  }
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId leg = 0; leg < legs; ++leg) {
      builder.add_edge(s, spine + s * legs + leg);
    }
  }
  return std::move(builder).build();
}

}  // namespace arl::graph
