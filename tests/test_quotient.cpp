/// \file test_quotient.cpp
/// Symmetry-quotient analysis: orbits of indistinguishable nodes and the
/// quotient graph over them.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "config/families.hpp"
#include "config/io.hpp"
#include "core/quotient.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;

TEST(Quotient, FamilySHasTwoPairedOrbits) {
  // S_2 stabilizes at {a,d} and {b,c}: two orbits of two, no singleton.
  const core::SymmetryReport report = core::analyze_symmetry(config::family_s(2));
  ASSERT_EQ(report.orbits.size(), 2u);
  EXPECT_EQ(report.orbits[0].members, (std::vector<graph::NodeId>{0, 3}));
  EXPECT_EQ(report.orbits[1].members, (std::vector<graph::NodeId>{1, 2}));
  EXPECT_FALSE(report.feasible());
  EXPECT_TRUE(report.singleton_orbits.empty());
  // Quotient: the two orbits are adjacent (a-b and c-d edges collapse).
  EXPECT_EQ(report.quotient.node_count(), 2u);
  EXPECT_TRUE(report.quotient.has_edge(0, 1));
}

TEST(Quotient, FamilyHIsFullyAsymmetric) {
  const core::SymmetryReport report = core::analyze_symmetry(config::family_h(2));
  EXPECT_EQ(report.orbits.size(), 4u);
  EXPECT_EQ(report.singleton_orbits.size(), 4u);
  EXPECT_TRUE(report.feasible());
  // The quotient of a fully asymmetric configuration is the graph itself.
  EXPECT_EQ(report.quotient.node_count(), 4u);
  EXPECT_EQ(report.quotient.edge_count(), 3u);
}

TEST(Quotient, FamilyGMirrorOrbits) {
  // G_m's stable partition pairs every node with its mirror image except the
  // centre — the palindromic structure of Proposition 4.1.
  const config::Tag m = 3;
  const core::SymmetryReport report = core::analyze_symmetry(config::family_g(m));
  const graph::NodeId n = 4 * m + 1;
  ASSERT_TRUE(report.feasible());
  EXPECT_EQ(report.singleton_orbits.size(), 1u);
  const core::Orbit& centre = report.orbits[report.singleton_orbits.front()];
  EXPECT_EQ(centre.members, (std::vector<graph::NodeId>{config::family_g_center(m)}));
  for (const core::Orbit& orbit : report.orbits) {
    if (orbit.members.size() == 2) {
      EXPECT_EQ(orbit.members[0] + orbit.members[1], n - 1)  // mirror pair
          << orbit.members[0] << "," << orbit.members[1];
    }
  }
  // Quotient of a palindromic path is a path of half the length.
  EXPECT_EQ(report.quotient.node_count(), 2 * m + 1);
}

TEST(Quotient, StaggeredPathInteriorMergesAcrossTags) {
  // The documented subtlety: one orbit can span nodes with different tags.
  const core::SymmetryReport report = core::analyze_symmetry(config::staggered_path(6));
  bool found_mixed_tag_orbit = false;
  const config::Configuration c = config::staggered_path(6);
  for (const core::Orbit& orbit : report.orbits) {
    if (orbit.members.size() >= 2) {
      for (std::size_t i = 1; i < orbit.members.size(); ++i) {
        if (c.tag(orbit.members[i]) != c.tag(orbit.members[0])) {
          found_mixed_tag_orbit = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_mixed_tag_orbit);
  EXPECT_TRUE(report.feasible());
}

TEST(Quotient, VertexTransitiveEqualTagsCollapseToAPoint) {
  const config::Configuration c(graph::cycle(8), std::vector<config::Tag>(8, 0));
  const core::SymmetryReport report = core::analyze_symmetry(c);
  EXPECT_EQ(report.orbits.size(), 1u);
  EXPECT_EQ(report.orbits[0].members.size(), 8u);
  EXPECT_EQ(report.quotient.node_count(), 1u);
  EXPECT_EQ(report.quotient.edge_count(), 0u);
  EXPECT_FALSE(report.feasible());
}

TEST(Quotient, OrbitsPartitionTheNodeSet) {
  support::Rng rng(22);
  for (int repeat = 0; repeat < 10; ++repeat) {
    const auto n = static_cast<graph::NodeId>(2 + rng.below(14));
    const config::Configuration c =
        config::random_tags(graph::gnp_connected(n, 0.35, rng), 2, rng);
    const core::SymmetryReport report = core::analyze_symmetry(c);
    std::vector<bool> seen(n, false);
    for (const core::Orbit& orbit : report.orbits) {
      for (const graph::NodeId v : orbit.members) {
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      EXPECT_TRUE(seen[v]);
    }
    EXPECT_LE(report.quotient.node_count(), n);
  }
}

TEST(Quotient, EdgesAreTheDistinctClassPairs) {
  // Shapes where many graph edges fall on one class pair: a single-hop
  // network with two tag values, cycles with tags in {0, 1} (alternating
  // tags put every edge on one pair), and G(n,p) with sigma in {0, 1}.
  support::Rng rng(18);
  std::vector<config::Configuration> configurations;
  for (graph::NodeId n = 2; n <= 12; ++n) {
    std::vector<config::Tag> tags(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      tags[v] = v % 2;
    }
    configurations.push_back(config::single_hop(tags));
    if (n >= 3) {
      configurations.emplace_back(graph::cycle(n), tags);
      configurations.push_back(config::random_tags(graph::cycle(n), 1, rng));
    }
    for (const config::Tag sigma : {config::Tag{0}, config::Tag{1}}) {
      configurations.push_back(
          config::random_tags_with_span(graph::gnp_connected(n, 0.4, rng), sigma, rng));
    }
  }
  for (const config::Configuration& c : configurations) {
    const core::SymmetryReport report = core::analyze_symmetry(c);
    std::vector<graph::NodeId> orbit_of(c.size());
    for (std::size_t index = 0; index < report.orbits.size(); ++index) {
      for (const graph::NodeId v : report.orbits[index].members) {
        orbit_of[v] = static_cast<graph::NodeId>(index);
      }
    }
    std::set<graph::Edge> pairs;
    for (const auto& [u, v] : c.graph().edges()) {
      if (orbit_of[u] != orbit_of[v]) {
        pairs.emplace(std::min(orbit_of[u], orbit_of[v]), std::max(orbit_of[u], orbit_of[v]));
      }
    }
    EXPECT_EQ(report.quotient.node_count(), report.orbits.size());
    EXPECT_EQ(report.quotient.edges(), std::vector<graph::Edge>(pairs.begin(), pairs.end()))
        << config::to_text_string(c);
  }
}

}  // namespace
