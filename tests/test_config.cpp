/// \file test_config.cpp
/// Unit tests for configurations: validation, span/normalization, the §4
/// families, random configurations, serialization.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "config/configuration.hpp"
#include "config/families.hpp"
#include "config/fingerprint.hpp"
#include "config/io.hpp"
#include "config/mutations.hpp"
#include "graph/generators.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace {

using namespace arl;
using arl::support::ContractViolation;

// ---------------------------------------------------------------- validation

TEST(Configuration, RejectsDisconnectedGraphs) {
  const graph::Graph g = graph::Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(config::Configuration(g, {0, 0, 0, 0}), ContractViolation);
}

TEST(Configuration, RejectsTagCountMismatch) {
  EXPECT_THROW(config::Configuration(graph::path(3), {0, 1}), ContractViolation);
}

TEST(Configuration, RejectsEmptyGraph) {
  EXPECT_THROW(config::Configuration(graph::Graph{}, {}), ContractViolation);
}

TEST(Configuration, SingleNodeIsValid) {
  const config::Configuration c(graph::path(1), {5});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.span(), 0u);
}

// --------------------------------------------------------- span and normalize

TEST(Configuration, SpanIsMaxMinusMin) {
  const config::Configuration c(graph::path(4), {3, 7, 5, 3});
  EXPECT_EQ(c.span(), 4u);
  EXPECT_EQ(c.min_tag(), 3u);
  EXPECT_FALSE(c.is_normalized());
}

TEST(Configuration, NormalizeShiftsToZero) {
  const config::Configuration c(graph::path(3), {4, 6, 9});
  const config::Configuration n = c.normalized();
  EXPECT_EQ(n.tags(), (std::vector<config::Tag>{0, 2, 5}));
  EXPECT_EQ(n.span(), c.span());
  EXPECT_TRUE(n.is_normalized());
  EXPECT_EQ(n.graph(), c.graph());
}

TEST(Configuration, NormalizeIsIdempotent) {
  const config::Configuration c(graph::path(3), {0, 2, 1});
  EXPECT_EQ(c.normalized(), c);
}

// ------------------------------------------------------------------ families

TEST(Families, FamilyGLayout) {
  // G_2: a1 a2 | b1..b5 | c2 c1 — n = 9, tags 0 0 1 1 1 1 1 0 0.
  const config::Configuration g2 = config::family_g(2);
  EXPECT_EQ(g2.size(), 9u);
  EXPECT_EQ(g2.span(), 1u);
  EXPECT_EQ(g2.tags(), (std::vector<config::Tag>{0, 0, 1, 1, 1, 1, 1, 0, 0}));
  EXPECT_EQ(config::family_g_center(2), 4u);  // b_3 sits in the middle
  EXPECT_EQ(g2.graph(), graph::path(9));
}

TEST(Families, FamilyGRequiresMAtLeastTwo) {
  EXPECT_THROW(config::family_g(1), ContractViolation);
}

TEST(Families, FamilyHLayout) {
  const config::Configuration h4 = config::family_h(4);
  EXPECT_EQ(h4.size(), 4u);
  EXPECT_EQ(h4.tags(), (std::vector<config::Tag>{4, 0, 0, 5}));
  EXPECT_EQ(h4.span(), 5u);
}

TEST(Families, FamilySLayout) {
  const config::Configuration s4 = config::family_s(4);
  EXPECT_EQ(s4.tags(), (std::vector<config::Tag>{4, 0, 0, 4}));
  EXPECT_EQ(s4.span(), 4u);
}

TEST(Families, SingleHopIsComplete) {
  const config::Configuration sh = config::single_hop({0, 1, 2, 3});
  EXPECT_EQ(sh.graph(), graph::complete(4));
  EXPECT_EQ(sh.span(), 3u);
}

TEST(Families, StaggeredPathTags) {
  const config::Configuration sp = config::staggered_path(5);
  EXPECT_EQ(sp.tags(), (std::vector<config::Tag>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sp.span(), 4u);
}

TEST(Families, RandomTagsAreNormalizedAndBounded) {
  support::Rng rng(42);
  for (int repeat = 0; repeat < 10; ++repeat) {
    const config::Configuration c = config::random_tags(graph::cycle(12), 5, rng);
    EXPECT_TRUE(c.is_normalized());
    EXPECT_LE(c.span(), 5u);
  }
}

TEST(Families, RandomTagsWithExactSpan) {
  support::Rng rng(43);
  for (const config::Tag span : {0u, 1u, 3u, 9u}) {
    const config::Configuration c =
        config::random_tags_with_span(graph::complete(8), span, rng);
    EXPECT_EQ(c.span(), span);
    EXPECT_EQ(c.min_tag(), 0u);
  }
}

// --------------------------------------------------------------------- io

TEST(Io, TextRoundTrip) {
  const config::Configuration original = config::family_h(3);
  const std::string text = config::to_text_string(original);
  const config::Configuration parsed = config::from_text_string(text);
  EXPECT_EQ(parsed, original);
}

TEST(Io, TextRoundTripLargerGraph) {
  support::Rng rng(17);
  const config::Configuration original =
      config::random_tags(graph::gnp_connected(15, 0.3, rng), 4, rng);
  EXPECT_EQ(config::from_text_string(config::to_text_string(original)), original);
}

TEST(Io, ParserSkipsCommentsAndBlanks) {
  const std::string text =
      "# a comment\n"
      "\n"
      "nodes 2\n"
      "# another\n"
      "tags 0 1\n"
      "edges 1\n"
      "0 1\n";
  const config::Configuration parsed = config::from_text_string(text);
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.tag(1), 1u);
}

TEST(Io, ParserRejectsMalformedInput) {
  EXPECT_THROW(config::from_text_string(""), ContractViolation);
  EXPECT_THROW(config::from_text_string("nodes 2\ntags 0\nedges 0\n"), ContractViolation);
  EXPECT_THROW(config::from_text_string("nodes 2\ntags 0 1\nedges 1\n0 5\n"),
               ContractViolation);
  EXPECT_THROW(config::from_text_string("nodes 2\ntags 0 1\nedges 2\n0 1\n"),
               ContractViolation);
  // Disconnected parses structurally but fails configuration validation.
  EXPECT_THROW(config::from_text_string("nodes 3\ntags 0 1 2\nedges 1\n0 1\n"),
               ContractViolation);
}

// Declared counts beyond what the text holds are malformed input, not a
// memory request: no reserve is sized from them.
TEST(Io, ParserRejectsImpossibleCounts) {
  EXPECT_THROW(config::from_text_string("nodes 4\ntags 0 1 2 3\nedges -1\n"),
               ContractViolation);
  EXPECT_THROW(config::from_text_string("nodes 4\ntags 0 1 2 3\nedges 99999999999\n"),
               ContractViolation);
  EXPECT_THROW(config::from_text_string("nodes 4294967295\ntags 0 1\nedges 0\n"),
               ContractViolation);
  // n(n-1)/2 edges is the most a simple graph has: K4 parses, a seventh edge does not.
  const std::string k4 = "nodes 4\ntags 0 1 2 3\nedges 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n";
  EXPECT_EQ(config::from_text_string(k4).graph().edge_count(), 6u);
  try {
    (void)config::from_text_string("nodes 4\ntags 0 1 2 3\nedges 7\n");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& error) {
    // Refused at the header, before any edge line is read.
    EXPECT_NE(std::string(error.what()).find("n(n-1)/2"), std::string::npos) << error.what();
  }
}

TEST(Io, DotContainsNodesAndEdges) {
  std::ostringstream out;
  config::to_dot(config::family_h(2), out);
  const std::string dot = out.str();
  EXPECT_NE(dot.find("graph configuration {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"0:2\"]"), std::string::npos);
  EXPECT_NE(dot.find("n2 -- n3"), std::string::npos);
}

// --------------------------------------------------------------- fingerprint

TEST(Fingerprint, EqualConfigurationsCollide) {
  // Independently constructed equal configurations share the digest — the
  // property the schedule cache's keying rests on.
  const config::Configuration a = config::family_h(3);
  const config::Configuration b = config::family_h(3);
  EXPECT_EQ(config::fingerprint(a), config::fingerprint(b));

  // A serialization round trip preserves it too (the cross-process case).
  const config::Configuration parsed = config::from_text_string(config::to_text_string(a));
  EXPECT_EQ(config::fingerprint(parsed), config::fingerprint(a));
}

TEST(Fingerprint, SingleNodeTagMutationsChangeTheDigest) {
  const config::Configuration base = config::family_h(2);
  const config::Fingerprint original = config::fingerprint(base);
  std::set<config::Fingerprint> digests{original};
  for (const config::Configuration& mutated : config::all_tag_mutations(base, 4)) {
    const config::Fingerprint digest = config::fingerprint(mutated);
    EXPECT_NE(digest, original) << config::to_text_string(mutated);
    // The whole mutation neighbourhood is pairwise distinct: every mutant
    // differs from every other in at least one tag.
    EXPECT_TRUE(digests.insert(digest).second) << config::to_text_string(mutated);
  }
}

TEST(Fingerprint, EdgeMutationsChangeTheDigest) {
  support::Rng rng(31337);
  const config::Configuration base = config::family_h(2);
  const auto extra = config::with_random_extra_edge(base, rng);
  ASSERT_TRUE(extra.has_value());
  EXPECT_NE(config::fingerprint(*extra), config::fingerprint(base));
}

TEST(Fingerprint, GlobalTagShiftsChangeTheDigest) {
  // The digest is over the exact tags, not the normalized form: a shifted
  // configuration has different observable global rounds and must not share
  // a cache entry with its normalization.
  const config::Configuration base = config::staggered_path(4);
  std::vector<config::Tag> shifted = base.tags();
  for (config::Tag& tag : shifted) {
    tag += 3;
  }
  EXPECT_NE(config::fingerprint(config::Configuration(base.graph(), shifted)),
            config::fingerprint(base));
}

}  // namespace
