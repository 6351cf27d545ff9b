/// \file test_support.cpp
/// Unit tests for the support library: contracts, PRNG, tables, CLI parsing,
/// thread pool, line framing, and the spec grammar the three registries and
/// both wire readers share.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/protocol.hpp"
#include "engine/workload.hpp"
#include "fault/fault.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/line_io.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace arl::support;

// ---------------------------------------------------------------- contracts

TEST(Assert, ViolationsThrowWithContext) {
  try {
    ARL_EXPECTS(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
  }
}

TEST(Assert, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(ARL_EXPECTS(true, ""));
  EXPECT_NO_THROW(ARL_ENSURES(2 + 2 == 4, ""));
  EXPECT_NO_THROW(ARL_ASSERT(!false, ""));
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next() == b.next()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroIsRejected) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t value = rng.range(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RealIsInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesRealBelowPDrawForDraw) {
  // Published sweeps draw their edges through bernoulli, so its integer form
  // must give the reference's answer on every draw and consume exactly its
  // draws: none for p <= 0 or p >= 1, one otherwise (NaN included).
  const auto reference = [](Rng& rng, double p) {
    return p <= 0.0 ? false : p >= 1.0 ? true : rng.real() < p;
  };
  const double probabilities[] = {
      -1.0,
      0.0,
      4.9e-324,
      0x1.0p-53,
      1e-300,
      0.01,
      0.03,
      0.5,
      std::nextafter(1.0, 0.0),
      1.0,
      2.0,
      std::numeric_limits<double>::quiet_NaN(),
  };
  for (const double p : probabilities) {
    Rng fast(2024);
    Rng slow(2024);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(fast.bernoulli(p), reference(slow, p)) << "p=" << p << " draw " << i;
      // Equal next outputs after every call: the two consumed the same draws.
      ASSERT_EQ(Rng(fast).next(), Rng(slow).next()) << "p=" << p << " draw " << i;
    }
  }
  // At the boundary: p equal to the next real() is false, the next double
  // above it true.
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const double draw = Rng(rng).real();
    if (draw > 0.0) {
      EXPECT_FALSE(Rng(rng).bernoulli(draw)) << "draw " << draw;
    }
    EXPECT_TRUE(Rng(rng).bernoulli(std::nextafter(draw, 1.0))) << "draw " << draw;
    (void)rng.next();
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng parent(1234);
  Rng child_a = parent.split(1);
  Rng child_a_again = parent.split(1);
  Rng child_b = parent.split(2);
  int same_ab = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = child_a.next();
    EXPECT_EQ(a, child_a_again.next());  // same stream id → same stream
    same_ab += (a == child_b.next()) ? 1 : 0;
  }
  EXPECT_LT(same_ab, 4);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(77);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng rng(1);
  const std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), ContractViolation);
}

// -------------------------------------------------------------------- table

TEST(Table, MarkdownLayout) {
  Table table({"name", "value"});
  table.add_row({std::string("alpha"), std::int64_t{42}});
  table.add_row({std::string("b"), 3.5});
  const std::string markdown = table.to_markdown();
  EXPECT_NE(markdown.find("| name  | value |"), std::string::npos);
  EXPECT_NE(markdown.find("| alpha | 42    |"), std::string::npos);
  EXPECT_NE(markdown.find("| b     | 3.5   |"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table table({"text"});
  table.add_row({std::string("plain")});
  table.add_row({std::string("with,comma")});
  table.add_row({std::string("with\"quote")});
  std::ostringstream out;
  table.print_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({std::int64_t{1}}), ContractViolation);
}

TEST(Table, PrecisionControlsDoubles) {
  Table table({"x"});
  table.set_precision(2);
  table.add_row({3.14159});
  EXPECT_NE(table.to_markdown().find("3.1"), std::string::npos);
  EXPECT_EQ(table.to_markdown().find("3.14159"), std::string::npos);
}

// ---------------------------------------------------------------------- cli

TEST(Args, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=12", "--verbose", "file.txt", "--ratio=0.5"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file.txt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Args args(1, argv);
  EXPECT_EQ(args.get_int("n", 99), 99);
  EXPECT_EQ(args.get_string("mode", "fast"), "fast");
}

TEST(Args, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--n=abc", "--big=9223372036854775808"};
  const Args args(3, argv);
  EXPECT_THROW((void)args.get_int("n", 0), ContractViolation);
  EXPECT_THROW((void)args.get_int("big", 0), ContractViolation);  // clamped before
}

TEST(Args, IntegersAreDigitsOnly) {
  // strtoll would read each of these as a number; the flag grammar is the
  // registries' (support::parse_integer), so they are usage errors.
  for (const char* flag : {"--n=+3", "--n= 3", "--n=3 ", "--n=0x3", "--n=-3", "--n=", "--n=1e3"}) {
    const char* argv[] = {"prog", flag};
    const Args args(2, argv);
    EXPECT_THROW((void)args.get_int("n", 0), ContractViolation) << flag;
  }
  const char* argv[] = {"prog", "--n=03", "--max=9223372036854775807"};
  const Args args(3, argv);
  EXPECT_EQ(args.get_int("n", 0), 3);
  EXPECT_EQ(args.get_int("max", 0), std::numeric_limits<std::int64_t>::max());
}

// -------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(pool, 0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(parallel_for(pool, 5, 5, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 10,
                   [](std::size_t i) {
                     if (i == 3) {
                       throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

// ------------------------------------------------------------ line framing

TEST(LineFramer, FramesLinesAcrossArbitraryChunks) {
  LineFramer framer;
  framer.feed("first li");
  EXPECT_EQ(framer.pop(), std::nullopt);  // no newline yet
  framer.feed("ne\nsecond\nthi");
  EXPECT_EQ(framer.pop(), "first line");
  EXPECT_EQ(framer.pop(), "second");
  EXPECT_EQ(framer.pop(), std::nullopt);
  EXPECT_EQ(framer.partial_bytes(), 3u);
  framer.feed("rd\n");
  EXPECT_EQ(framer.pop(), "third");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, FinishTurnsThePartialTailIntoALine) {
  LineFramer framer;
  framer.feed("complete\ntail without newline");
  framer.finish();
  EXPECT_EQ(framer.pop(), "complete");
  EXPECT_EQ(framer.pop(), "tail without newline");  // std::getline convention
  EXPECT_EQ(framer.pop(), std::nullopt);
  EXPECT_TRUE(framer.drained());
}

TEST(LineFramer, EmptyLinesAndEmptyTailAreHandled) {
  LineFramer framer;
  framer.feed("\n\nx\n");
  framer.finish();  // empty tail: no extra line
  EXPECT_EQ(framer.pop(), "");
  EXPECT_EQ(framer.pop(), "");
  EXPECT_EQ(framer.pop(), "x");
  EXPECT_EQ(framer.pop(), std::nullopt);
  EXPECT_TRUE(framer.drained());
}

TEST(LineFramer, EnforcesTheByteBoundAndStaysPoisoned) {
  LineFramer framer(8);
  framer.feed("ok\n");
  EXPECT_THROW(framer.feed("123456789"), LineTooLong);  // 9 > 8, no newline
  EXPECT_THROW(framer.feed("x"), LineTooLong);          // poisoned: keeps throwing
  EXPECT_EQ(framer.pop(), "ok");                        // lines framed before stay readable
}

TEST(LineFramer, BoundAppliesToOneLineNotTheStream) {
  LineFramer framer(8);
  // Many short lines through one small-bound framer: the bound is per line.
  for (int i = 0; i < 100; ++i) {
    framer.feed("12345678\n");
    EXPECT_EQ(framer.pop(), "12345678");
  }
}

TEST(ReadLines, MatchesGetlineIncludingMissingFinalNewline) {
  std::istringstream with_newline("a\nb\n");
  EXPECT_EQ(read_lines(with_newline), (std::vector<std::string>{"a", "b"}));
  std::istringstream without_newline("a\nb");
  EXPECT_EQ(read_lines(without_newline), (std::vector<std::string>{"a", "b"}));
  std::istringstream empty("");
  EXPECT_TRUE(read_lines(empty).empty());
}

TEST(ReadLines, ThrowsOnOverlongLines) {
  std::istringstream in(std::string(100, 'x'));
  EXPECT_THROW((void)read_lines(in, 10), LineTooLong);
}

// ------------------------------------------------------------- number parse

TEST(ParseDecimalU64, AcceptsCanonicalDigits) {
  EXPECT_EQ(parse_decimal_u64("0"), 0u);
  EXPECT_EQ(parse_decimal_u64("42"), 42u);
  EXPECT_EQ(parse_decimal_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseDecimalU64, RejectsNonCanonicalAndOutOfRange) {
  EXPECT_EQ(parse_decimal_u64(""), std::nullopt);
  EXPECT_EQ(parse_decimal_u64("-1"), std::nullopt);
  EXPECT_EQ(parse_decimal_u64("1e3"), std::nullopt);
  EXPECT_EQ(parse_decimal_u64(" 1"), std::nullopt);
  EXPECT_EQ(parse_decimal_u64("18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(parse_decimal_u64("11", 10), std::nullopt);                // above max
  EXPECT_EQ(parse_decimal_u64("10", 10), 10u);                         // at max
}

// -------------------------------------------------------------- spec grammar

TEST(SpecGrammar, EveryRegistryRejectsTheSameBadNumbers) {
  // One integer grammar behind every numeric spec parameter: digits only,
  // whichever registry the parameter belongs to.
  const std::vector<std::pair<std::string, std::function<void(const std::string&)>>> rows = {
      {"binary-search:", [](const std::string& t) { (void)arl::core::parse_protocol(t); }},
      {"randomized:", [](const std::string& t) { (void)arl::core::parse_protocol(t); }},
      {"random:n=", [](const std::string& t) { (void)arl::engine::parse_workload(t); }},
      {"crash:", [](const std::string& t) { (void)arl::fault::parse_fault(t); }},
      {"adversarial-wake:", [](const std::string& t) { (void)arl::fault::parse_fault(t); }},
  };
  for (const auto& [prefix, parse] : rows) {
    EXPECT_NO_THROW(parse(prefix + "5")) << prefix;  // the row is a valid spec around X
    for (const char* bad : {"+5", " 5", "5 ", "-1", "0x5", "1e3", ""}) {
      EXPECT_THROW(parse(prefix + bad), ContractViolation) << "'" << prefix << bad << "'";
    }
  }
}

TEST(SpecGrammar, IntegersStayWithinTheirBounds) {
  EXPECT_EQ(parse_integer("63", "BITS", 63), 63u);
  EXPECT_EQ(parse_integer("007", "n"), 7u);
  EXPECT_EQ(parse_integer("18446744073709551615", "--seed",
                          std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)parse_integer("64", "BITS", 63), ContractViolation);
  EXPECT_THROW((void)parse_integer("0", "SLOTS", 100, 1), ContractViolation);
  EXPECT_THROW((void)parse_integer("1000000000", "n"), ContractViolation);  // kMaxSpecInteger
  try {
    (void)parse_integer("+5", "workload 'random': n");
    FAIL() << "accepted '+5'";
  } catch (const ContractViolation& error) {
    EXPECT_EQ(std::string(error.what()),
              "workload 'random': n must be a decimal integer in [0, 999999999] (got '+5')");
  }
}

TEST(SpecGrammar, SplitKeepsEveryField) {
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(split("a,,b", ','), (Fields{"a", "", "b"}));
  EXPECT_EQ(split("a,", ','), (Fields{"a", ""}));
  EXPECT_EQ(split("", ','), (Fields{""}));
  EXPECT_EQ(split_spec("drop").kind, "drop");
  EXPECT_EQ(split_spec("drop").params, std::nullopt);
  EXPECT_EQ(split_spec("drop:").params, "");  // an empty list, not no list
  EXPECT_EQ(split_spec("mutations:random:n=4").kind, "mutations");
  EXPECT_EQ(split_spec("mutations:random:n=4").params, "random:n=4");  // first ':' only
}

TEST(SpecGrammar, WireFieldsRejectEmptyFieldsWithTheCallersError) {
  EXPECT_EQ(wire_fields<std::runtime_error>("seed 5"),
            (std::vector<std::string_view>{"seed", "5"}));
  for (const char* line : {"", " seed 5", "seed 5 ", "seed  5"}) {
    EXPECT_THROW((void)wire_fields<std::runtime_error>(line), std::runtime_error) << line;
  }
}

TEST(SpecGrammar, Hex64IsExactlySixteenLowercaseDigits) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{0xabc}, std::uint64_t{0x0123456789abcdef},
        std::numeric_limits<std::uint64_t>::max()}) {
    const std::string text = hex64(value);
    EXPECT_EQ(text.size(), 16u);
    EXPECT_EQ(parse_hex64<std::runtime_error>(text, "digest"), value) << text;
  }
  EXPECT_EQ(hex64(0xabc), "0000000000000abc");
  for (const char* token :
       {"000000000000abc",     // 15 digits
        "00000000000000abc",   // 17 digits
        "0000000000000ABC",    // uppercase digits
        "0x00000000000abc",    // a base prefix
        "000000000000abcg",    // a non-hex letter
        "00000000000 0abc",    // a space
        "-000000000000abc",    // a sign
        ""}) {
    EXPECT_THROW((void)parse_hex64<std::runtime_error>(token, "digest"), std::runtime_error)
        << token;
  }
  try {
    (void)parse_hex64<std::runtime_error>("xyz", "sweep digest");
    ADD_FAILURE() << "a malformed digest must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "sweep digest must be 16 lowercase hex digits (got 'xyz')");
  }
}

TEST(SpecGrammar, KeyValuesRejectMalformedAndRepeatedKeys) {
  const auto pairs = parse_key_values("n=4,p=0.5", "at: ");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::string_view, std::string_view>{"n", "4"}));
  EXPECT_EQ(pairs[1], (std::pair<std::string_view, std::string_view>{"p", "0.5"}));
  for (const char* bad : {"", "n", "n=", "=4", "n=4,", ",n=4", "n=4,n=5"}) {
    EXPECT_THROW((void)parse_key_values(bad, "at: "), ContractViolation) << bad;
  }
  try {
    (void)parse_key_values("n=4,n=5", "workload 'random': ");
    FAIL() << "accepted a repeated key";
  } catch (const ContractViolation& error) {
    EXPECT_EQ(std::string(error.what()), "workload 'random': duplicate parameter 'n'");
  }
}

TEST(SpecGrammar, ParseCanonicalAcceptsOnlyTheCanonicalName) {
  const auto parse = [](std::string_view text) {
    return parse_canonical<std::runtime_error>(text, "fault", arl::fault::parse_fault);
  };
  EXPECT_EQ(parse("drop:0.1"), arl::fault::FaultSpec::drop(0.1));
  // A registry error and a non-canonical spelling both surface as the
  // caller's error type, named by the noun.
  for (const char* text : {"bogus", "drop:0.10", "crash:1,64", "drop:2"}) {
    try {
      (void)parse(text);
      FAIL() << "accepted '" << text << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()).rfind("bad fault: ", 0), 0u) << error.what();
    }
  }
}

TEST(SpecGrammar, NumbersSpellCanonically) {
  EXPECT_EQ(shortest_double(0.3), "0.3");
  EXPECT_EQ(shortest_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(parse_canonical_double("0.25"), 0.25);
  EXPECT_EQ(parse_canonical_double("1e400"), std::nullopt);  // out of double's range
  EXPECT_EQ(parse_canonical_double("-0.5"), std::nullopt);
  EXPECT_THROW((void)parse_probability("inf", "p"), ContractViolation);
  EXPECT_TRUE(parse_flag("1", "fast"));
  EXPECT_FALSE(parse_flag("0", "fast"));
  EXPECT_THROW((void)parse_flag("yes", "fast"), ContractViolation);
}

// ---------------------------------------------------------------- stopwatch

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch watch;
  const double first = watch.seconds();
  const double second = watch.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  watch.restart();
  EXPECT_LT(watch.seconds(), 1.0);
}

TEST(Stopwatch, RecordedSpansAreMonotone) {
  // The stopwatch (like every timing path in the repository) reads the
  // steady clock, so a recorded span can never run backwards — even across
  // many rapid reads, where a wall clock adjusted by NTP could regress.
  Stopwatch watch;
  double previous = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double now = watch.seconds();
    ASSERT_GE(now, previous) << "span regressed at read " << i;
    previous = now;
  }
}

}  // namespace
