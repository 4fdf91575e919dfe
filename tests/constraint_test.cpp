// The Trader constraint & preference language: lexer, parser, evaluator
// (including OMG three-valued "undefined" semantics), and ranking.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "services/constraint.hpp"

namespace integrade::services {
namespace {

PropertySet node_props() {
  PropertySet props;
  props.set("cpu_mips", cdr::Value(1400.0));
  props.set("ram_mb", cdr::Value(256));
  props.set("os", cdr::Value("linux"));
  props.set("shareable", cdr::Value(true));
  props.set("platforms",
            cdr::Value(cdr::ValueList{cdr::Value("linux-x86"), cdr::Value("java")}));
  return props;
}

bool eval(const std::string& expr, const PropertySet& props = node_props()) {
  auto parsed = Constraint::parse(expr);
  EXPECT_TRUE(parsed.is_ok()) << expr << ": " << parsed.status().to_string();
  return parsed.is_ok() && parsed.value().matches(props);
}

// --- lexer ---

TEST(Lexer, TokenizesOperatorsAndLiterals) {
  auto tokens = tokenize("cpu >= 1.5e2 and os == 'linux' or not (x != 3)");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_EQ(tokens.value().back().kind, TokenKind::kEnd);
  // cpu >= 1.5e2 and os == 'linux' or not ( x != 3 ) + END = 15 tokens.
  EXPECT_EQ(tokens.value().size(), 15u);
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_FALSE(tokenize("os == 'linux").is_ok());
}

TEST(Lexer, RejectsUnknownCharacter) {
  EXPECT_FALSE(tokenize("a % b").is_ok());
}

TEST(Lexer, IntegerVsRealLiterals) {
  auto tokens = tokenize("5 5.0 5e1");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_TRUE(tokens.value()[0].is_integer);
  EXPECT_FALSE(tokens.value()[1].is_integer);
  EXPECT_FALSE(tokens.value()[2].is_integer);
}

TEST(Lexer, IntegerLiteralsAreExactAndMustFitInt64) {
  auto tokens = tokenize("9223372036854775807 9007199254740993");
  ASSERT_TRUE(tokens.is_ok());
  EXPECT_EQ(tokens.value()[0].integer, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(tokens.value()[1].integer, 9'007'199'254'740'993);  // 2^53 + 1
  EXPECT_FALSE(tokenize("9223372036854775808").is_ok());
  const auto huge = Constraint::parse("cpu_mips > 99999999999999999999");
  ASSERT_FALSE(huge.is_ok());
  EXPECT_NE(huge.status().message().find("out of range"), std::string::npos);
}

// --- parser ---

TEST(Parser, RejectsMalformedExpressions) {
  EXPECT_FALSE(Constraint::parse("").is_ok());
  EXPECT_FALSE(Constraint::parse("and").is_ok());
  EXPECT_FALSE(Constraint::parse("a ==").is_ok());
  EXPECT_FALSE(Constraint::parse("(a == 1").is_ok());
  EXPECT_FALSE(Constraint::parse("a == 1 extra").is_ok());
  EXPECT_FALSE(Constraint::parse("exist 42").is_ok());
}

TEST(Parser, PrecedenceMultiplicationBeforeComparison) {
  PropertySet props;
  props.set("x", cdr::Value(4));
  EXPECT_TRUE(eval("x * 2 + 1 == 9", props));
  EXPECT_TRUE(eval("1 + x * 2 == 9", props));
  EXPECT_TRUE(eval("x - 1 - 1 == 2", props));  // left associative
}

TEST(Parser, PrecedenceAndBindsTighterThanOr) {
  PropertySet props;
  props.set("t", cdr::Value(true));
  props.set("f", cdr::Value(false));
  // or(f, and(f, t)) = false;  if 'or' bound tighter it would be true.
  EXPECT_FALSE(eval("f or f and f", props));
  EXPECT_TRUE(eval("t or f and f", props));
}

// --- evaluation ---

TEST(Eval, Comparisons) {
  EXPECT_TRUE(eval("cpu_mips > 500"));
  EXPECT_TRUE(eval("cpu_mips >= 1400"));
  EXPECT_FALSE(eval("cpu_mips < 1400"));
  EXPECT_TRUE(eval("cpu_mips <= 1400.0"));
  EXPECT_TRUE(eval("ram_mb == 256"));
  EXPECT_TRUE(eval("ram_mb != 255"));
  EXPECT_TRUE(eval("os == 'linux'"));
  EXPECT_TRUE(eval("os < 'windows'"));  // string ordering
}

TEST(Eval, MixedIntRealComparisons) {
  EXPECT_TRUE(eval("ram_mb >= 255.5"));
  EXPECT_TRUE(eval("ram_mb == 256.0"));
}

TEST(Eval, Arithmetic) {
  EXPECT_TRUE(eval("ram_mb / 2 == 128"));
  EXPECT_TRUE(eval("ram_mb * 2 == 512"));
  EXPECT_TRUE(eval("ram_mb + cpu_mips > 1600"));
  EXPECT_TRUE(eval("-ram_mb == 0 - 256"));
}

TEST(Eval, DivisionByZeroIsUndefined) {
  EXPECT_FALSE(eval("ram_mb / 0 == 1"));
  EXPECT_FALSE(eval("not (ram_mb / 0 == 1)"));  // undefined, not false
}

TEST(Eval, BooleanLogic) {
  EXPECT_TRUE(eval("shareable and cpu_mips > 1000"));
  EXPECT_TRUE(eval("shareable or cpu_mips < 0"));
  EXPECT_FALSE(eval("not shareable"));
  EXPECT_TRUE(eval("not (cpu_mips < 0)"));
}

TEST(Eval, SubstringMatch) {
  EXPECT_TRUE(eval("'inu' ~ os"));
  EXPECT_FALSE(eval("'win' ~ os"));
  EXPECT_TRUE(eval("'' ~ os"));  // empty string is everywhere
}

TEST(Eval, ListMembership) {
  EXPECT_TRUE(eval("'java' in platforms"));
  EXPECT_TRUE(eval("'linux-x86' in platforms"));
  EXPECT_FALSE(eval("'win32' in platforms"));
}

TEST(Eval, Exist) {
  EXPECT_TRUE(eval("exist cpu_mips"));
  EXPECT_FALSE(eval("exist gpu_count"));
  EXPECT_TRUE(eval("not exist gpu_count"));
}

// The OMG semantics: a missing property makes the comparison undefined, and
// undefined propagates through `not` — only `exist` can rescue it.
TEST(Eval, UndefinedPropagation) {
  EXPECT_FALSE(eval("gpu_count > 0"));
  EXPECT_FALSE(eval("not (gpu_count > 0)"));
  EXPECT_FALSE(eval("gpu_count > 0 or gpu_count <= 0"));
  // But a defined true arm short-circuits around the undefined one.
  EXPECT_TRUE(eval("shareable or gpu_count > 0"));
  EXPECT_FALSE(eval("shareable and gpu_count > 0"));
  // And a defined false arm decides `and`.
  EXPECT_FALSE(eval("(cpu_mips < 0) and gpu_count > 0"));
}

TEST(Eval, TypeMismatchIsUndefined) {
  EXPECT_FALSE(eval("os > 5"));
  EXPECT_FALSE(eval("not (os > 5)"));
  EXPECT_FALSE(eval("shareable > 1"));
  EXPECT_TRUE(eval("os != 5"));  // != across kinds: values differ
}

TEST(Eval, NonBooleanConstraintNeverMatches) {
  EXPECT_FALSE(eval("cpu_mips"));
  EXPECT_FALSE(eval("1 + 1"));
  EXPECT_TRUE(eval("true"));
  EXPECT_FALSE(eval("false"));
}

// Property sweep: cpu threshold matching must agree with direct arithmetic.
class ThresholdSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Cpus, ThresholdSweep,
                         ::testing::Values(0, 500, 1000, 1399, 1400, 1401, 5000));

TEST_P(ThresholdSweep, MatchesIffAboveThreshold) {
  const int threshold = GetParam();
  const bool expected = 1400.0 >= threshold;
  EXPECT_EQ(eval("cpu_mips >= " + std::to_string(threshold)), expected);
}

// --- preferences ---

std::vector<PropertySet> offer_sets() {
  std::vector<PropertySet> sets;
  for (int mips : {800, 2000, 1200}) {
    PropertySet p;
    p.set("cpu_mips", cdr::Value(mips));
    sets.push_back(std::move(p));
  }
  return sets;
}

std::vector<std::size_t> rank(const std::string& pref,
                              const std::vector<PropertySet>& sets) {
  auto parsed = Preference::parse(pref);
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  std::vector<const PropertySet*> ptrs;
  for (const auto& s : sets) ptrs.push_back(&s);
  Rng rng(1);
  return parsed.value().rank(ptrs, &rng);
}

TEST(Preference, MaxOrdersDescending) {
  auto order = rank("max cpu_mips", offer_sets());
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Preference, MinOrdersAscending) {
  auto order = rank("min cpu_mips", offer_sets());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(Preference, WithPutsMatchesFirstStable) {
  auto order = rank("with cpu_mips > 1000", offer_sets());
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Preference, FirstKeepsDiscoveryOrder) {
  auto order = rank("first", offer_sets());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Preference, EmptySourceIsFirst) {
  auto order = rank("", offer_sets());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Preference, RandomIsAPermutation) {
  auto order = rank("random", offer_sets());
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Preference, UndefinedScoresSortLast) {
  auto sets = offer_sets();
  PropertySet no_cpu;
  no_cpu.set("ram_mb", cdr::Value(64));
  sets.insert(sets.begin(), no_cpu);  // offer 0 lacks cpu_mips
  auto order = rank("max cpu_mips", sets);
  EXPECT_EQ(order.back(), 0u);
}

TEST(Preference, RejectsGarbage) {
  EXPECT_FALSE(Preference::parse("maximize cpu").is_ok());
  EXPECT_FALSE(Preference::parse("max ==").is_ok());
}

// --- bid properties (NCC bid_filter screening, scheduling economy) ---
//
// When an LRM screens a reservation with a node-owner bid_filter, the bid
// PropertySet only carries tenant/bid_budget/bid_deadline_s if the submitter
// actually attached a bid. OMG undefined semantics must make every filter
// that references an absent property refuse — never crash, never admit.

PropertySet bid_props(double budget = 12.5, double deadline_s = 3600.0) {
  PropertySet props;
  props.set("tenant", cdr::Value("alice"));
  props.set("bid_budget", cdr::Value(budget));
  props.set("bid_deadline_s", cdr::Value(deadline_s));
  return props;
}

TEST(Eval, BidPropertiesMatch) {
  EXPECT_TRUE(eval("tenant == 'alice' and bid_budget >= 10", bid_props()));
  EXPECT_TRUE(eval("bid_deadline_s > 60", bid_props()));
  EXPECT_FALSE(eval("bid_budget >= 100", bid_props()));
}

TEST(Eval, AbsentBidPropertiesNeverMatch) {
  const PropertySet no_bid;  // reservation arrived without a bid extension
  EXPECT_FALSE(eval("bid_budget >= 1", no_bid));
  EXPECT_FALSE(eval("bid_budget < 1", no_bid));
  EXPECT_FALSE(eval("tenant == 'alice'", no_bid));
  // `not` over undefined is still undefined — a negated filter must not
  // accidentally admit bid-less requests.
  EXPECT_FALSE(eval("not (bid_budget >= 1)", no_bid));
  // Only `exist` resolves absence to a definite boolean.
  EXPECT_FALSE(eval("exist bid_budget", no_bid));
  EXPECT_TRUE(eval("not exist bid_budget", no_bid));
  EXPECT_TRUE(eval("exist bid_budget and bid_budget >= 1", bid_props()));
}

TEST(Eval, NaNBidComparisonsAreFalse) {
  const PropertySet nan_bid = bid_props(std::nan(""), std::nan(""));
  // IEEE: every ordering against NaN is false; the filter refuses cleanly.
  EXPECT_FALSE(eval("bid_budget > 0", nan_bid));
  EXPECT_FALSE(eval("bid_budget < 0", nan_bid));
  EXPECT_FALSE(eval("bid_budget >= 0", nan_bid));
  EXPECT_FALSE(eval("bid_budget <= 0", nan_bid));
  EXPECT_FALSE(eval("bid_deadline_s > 0 and bid_deadline_s < 1e9", nan_bid));
}

TEST(Eval, ExtremeBidValuesCompareWithoutCrashing) {
  const double huge = std::numeric_limits<double>::max();
  EXPECT_TRUE(eval("bid_budget > 1e307", bid_props(huge)));
  EXPECT_FALSE(eval("bid_budget < 0", bid_props(huge)));
  EXPECT_TRUE(eval("bid_budget < -1e307", bid_props(-huge)));
  // Arithmetic that overflows to +inf still yields a definite comparison.
  EXPECT_TRUE(eval("bid_budget * 2 > bid_budget", bid_props(huge)));
  EXPECT_FALSE(eval("bid_budget * 2 < bid_budget", bid_props(huge)));
}

TEST(ExprPrinting, RoundTripReadable) {
  auto parsed = Constraint::parse("a > 1 and not (b in c)");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().source(), "a > 1 and not (b in c)");
}

}  // namespace
}  // namespace integrade::services
