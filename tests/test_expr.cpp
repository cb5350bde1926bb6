#include "blueprint/expr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "blueprint/parser.hpp"

namespace damocles::blueprint {
namespace {

VariableResolver MapResolver(std::map<std::string, std::string> values) {
  return [values = std::move(values)](std::string_view name) -> std::string {
    const auto it = values.find(std::string(name));
    return it == values.end() ? std::string() : it->second;
  };
}

/// Parses a let-expression through the full blueprint parser so the
/// tests exercise exactly the grammar users write.
Expr ParseExprVia(const std::string& expr_source) {
  const std::string source = "blueprint t\nview v\nlet x = " + expr_source +
                             "\nendview\nendblueprint\n";
  Blueprint bp = ParseBlueprint(source);
  return bp.views.at(0).assignments.at(0).expr.Clone();
}

TEST(Expr, LiteralEvaluation) {
  EXPECT_EQ(Expr::MakeLiteral("good").EvaluateString(MapResolver({})), "good");
  EXPECT_TRUE(Expr::MakeLiteral("true").EvaluateBool(MapResolver({})));
  EXPECT_FALSE(Expr::MakeLiteral("good").EvaluateBool(MapResolver({})));
}

TEST(Expr, VarEvaluation) {
  const Expr var = Expr::MakeVar("sim");
  EXPECT_EQ(var.EvaluateString(MapResolver({{"sim", "ok"}})), "ok");
  EXPECT_EQ(var.EvaluateString(MapResolver({})), "");
}

TEST(Expr, ThePaperContinuousAssignment) {
  // my_state = ($simulation == ok) and ($DRC == good)
  const Expr expr = ParseExprVia("($simulation == ok) and ($DRC == good)");
  EXPECT_TRUE(expr.EvaluateBool(
      MapResolver({{"simulation", "ok"}, {"DRC", "good"}})));
  EXPECT_FALSE(expr.EvaluateBool(
      MapResolver({{"simulation", "ok"}, {"DRC", "bad"}})));
  EXPECT_FALSE(expr.EvaluateBool(MapResolver({})));
}

TEST(Expr, TheEdtcStateAssignment) {
  const Expr expr = ParseExprVia(
      "($nl_sim_res == good) and ($lvs_res == is_equiv) and "
      "($uptodate == true)");
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"nl_sim_res", "good"},
                                             {"lvs_res", "is_equiv"},
                                             {"uptodate", "true"}})));
  EXPECT_FALSE(expr.EvaluateBool(MapResolver({{"nl_sim_res", "good"},
                                              {"lvs_res", "is_equiv"},
                                              {"uptodate", "false"}})));
}

TEST(Expr, NotEqualComparison) {
  const Expr expr = ParseExprVia("$result != bad");
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"result", "good"}})));
  EXPECT_FALSE(expr.EvaluateBool(MapResolver({{"result", "bad"}})));
}

TEST(Expr, OrAndNotCombinators) {
  const Expr expr = ParseExprVia("(not ($a == x)) or ($b == y)");
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"a", "z"}, {"b", "n"}})));
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"a", "x"}, {"b", "y"}})));
  EXPECT_FALSE(expr.EvaluateBool(MapResolver({{"a", "x"}, {"b", "n"}})));
}

TEST(Expr, PrecedenceAndBindsTighterThanOr) {
  // a or b and c parses as a or (b and c).
  const Expr expr = ParseExprVia("($a == 1) or ($b == 1) and ($c == 1)");
  EXPECT_TRUE(
      expr.EvaluateBool(MapResolver({{"a", "1"}, {"b", "0"}, {"c", "0"}})));
  EXPECT_FALSE(
      expr.EvaluateBool(MapResolver({{"a", "0"}, {"b", "1"}, {"c", "0"}})));
  EXPECT_TRUE(
      expr.EvaluateBool(MapResolver({{"a", "0"}, {"b", "1"}, {"c", "1"}})));
}

TEST(Expr, BareVarIsTruthyOnlyWhenTrue) {
  const Expr expr = ParseExprVia("$uptodate");
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"uptodate", "true"}})));
  EXPECT_FALSE(expr.EvaluateBool(MapResolver({{"uptodate", "yes"}})));
}

TEST(Expr, StringLiteralComparison) {
  const Expr expr = ParseExprVia("$msg == \"4 errors\"");
  EXPECT_TRUE(expr.EvaluateBool(MapResolver({{"msg", "4 errors"}})));
}

TEST(Expr, CloneIsDeepAndIndependent) {
  const Expr original = ParseExprVia("($a == x) and (not ($b == y))");
  const Expr clone = original.Clone();
  const auto resolver = MapResolver({{"a", "x"}, {"b", "z"}});
  EXPECT_EQ(original.EvaluateBool(resolver), clone.EvaluateBool(resolver));
  EXPECT_EQ(original.ToSource(), clone.ToSource());
}

TEST(Expr, CollectVariables) {
  const Expr expr = ParseExprVia("($a == x) and ($b == y) or (not $c)");
  std::vector<std::string> names;
  expr.CollectVariables(names);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[2], "c");
}

TEST(Expr, ToSourceReparses) {
  const Expr expr = ParseExprVia("($a == x) and (not ($b != \"two words\"))");
  const Expr reparsed = ParseExprVia(expr.ToSource());
  const auto resolver = MapResolver({{"a", "x"}, {"b", "two words"}});
  EXPECT_EQ(expr.EvaluateBool(resolver), reparsed.EvaluateBool(resolver));
  EXPECT_EQ(expr.ToSource(), reparsed.ToSource());
}

/// Truth-table sweep for the binary combinators.
struct TruthCase {
  const char* source;
  const char* a;
  const char* b;
  bool expected;
};

/// Names each case by its expression and inputs; without this the test
/// name would be a byte dump of the struct's pointers.
void PrintTo(const TruthCase& c, std::ostream* os) {
  *os << c.source << " with a=" << c.a << " b=" << c.b;
}

class ExprTruthTable : public ::testing::TestWithParam<TruthCase> {};

TEST_P(ExprTruthTable, Evaluates) {
  const TruthCase& c = GetParam();
  const Expr expr = ParseExprVia(c.source);
  EXPECT_EQ(expr.EvaluateBool(MapResolver({{"a", c.a}, {"b", c.b}})),
            c.expected)
      << c.source << " with a=" << c.a << " b=" << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExprTruthTable,
    ::testing::Values(
        TruthCase{"($a == 1) and ($b == 1)", "1", "1", true},
        TruthCase{"($a == 1) and ($b == 1)", "1", "0", false},
        TruthCase{"($a == 1) and ($b == 1)", "0", "1", false},
        TruthCase{"($a == 1) or ($b == 1)", "0", "1", true},
        TruthCase{"($a == 1) or ($b == 1)", "0", "0", false},
        TruthCase{"not ($a == 1)", "1", "", false},
        TruthCase{"not ($a == 1)", "0", "", true},
        TruthCase{"($a != 1) and ($b != 1)", "0", "2", true},
        TruthCase{"($a != 1) and ($b != 1)", "1", "2", false}));

}  // namespace
}  // namespace damocles::blueprint
