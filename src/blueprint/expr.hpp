// Boolean expression trees for continuous assignments.
//
// Paper §3.2: "the state of the OID can be given by a continuous
// assignment combining the value of several properties (e.g.
// my_state = ($simulation == ok) and ($DRC == good)). Such an assignment
// is continuously being reevaluated."
//
// Values are strings; comparisons are string equality. A bare value used
// in boolean position is truthy iff it equals "true".
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "blueprint/string_template.hpp"

namespace damocles::blueprint {

/// One node of an expression tree.
class Expr {
 public:
  enum class Kind {
    kLiteral,  ///< Constant string value (identifier or quoted string).
    kVar,      ///< $property / $builtin reference.
    kEq,       ///< lhs == rhs (string equality).
    kNe,       ///< lhs != rhs.
    kAnd,      ///< lhs and rhs.
    kOr,       ///< lhs or rhs.
    kNot,      ///< not lhs.
  };

  /// Leaf constructors.
  static Expr MakeLiteral(std::string text);
  static Expr MakeVar(std::string name);

  /// Interior constructors (take ownership of children).
  static Expr MakeBinary(Kind kind, Expr lhs, Expr rhs);
  static Expr MakeNot(Expr operand);

  Expr(Expr&&) noexcept = default;
  Expr& operator=(Expr&&) noexcept = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  /// Deep copy (expression trees are shared between blueprint phases).
  Expr Clone() const;

  Kind kind() const noexcept { return kind_; }
  const std::string& text() const noexcept { return text_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  /// Evaluates the node as a string: leaves yield their value, interior
  /// nodes yield "true"/"false".
  std::string EvaluateString(const VariableResolver& resolver) const;

  /// Evaluates the node as a boolean (strings are truthy iff "true").
  bool EvaluateBool(const VariableResolver& resolver) const;

  /// All $variable names referenced anywhere in the tree.
  void CollectVariables(std::vector<std::string>& names) const;

  /// True when the tree references $`name` anywhere (no allocation).
  bool ReadsVariable(std::string_view name) const;

  /// Renders the tree back to blueprint source syntax.
  std::string ToSource() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  std::string text_;
  std::unique_ptr<Expr> lhs_;
  std::unique_ptr<Expr> rhs_;
};

}  // namespace damocles::blueprint
