#include "blueprint/expr.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace damocles::blueprint {

Expr Expr::MakeLiteral(std::string text) {
  Expr e;
  e.kind_ = Kind::kLiteral;
  e.text_ = std::move(text);
  return e;
}

Expr Expr::MakeVar(std::string name) {
  Expr e;
  e.kind_ = Kind::kVar;
  e.text_ = std::move(name);
  return e;
}

Expr Expr::MakeBinary(Kind kind, Expr lhs, Expr rhs) {
  Expr e;
  e.kind_ = kind;
  e.lhs_ = std::make_unique<Expr>(std::move(lhs));
  e.rhs_ = std::make_unique<Expr>(std::move(rhs));
  return e;
}

Expr Expr::MakeNot(Expr operand) {
  Expr e;
  e.kind_ = Kind::kNot;
  e.lhs_ = std::make_unique<Expr>(std::move(operand));
  return e;
}

Expr Expr::Clone() const {
  Expr e;
  e.kind_ = kind_;
  e.text_ = text_;
  if (lhs_) e.lhs_ = std::make_unique<Expr>(lhs_->Clone());
  if (rhs_) e.rhs_ = std::make_unique<Expr>(rhs_->Clone());
  return e;
}

std::string Expr::EvaluateString(const VariableResolver& resolver) const {
  switch (kind_) {
    case Kind::kLiteral:
      return text_;
    case Kind::kVar:
      return resolver(text_);
    default:
      return EvaluateBool(resolver) ? "true" : "false";
  }
}

bool Expr::EvaluateBool(const VariableResolver& resolver) const {
  switch (kind_) {
    case Kind::kLiteral:
      return text_ == "true";
    case Kind::kVar:
      return resolver(text_) == "true";
    case Kind::kEq:
      return lhs_->EvaluateString(resolver) == rhs_->EvaluateString(resolver);
    case Kind::kNe:
      return lhs_->EvaluateString(resolver) != rhs_->EvaluateString(resolver);
    case Kind::kAnd:
      return lhs_->EvaluateBool(resolver) && rhs_->EvaluateBool(resolver);
    case Kind::kOr:
      return lhs_->EvaluateBool(resolver) || rhs_->EvaluateBool(resolver);
    case Kind::kNot:
      return !lhs_->EvaluateBool(resolver);
  }
  throw Error("Expr::EvaluateBool: corrupt expression node");
}

void Expr::CollectVariables(std::vector<std::string>& names) const {
  if (kind_ == Kind::kVar) names.push_back(text_);
  if (lhs_) lhs_->CollectVariables(names);
  if (rhs_) rhs_->CollectVariables(names);
}

bool Expr::ReadsVariable(std::string_view name) const {
  if (kind_ == Kind::kVar) return text_ == name;
  return (lhs_ && lhs_->ReadsVariable(name)) ||
         (rhs_ && rhs_->ReadsVariable(name));
}

std::string Expr::ToSource() const {
  switch (kind_) {
    case Kind::kLiteral:
      return IsIdentifier(text_) ? text_ : QuoteString(text_);
    case Kind::kVar:
      return "$" + text_;
    case Kind::kEq:
      return "(" + lhs_->ToSource() + " == " + rhs_->ToSource() + ")";
    case Kind::kNe:
      return "(" + lhs_->ToSource() + " != " + rhs_->ToSource() + ")";
    case Kind::kAnd:
      return "(" + lhs_->ToSource() + " and " + rhs_->ToSource() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToSource() + " or " + rhs_->ToSource() + ")";
    case Kind::kNot:
      return "(not " + lhs_->ToSource() + ")";
  }
  return "<corrupt>";
}

}  // namespace damocles::blueprint
