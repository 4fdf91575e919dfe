// The Trader constraint & preference language.
//
// The GRM stores LRM resource offers in a Trading service and selects
// candidate nodes by evaluating constraint expressions against offer
// properties (paper §5: "The GRM uses the JacORB Trader to store the
// information it receives from the LRMs"). This is a faithful subset of the
// OMG Trading Object Service constraint language:
//
//   constraint  := bool_expr
//   bool_expr   := bool_term { "or" bool_term }
//   bool_term   := bool_fact { "and" bool_fact }
//   bool_fact   := "not" bool_fact | comparison
//   comparison  := additive [ ("==" | "!=" | "<" | "<=" | ">" | ">=" |
//                              "~" | "in") additive ]
//   additive    := mult { ("+" | "-") mult }
//   mult        := unary { ("*" | "/") unary }
//   unary       := "-" unary | "exist" ident | primary
//   primary     := number | string | "true" | "false" | ident | "(" bool_expr ")"
//
//   `~`  is substring match (left operand contained in right? No — CORBA's
//        `str ~ prop` means "prop contains str"; here `a ~ b` is true when
//        string a occurs within string b).
//   `in` is membership of a value in a list-valued property.
//
// Preferences rank matching offers:
//   preference := "max" expr | "min" expr | "with" bool_expr | "random" | "first"
//
// Missing properties make a comparison *undefined*; undefined propagates to
// false at the boolean level (an offer lacking `cpu_mips` never matches
// `cpu_mips > 500`, and never matches `not (cpu_mips > 500)` either, unless
// guarded with `exist`). This matches the OMG semantics and is
// property-tested in tests/constraint_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdr/value.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "services/property.hpp"

namespace integrade::services {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------
enum class TokenKind {
  kEnd,
  kNumber,      // integer or real literal
  kString,      // 'quoted'
  kIdent,       // property name
  kTrue, kFalse,
  kAnd, kOr, kNot, kExist, kIn,
  kEq, kNe, kLt, kLe, kGt, kGe, kTilde,
  kPlus, kMinus, kStar, kSlash,
  kLParen, kRParen,
  kMax, kMin, kWith, kRandom, kFirst,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // raw text for idents/strings
  double number = 0.0;       // real literals
  std::int64_t integer = 0;  // integer literals (is_integer)
  bool is_integer = false;
  std::size_t offset = 0;  // for error messages
};

/// Tokenize a constraint/preference source string.
Result<std::vector<Token>> tokenize(const std::string& source);

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,   // value
  kProperty,  // name
  kUnary,     // op: Neg | Not | Exist
  kBinary,    // op: And..Div
};

enum class UnaryOp { kNeg, kNot, kExist };
enum class BinaryOp {
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kSubstr,  // ~
  kIn,
  kAdd, kSub, kMul, kDiv,
};

struct Expr {
  ExprKind kind;
  cdr::Value literal;       // kLiteral
  std::string property;     // kProperty, and kUnary(kExist)
  UnaryOp unary_op{};       // kUnary
  BinaryOp binary_op{};     // kBinary
  ExprPtr lhs;              // kUnary operand / kBinary lhs
  ExprPtr rhs;              // kBinary rhs

  [[nodiscard]] std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Three-valued evaluation result: a Value, or "undefined" (missing property
/// or type mismatch). Undefined is distinct from an error: errors are
/// malformed expressions and are caught at parse time.
struct EvalResult {
  bool defined = false;
  cdr::Value value;

  static EvalResult undef() { return {}; }
  static EvalResult of(cdr::Value v) { return {true, std::move(v)}; }
};

EvalResult evaluate(const Expr& expr, const PropertySet& props);

/// Evaluate as a match predicate: undefined and non-boolean results are
/// "no match", per the OMG trader rules.
bool matches(const Expr& expr, const PropertySet& props);

/// A parsed, reusable constraint. Parsing happens once per query; evaluation
/// runs once per offer — the asymmetry the GRM relies on.
class Constraint {
 public:
  static Result<Constraint> parse(const std::string& source);

  /// "TRUE" constraint that matches every offer.
  static Constraint always();

  [[nodiscard]] bool matches(const PropertySet& props) const;
  [[nodiscard]] const std::string& source() const { return source_; }

  Constraint(Constraint&&) = default;
  Constraint& operator=(Constraint&&) = default;

 private:
  Constraint(std::string source, ExprPtr root);
  std::string source_;
  std::shared_ptr<const Expr> root_;  // shared: Constraint must be copyable
 public:
  Constraint(const Constraint&) = default;
  Constraint& operator=(const Constraint&) = default;
};

/// A parsed preference: orders offers. kMax/kMin order by a numeric
/// expression (offers where it is undefined sort last); kWith puts matching
/// offers first; kRandom shuffles; kFirst keeps discovery order.
class Preference {
 public:
  enum class Kind { kMax, kMin, kWith, kRandom, kFirst };

  static Result<Preference> parse(const std::string& source);
  static Preference first();

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Stable-sort indices [0, sets.size()) into preference order.
  [[nodiscard]] std::vector<std::size_t> rank(
      const std::vector<const PropertySet*>& sets, Rng* rng = nullptr) const;

  /// First `k` indices of `rank`'s order without sorting the full set
  /// (partial_sort, O(n log k)); `k == 0` or `k >= sets.size()` degrades to
  /// a full rank. Output is bit-identical to `rank(sets, rng)` truncated to
  /// k. kRandom consumes the same Rng draws regardless of k so seeded
  /// experiments replay identically whichever overload ran.
  [[nodiscard]] std::vector<std::size_t> top(
      const std::vector<const PropertySet*>& sets, std::size_t k,
      Rng* rng = nullptr) const;

 private:
  Preference(Kind kind, std::shared_ptr<const Expr> expr)
      : kind_(kind), expr_(std::move(expr)) {}
  Kind kind_;
  std::shared_ptr<const Expr> expr_;
};

}  // namespace integrade::services
