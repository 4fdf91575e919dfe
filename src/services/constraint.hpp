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
//
// One evaluator serves two ways of reading a property: by name from a
// PropertySet (evaluate(), and the tests' by-name query reference), and by
// slot, for the Trader's typed offers — a query binds each name an
// expression mentions to the offer type's slots once, then reads every
// offer's values in place. Properties and literals are used by reference,
// so evaluating an offer copies none of its values.
#pragma once

#include <cstdint>
#include <limits>
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
  /// kProperty and kUnary(kExist): `property`'s index in the names() of the
  /// Constraint or Preference it was parsed into.
  std::uint32_t name_index = 0;
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

/// Reads an offer's properties through a query's slot binding: the name a
/// kProperty or kExist node mentions is bound to `binding[name_index]`, and
/// `slots` holds the offer's values by slot, nullptr where it lacks the
/// name. A name bound to no slot (kUnbound), or to a slot past the offer's
/// last, reads as absent — as a missing name does by name.
class SlotReader {
 public:
  static constexpr std::uint32_t kUnbound =
      std::numeric_limits<std::uint32_t>::max();

  SlotReader(const std::vector<std::uint32_t>& binding,
             const std::vector<cdr::Value*>& slots)
      : binding_(binding.data()), slots_(slots.data()), size_(slots.size()) {}

  [[nodiscard]] const cdr::Value* operator()(const Expr& expr) const {
    const std::uint32_t slot = binding_[expr.name_index];
    return slot < size_ ? slots_[slot] : nullptr;
  }

 private:
  const std::uint32_t* binding_;
  cdr::Value* const* slots_;
  std::size_t size_;
};

/// A parsed expression and the distinct property names it mentions, in
/// first-mention order: each kProperty and kExist node's name_index
/// indexes `names`.
struct ParsedExpr {
  ExprPtr root;
  std::vector<std::string> names;
};

/// A parsed, reusable constraint. Parsing happens once per query; evaluation
/// runs once per offer — the asymmetry the GRM relies on.
class Constraint {
 public:
  static Result<Constraint> parse(const std::string& source);

  /// "TRUE" constraint that matches every offer.
  static Constraint always();

  [[nodiscard]] bool matches(const PropertySet& props) const;
  [[nodiscard]] bool matches(const SlotReader& offer) const;
  [[nodiscard]] const std::string& source() const { return source_; }
  /// The distinct property names the constraint mentions, in first-mention
  /// order (Expr::name_index indexes this).
  [[nodiscard]] const std::vector<std::string>& names() const {
    return parsed_->names;
  }

  Constraint(Constraint&&) = default;
  Constraint& operator=(Constraint&&) = default;

 private:
  Constraint(std::string source, std::shared_ptr<const ParsedExpr> parsed);
  std::string source_;
  std::shared_ptr<const ParsedExpr> parsed_;  // shared: Constraint must be copyable
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

  /// The distinct property names the preference mentions, in
  /// first-mention order (Expr::name_index indexes this).
  [[nodiscard]] const std::vector<std::string>& names() const;

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
  /// The same ranking over offers read by slot (Trader::query_compiled).
  [[nodiscard]] std::vector<std::size_t> top(
      const std::vector<SlotReader>& offers, std::size_t k,
      Rng* rng = nullptr) const;

 private:
  Preference(Kind kind, std::shared_ptr<const ParsedExpr> expr)
      : kind_(kind), expr_(std::move(expr)) {}
  template <class Offers>
  std::vector<std::size_t> top_of(const Offers& offers, std::size_t k,
                                  Rng* rng) const;
  Kind kind_;
  std::shared_ptr<const ParsedExpr> expr_;  // null: random, first
};

}  // namespace integrade::services
