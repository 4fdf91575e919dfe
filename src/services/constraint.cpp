#include "services/constraint.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <forward_list>
#include <sstream>

namespace integrade::services {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return ident_start(c) || std::isdigit(static_cast<unsigned char>(c)) || c == '.'; }

TokenKind keyword_kind(const std::string& word) {
  if (word == "and") return TokenKind::kAnd;
  if (word == "or") return TokenKind::kOr;
  if (word == "not") return TokenKind::kNot;
  if (word == "exist") return TokenKind::kExist;
  if (word == "in") return TokenKind::kIn;
  if (word == "true" || word == "TRUE") return TokenKind::kTrue;
  if (word == "false" || word == "FALSE") return TokenKind::kFalse;
  if (word == "max") return TokenKind::kMax;
  if (word == "min") return TokenKind::kMin;
  if (word == "with") return TokenKind::kWith;
  if (word == "random") return TokenKind::kRandom;
  if (word == "first") return TokenKind::kFirst;
  return TokenKind::kIdent;
}

}  // namespace

Result<std::vector<Token>> tokenize(const std::string& source) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto fail = [&](const std::string& what) -> Result<std::vector<Token>> {
    return Status(ErrorCode::kInvalidArgument,
                  what + " at offset " + std::to_string(i));
  };

  while (i < n) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::size_t end = i;
      bool has_dot = false;
      bool has_exp = false;
      while (end < n) {
        const char d = source[end];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++end;
        } else if (d == '.' && !has_dot && !has_exp) {
          has_dot = true;
          ++end;
        } else if ((d == 'e' || d == 'E') && !has_exp && end > i) {
          has_exp = true;
          ++end;
          if (end < n && (source[end] == '+' || source[end] == '-')) ++end;
        } else {
          break;
        }
      }
      tok.kind = TokenKind::kNumber;
      tok.text = source.substr(i, end - i);
      tok.is_integer = !has_dot && !has_exp;
      if (tok.is_integer) {
        // Read exactly, never rounded through a double; a literal outside
        // int64 is refused.
        const char* first = tok.text.data();
        if (std::from_chars(first, first + tok.text.size(), tok.integer).ec !=
            std::errc()) {
          return fail("integer literal '" + tok.text + "' out of range");
        }
      } else {
        try {
          tok.number = std::stod(tok.text);
        } catch (const std::exception&) {
          return fail("malformed number '" + tok.text + "'");
        }
      }
      i = end;
    } else if (c == '\'') {
      std::size_t end = i + 1;
      std::string text;
      while (end < n && source[end] != '\'') {
        text.push_back(source[end]);
        ++end;
      }
      if (end >= n) return fail("unterminated string literal");
      tok.kind = TokenKind::kString;
      tok.text = std::move(text);
      i = end + 1;
    } else if (ident_start(c)) {
      std::size_t end = i;
      while (end < n && ident_char(source[end])) ++end;
      tok.text = source.substr(i, end - i);
      tok.kind = keyword_kind(tok.text);
      i = end;
    } else {
      auto two = [&](char a, char b) {
        return c == a && i + 1 < n && source[i + 1] == b;
      };
      if (two('=', '=')) { tok.kind = TokenKind::kEq; i += 2; }
      else if (two('!', '=')) { tok.kind = TokenKind::kNe; i += 2; }
      else if (two('<', '=')) { tok.kind = TokenKind::kLe; i += 2; }
      else if (two('>', '=')) { tok.kind = TokenKind::kGe; i += 2; }
      else if (c == '<') { tok.kind = TokenKind::kLt; ++i; }
      else if (c == '>') { tok.kind = TokenKind::kGt; ++i; }
      else if (c == '~') { tok.kind = TokenKind::kTilde; ++i; }
      else if (c == '+') { tok.kind = TokenKind::kPlus; ++i; }
      else if (c == '-') { tok.kind = TokenKind::kMinus; ++i; }
      else if (c == '*') { tok.kind = TokenKind::kStar; ++i; }
      else if (c == '/') { tok.kind = TokenKind::kSlash; ++i; }
      else if (c == '(') { tok.kind = TokenKind::kLParen; ++i; }
      else if (c == ')') { tok.kind = TokenKind::kRParen; ++i; }
      else return fail(std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(std::move(tok));
  }
  Token end_tok;
  end_tok.kind = TokenKind::kEnd;
  end_tok.offset = n;
  tokens.push_back(end_tok);
  return tokens;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent, mirrors the grammar in the header)
// ---------------------------------------------------------------------------
namespace {

ExprPtr make_literal(cdr::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr make_property(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kProperty;
  e->property = std::move(name);
  return e;
}

ExprPtr make_unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprPtr> parse_full() {
    auto expr = parse_or();
    if (!expr.is_ok()) return expr;
    if (peek().kind != TokenKind::kEnd) {
      return error("trailing tokens after expression");
    }
    return expr;
  }

  Result<ExprPtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs.is_ok()) return lhs;
    ExprPtr node = std::move(lhs).value();
    while (peek().kind == TokenKind::kOr) {
      advance();
      auto rhs = parse_and();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(BinaryOp::kOr, std::move(node), std::move(rhs).value());
    }
    return node;
  }

  const Token& peek() const { return tokens_[pos_]; }

  /// The distinct names parsed so far, in first-mention order.
  std::vector<std::string> take_names() { return std::move(names_); }

 private:
  std::uint32_t name_index(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  Result<ExprPtr> parse_and() {
    auto lhs = parse_not();
    if (!lhs.is_ok()) return lhs;
    ExprPtr node = std::move(lhs).value();
    while (peek().kind == TokenKind::kAnd) {
      advance();
      auto rhs = parse_not();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(BinaryOp::kAnd, std::move(node), std::move(rhs).value());
    }
    return node;
  }

  Result<ExprPtr> parse_not() {
    if (peek().kind == TokenKind::kNot) {
      advance();
      auto operand = parse_not();
      if (!operand.is_ok()) return operand;
      return ExprPtr(make_unary(UnaryOp::kNot, std::move(operand).value()));
    }
    return parse_comparison();
  }

  Result<ExprPtr> parse_comparison() {
    auto lhs = parse_additive();
    if (!lhs.is_ok()) return lhs;
    BinaryOp op;
    switch (peek().kind) {
      case TokenKind::kEq: op = BinaryOp::kEq; break;
      case TokenKind::kNe: op = BinaryOp::kNe; break;
      case TokenKind::kLt: op = BinaryOp::kLt; break;
      case TokenKind::kLe: op = BinaryOp::kLe; break;
      case TokenKind::kGt: op = BinaryOp::kGt; break;
      case TokenKind::kGe: op = BinaryOp::kGe; break;
      case TokenKind::kTilde: op = BinaryOp::kSubstr; break;
      case TokenKind::kIn: op = BinaryOp::kIn; break;
      default:
        return lhs;
    }
    advance();
    auto rhs = parse_additive();
    if (!rhs.is_ok()) return rhs;
    return ExprPtr(make_binary(op, std::move(lhs).value(), std::move(rhs).value()));
  }

  Result<ExprPtr> parse_additive() {
    auto lhs = parse_mult();
    if (!lhs.is_ok()) return lhs;
    ExprPtr node = std::move(lhs).value();
    while (peek().kind == TokenKind::kPlus || peek().kind == TokenKind::kMinus) {
      const BinaryOp op =
          peek().kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
      advance();
      auto rhs = parse_mult();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, std::move(node), std::move(rhs).value());
    }
    return node;
  }

  Result<ExprPtr> parse_mult() {
    auto lhs = parse_unary();
    if (!lhs.is_ok()) return lhs;
    ExprPtr node = std::move(lhs).value();
    while (peek().kind == TokenKind::kStar || peek().kind == TokenKind::kSlash) {
      const BinaryOp op =
          peek().kind == TokenKind::kStar ? BinaryOp::kMul : BinaryOp::kDiv;
      advance();
      auto rhs = parse_unary();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, std::move(node), std::move(rhs).value());
    }
    return node;
  }

  Result<ExprPtr> parse_unary() {
    if (peek().kind == TokenKind::kMinus) {
      advance();
      auto operand = parse_unary();
      if (!operand.is_ok()) return operand;
      return ExprPtr(make_unary(UnaryOp::kNeg, std::move(operand).value()));
    }
    if (peek().kind == TokenKind::kExist) {
      advance();
      if (peek().kind != TokenKind::kIdent) {
        return error("'exist' requires a property name");
      }
      auto node = make_unary(UnaryOp::kExist, nullptr);
      node->property = peek().text;
      node->name_index = name_index(node->property);
      advance();
      return node;
    }
    return parse_primary();
  }

  Result<ExprPtr> parse_primary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::kNumber: {
        cdr::Value v =
            tok.is_integer ? cdr::Value(tok.integer) : cdr::Value(tok.number);
        advance();
        return make_literal(std::move(v));
      }
      case TokenKind::kString: {
        cdr::Value v(tok.text);
        advance();
        return make_literal(std::move(v));
      }
      case TokenKind::kTrue:
        advance();
        return make_literal(cdr::Value(true));
      case TokenKind::kFalse:
        advance();
        return make_literal(cdr::Value(false));
      case TokenKind::kIdent: {
        auto node = make_property(tok.text);
        node->name_index = name_index(node->property);
        advance();
        return node;
      }
      case TokenKind::kLParen: {
        advance();
        auto inner = parse_or();
        if (!inner.is_ok()) return inner;
        if (peek().kind != TokenKind::kRParen) return error("expected ')'");
        advance();
        return inner;
      }
      default:
        return error("expected a value, property, or '('");
    }
  }

  Result<ExprPtr> error(const std::string& what) const {
    return Status(ErrorCode::kInvalidArgument,
                  what + " at offset " + std::to_string(peek().offset));
  }

  void advance() { ++pos_; }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<std::string> names_;
};

}  // namespace

// ---------------------------------------------------------------------------
// AST printing (for diagnostics)
// ---------------------------------------------------------------------------
namespace {

const char* binary_op_name(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kOr: return "or";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kSubstr: return "~";
    case BinaryOp::kIn: return "in";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
  }
  return "?";
}

}  // namespace

std::string Expr::to_string() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.to_string();
    case ExprKind::kProperty:
      return property;
    case ExprKind::kUnary:
      // Parenthesized so the printed form reparses in any operand position
      // (e.g. as the right-hand side of an arithmetic operator).
      switch (unary_op) {
        case UnaryOp::kNeg: return "-(" + lhs->to_string() + ")";
        case UnaryOp::kNot: return "(not (" + lhs->to_string() + "))";
        case UnaryOp::kExist: return "(exist " + property + ")";
      }
      return "?";
    case ExprKind::kBinary:
      // Not "(" + temporary: gcc 12 at -O3 flags that with a false -Wrestrict.
      return std::string("(") + lhs->to_string() + " " +
             binary_op_name(binary_op) + " " + rhs->to_string() + ")";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------
namespace {

using cdr::ValueKind;

/// Where an evaluation keeps the strings it computes (concatenation):
/// empty, and allocating nothing, for every other expression.
using ComputedStrings = std::forward_list<std::string>;

/// What one evaluation step yields: undefined, or a value of some
/// ValueKind. A property's or literal's string or list is borrowed where it
/// lives and its scalars are read out, so an Operand copies no stored value
/// and is itself trivially copyable.
class Operand {
 public:
  static Operand undefined() { return Operand(); }
  static Operand borrow(const cdr::Value& value) {
    Operand out(value.kind());
    switch (out.kind_) {
      case ValueKind::kNull: break;
      case ValueKind::kBool: out.b_ = value.as_bool(); break;
      case ValueKind::kInt: out.i_ = value.as_int(); break;
      case ValueKind::kReal: out.d_ = value.as_real(); break;
      case ValueKind::kString: out.s_ = &value.as_string(); break;
      case ValueKind::kList: out.l_ = &value.as_list(); break;
    }
    return out;
  }
  static Operand of(bool b) {
    Operand out(ValueKind::kBool);
    out.b_ = b;
    return out;
  }
  static Operand of(std::int64_t i) {
    Operand out(ValueKind::kInt);
    out.i_ = i;
    return out;
  }
  static Operand of(double d) {
    Operand out(ValueKind::kReal);
    out.d_ = d;
    return out;
  }
  static Operand of(std::string s, ComputedStrings& computed) {
    Operand out(ValueKind::kString);
    computed.push_front(std::move(s));
    out.s_ = &computed.front();
    return out;
  }

  [[nodiscard]] bool defined() const { return defined_; }
  /// The accessors below mirror cdr::Value's; all but is_bool() require
  /// defined().
  [[nodiscard]] bool is_bool() const { return defined_ && kind_ == ValueKind::kBool; }
  [[nodiscard]] bool is_bool(bool b) const { return is_bool() && b_ == b; }
  [[nodiscard]] bool is_int() const { return kind_ == ValueKind::kInt; }
  [[nodiscard]] bool is_numeric() const {
    return kind_ == ValueKind::kInt || kind_ == ValueKind::kReal;
  }
  [[nodiscard]] bool is_string() const { return kind_ == ValueKind::kString; }
  [[nodiscard]] bool is_list() const { return kind_ == ValueKind::kList; }
  [[nodiscard]] bool as_bool() const { return b_; }
  [[nodiscard]] std::int64_t as_int() const { return i_; }
  [[nodiscard]] double to_real() const {
    return kind_ == ValueKind::kInt ? static_cast<double>(i_) : d_;
  }
  [[nodiscard]] const std::string& as_string() const { return *s_; }
  [[nodiscard]] const cdr::ValueList& as_list() const { return *l_; }

  /// cdr::Value's equality: numerics by value, anything else by kind and
  /// content.
  friend bool operator==(const Operand& a, const Operand& b) {
    if (a.is_numeric() && b.is_numeric()) return a.to_real() == b.to_real();
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case ValueKind::kNull: return true;
      case ValueKind::kBool: return a.b_ == b.b_;
      case ValueKind::kString: return a.as_string() == b.as_string();
      case ValueKind::kList: return *a.l_ == *b.l_;
      default: return false;  // numerics compared above
    }
  }

  /// The value as a cdr::Value (a copy). Requires defined().
  [[nodiscard]] cdr::Value to_value() const {
    switch (kind_) {
      case ValueKind::kNull: return cdr::Value();
      case ValueKind::kBool: return cdr::Value(b_);
      case ValueKind::kInt: return cdr::Value(i_);
      case ValueKind::kReal: return cdr::Value(d_);
      case ValueKind::kString: return cdr::Value(as_string());
      case ValueKind::kList: return cdr::Value(*l_);
    }
    return cdr::Value();
  }

 private:
  Operand() = default;
  explicit Operand(ValueKind kind) : kind_(kind), defined_(true) {}

  ValueKind kind_ = ValueKind::kNull;
  bool defined_ = false;
  union {
    bool b_;
    std::int64_t i_;
    double d_;
    const std::string* s_;
    const cdr::ValueList* l_ = nullptr;
  };
};

Operand eval_compare(BinaryOp op, const Operand& a, const Operand& b) {
  if (!a.defined() || !b.defined()) return Operand::undefined();

  if (op == BinaryOp::kEq) return Operand::of(a == b);
  if (op == BinaryOp::kNe) return Operand::of(!(a == b));

  // Ordering: numerics against numerics, strings against strings.
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.to_real();
    const double y = b.to_real();
    bool out = false;
    switch (op) {
      case BinaryOp::kLt: out = x < y; break;
      case BinaryOp::kLe: out = x <= y; break;
      case BinaryOp::kGt: out = x > y; break;
      case BinaryOp::kGe: out = x >= y; break;
      default: return Operand::undefined();
    }
    return Operand::of(out);
  }
  if (a.is_string() && b.is_string()) {
    const int cmp = a.as_string().compare(b.as_string());
    bool out = false;
    switch (op) {
      case BinaryOp::kLt: out = cmp < 0; break;
      case BinaryOp::kLe: out = cmp <= 0; break;
      case BinaryOp::kGt: out = cmp > 0; break;
      case BinaryOp::kGe: out = cmp >= 0; break;
      default: return Operand::undefined();
    }
    return Operand::of(out);
  }
  return Operand::undefined();  // type mismatch
}

Operand eval_arith(BinaryOp op, const Operand& a, const Operand& b,
                   ComputedStrings& computed) {
  if (!a.defined() || !b.defined()) return Operand::undefined();
  // String concatenation with '+', like many trader implementations allow.
  if (op == BinaryOp::kAdd && a.is_string() && b.is_string()) {
    return Operand::of(a.as_string() + b.as_string(), computed);
  }
  if (!a.is_numeric() || !b.is_numeric()) return Operand::undefined();

  // Preserve integer arithmetic when both sides are integers (division
  // excepted: it is always real, so `ram / 2` never truncates surprisingly).
  // Results that would overflow int64 fall through to double arithmetic.
  if (a.is_int() && b.is_int() && op != BinaryOp::kDiv) {
    const std::int64_t x = a.as_int();
    const std::int64_t y = b.as_int();
    std::int64_t out = 0;
    switch (op) {
      case BinaryOp::kAdd:
        if (!__builtin_add_overflow(x, y, &out)) return Operand::of(out);
        break;
      case BinaryOp::kSub:
        if (!__builtin_sub_overflow(x, y, &out)) return Operand::of(out);
        break;
      case BinaryOp::kMul:
        if (!__builtin_mul_overflow(x, y, &out)) return Operand::of(out);
        break;
      default: break;
    }
  }
  const double x = a.to_real();
  const double y = b.to_real();
  switch (op) {
    case BinaryOp::kAdd: return Operand::of(x + y);
    case BinaryOp::kSub: return Operand::of(x - y);
    case BinaryOp::kMul: return Operand::of(x * y);
    case BinaryOp::kDiv:
      if (y == 0.0) return Operand::undefined();
      return Operand::of(x / y);
    default:
      return Operand::undefined();
  }
}

/// Reads a property by name: the reference path.
class NameReader {
 public:
  explicit NameReader(const PropertySet& props) : props_(&props) {}
  const cdr::Value* operator()(const Expr& expr) const {
    return props_->find(expr.property);
  }

 private:
  const PropertySet* props_;
};

/// The evaluator. `read(expr)` returns the value of the property a
/// kProperty or kExist node names, or nullptr when the offer lacks it.
template <class Read>
Operand eval(const Expr& expr, const Read& read, ComputedStrings& computed) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Operand::borrow(expr.literal);

    case ExprKind::kProperty: {
      const cdr::Value* value = read(expr);
      return value == nullptr ? Operand::undefined() : Operand::borrow(*value);
    }

    case ExprKind::kUnary:
      switch (expr.unary_op) {
        case UnaryOp::kExist:
          return Operand::of(read(expr) != nullptr);
        case UnaryOp::kNot: {
          const Operand v = eval(*expr.lhs, read, computed);
          if (!v.is_bool()) return Operand::undefined();
          return Operand::of(!v.as_bool());
        }
        case UnaryOp::kNeg: {
          const Operand v = eval(*expr.lhs, read, computed);
          if (!v.defined() || !v.is_numeric()) return Operand::undefined();
          if (v.is_int() && v.as_int() != std::numeric_limits<std::int64_t>::min()) {
            return Operand::of(-v.as_int());
          }
          return Operand::of(-v.to_real());
        }
      }
      return Operand::undefined();

    case ExprKind::kBinary: {
      switch (expr.binary_op) {
        case BinaryOp::kAnd: {
          // Short-circuit with three-valued logic: false and X == false.
          const Operand l = eval(*expr.lhs, read, computed);
          if (l.is_bool(false)) return Operand::of(false);
          const Operand r = eval(*expr.rhs, read, computed);
          if (r.is_bool(false)) return Operand::of(false);
          if (!l.is_bool() || !r.is_bool()) return Operand::undefined();
          return Operand::of(true);
        }
        case BinaryOp::kOr: {
          const Operand l = eval(*expr.lhs, read, computed);
          if (l.is_bool(true)) return Operand::of(true);
          const Operand r = eval(*expr.rhs, read, computed);
          if (r.is_bool(true)) return Operand::of(true);
          if (!l.is_bool() || !r.is_bool()) return Operand::undefined();
          return Operand::of(false);
        }
        case BinaryOp::kSubstr: {
          const Operand l = eval(*expr.lhs, read, computed);
          const Operand r = eval(*expr.rhs, read, computed);
          if (!l.defined() || !r.defined() || !l.is_string() ||
              !r.is_string()) {
            return Operand::undefined();
          }
          return Operand::of(r.as_string().find(l.as_string()) !=
                             std::string::npos);
        }
        case BinaryOp::kIn: {
          const Operand l = eval(*expr.lhs, read, computed);
          const Operand r = eval(*expr.rhs, read, computed);
          if (!l.defined() || !r.defined() || !r.is_list()) {
            return Operand::undefined();
          }
          for (const auto& item : r.as_list()) {
            if (Operand::borrow(item) == l) return Operand::of(true);
          }
          return Operand::of(false);
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return eval_compare(expr.binary_op, eval(*expr.lhs, read, computed),
                              eval(*expr.rhs, read, computed));
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return eval_arith(expr.binary_op, eval(*expr.lhs, read, computed),
                            eval(*expr.rhs, read, computed), computed);
      }
      return Operand::undefined();
    }
  }
  return Operand::undefined();
}

template <class Read>
bool eval_matches(const Expr& expr, const Read& read) {
  ComputedStrings computed;
  return eval(expr, read, computed).is_bool(true);
}

}  // namespace

EvalResult evaluate(const Expr& expr, const PropertySet& props) {
  ComputedStrings computed;
  const Operand out = eval(expr, NameReader(props), computed);
  return out.defined() ? EvalResult::of(out.to_value()) : EvalResult::undef();
}

bool matches(const Expr& expr, const PropertySet& props) {
  return eval_matches(expr, NameReader(props));
}

// ---------------------------------------------------------------------------
// Constraint / Preference
// ---------------------------------------------------------------------------
namespace {

/// Parse a whole token stream as one expression.
Result<std::shared_ptr<const ParsedExpr>> parse_expr(std::vector<Token> tokens) {
  Parser parser(std::move(tokens));
  auto expr = parser.parse_full();
  if (!expr.is_ok()) return expr.status();
  auto parsed = std::make_shared<ParsedExpr>();
  parsed->root = std::move(expr).value();
  parsed->names = parser.take_names();
  return std::shared_ptr<const ParsedExpr>(std::move(parsed));
}

}  // namespace

Constraint::Constraint(std::string source, std::shared_ptr<const ParsedExpr> parsed)
    : source_(std::move(source)), parsed_(std::move(parsed)) {}

Result<Constraint> Constraint::parse(const std::string& source) {
  auto tokens = tokenize(source);
  if (!tokens.is_ok()) return tokens.status();
  auto parsed = parse_expr(std::move(tokens).value());
  if (!parsed.is_ok()) return parsed.status();
  return Constraint(source, std::move(parsed).value());
}

Constraint Constraint::always() {
  auto parsed = parse("true");
  assert(parsed.is_ok());
  return std::move(parsed).value();
}

bool Constraint::matches(const PropertySet& props) const {
  return eval_matches(*parsed_->root, NameReader(props));
}

bool Constraint::matches(const SlotReader& offer) const {
  return eval_matches(*parsed_->root, offer);
}

Result<Preference> Preference::parse(const std::string& source) {
  auto tokens = tokenize(source);
  if (!tokens.is_ok()) return tokens.status();
  auto toks = std::move(tokens).value();
  if (toks.empty() || toks.front().kind == TokenKind::kEnd) {
    return Preference::first();
  }
  Kind kind;
  switch (toks.front().kind) {
    case TokenKind::kMax: kind = Kind::kMax; break;
    case TokenKind::kMin: kind = Kind::kMin; break;
    case TokenKind::kWith: kind = Kind::kWith; break;
    case TokenKind::kRandom:
      return Preference(Kind::kRandom, nullptr);
    case TokenKind::kFirst:
      return Preference(Kind::kFirst, nullptr);
    default:
      return Status(ErrorCode::kInvalidArgument,
                    "preference must start with max/min/with/random/first");
  }
  toks.erase(toks.begin());
  auto parsed = parse_expr(std::move(toks));
  if (!parsed.is_ok()) return parsed.status();
  return Preference(kind, std::move(parsed).value());
}

Preference Preference::first() { return Preference(Kind::kFirst, nullptr); }

const std::vector<std::string>& Preference::names() const {
  static const std::vector<std::string> kNone;
  return expr_ != nullptr ? expr_->names : kNone;
}

std::vector<std::size_t> Preference::rank(
    const std::vector<const PropertySet*>& sets, Rng* rng) const {
  return top(sets, 0, rng);
}

std::vector<std::size_t> Preference::top(
    const std::vector<const PropertySet*>& sets, std::size_t k,
    Rng* rng) const {
  return top_of(sets, k, rng);
}

std::vector<std::size_t> Preference::top(const std::vector<SlotReader>& offers,
                                         std::size_t k, Rng* rng) const {
  return top_of(offers, k, rng);
}

namespace {

NameReader reader_of(const PropertySet* props) { return NameReader(*props); }
const SlotReader& reader_of(const SlotReader& offer) { return offer; }

}  // namespace

template <class Offers>
std::vector<std::size_t> Preference::top_of(const Offers& sets, std::size_t k,
                                            Rng* rng) const {
  std::vector<std::size_t> order(sets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const bool partial = k > 0 && k < order.size();

  switch (kind_) {
    case Kind::kFirst:
      if (partial) order.resize(k);
      return order;
    case Kind::kRandom: {
      // Always a full shuffle: the number of Rng draws must not depend on k,
      // or experiments replay differently through top-k vs full-rank paths.
      if (rng != nullptr) rng->shuffle(order);
      if (partial) order.resize(k);
      return order;
    }
    case Kind::kWith: {
      std::vector<char> match(sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        match[i] = eval_matches(*expr_->root, reader_of(sets[i])) ? 1 : 0;
      }
      if (partial) {
        // A stable sort under comparator c equals an ordinary sort under the
        // total order (c, index); partial_sort under that total order yields
        // exactly the first k of the stable full rank.
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(k),
                          order.end(), [&](std::size_t a, std::size_t b) {
                            if (match[a] != match[b]) return match[a] > match[b];
                            return a < b;
                          });
        order.resize(k);
      } else {
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return match[a] != 0 && match[b] == 0;
                         });
      }
      return order;
    }
    case Kind::kMax:
    case Kind::kMin: {
      // Score each offer once; undefined scores sort after defined ones.
      std::vector<std::pair<bool, double>> score(sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        ComputedStrings computed;
        const Operand r = eval(*expr_->root, reader_of(sets[i]), computed);
        if (r.defined() && r.is_numeric()) {
          score[i] = {true, r.to_real()};
        } else {
          score[i] = {false, 0.0};
        }
      }
      const bool maximize = kind_ == Kind::kMax;
      const auto before = [&](std::size_t a, std::size_t b) {
        if (score[a].first != score[b].first) {
          return score[a].first;  // defined before undefined
        }
        if (!score[a].first) return false;
        return maximize ? score[a].second > score[b].second
                        : score[a].second < score[b].second;
      };
      if (partial) {
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(k),
                          order.end(), [&](std::size_t a, std::size_t b) {
                            if (before(a, b)) return true;
                            if (before(b, a)) return false;
                            return a < b;
                          });
        order.resize(k);
      } else {
        std::stable_sort(order.begin(), order.end(), before);
      }
      return order;
    }
  }
  return order;
}

}  // namespace integrade::services
