#include "cdr/value.hpp"

#include <sstream>

namespace integrade::cdr {

const char* value_kind_name(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return "null";
    case ValueKind::kBool: return "bool";
    case ValueKind::kInt: return "int";
    case ValueKind::kReal: return "real";
    case ValueKind::kString: return "string";
    case ValueKind::kList: return "list";
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) return to_real() == other.to_real();
  return data_ == other.data_;
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (kind()) {
    case ValueKind::kNull:
      os << "null";
      break;
    case ValueKind::kBool:
      os << (as_bool() ? "true" : "false");
      break;
    case ValueKind::kInt:
      os << as_int();
      break;
    case ValueKind::kReal:
      os << as_real();
      break;
    case ValueKind::kString:
      os << '\'' << as_string() << '\'';
      break;
    case ValueKind::kList: {
      os << '[';
      bool first = true;
      for (const auto& v : as_list()) {
        if (!first) os << ", ";
        first = false;
        os << v.to_string();
      }
      os << ']';
      break;
    }
  }
  return os.str();
}

void Codec<Value>::encode(Writer& w, const Value& v) {
  w.write_u8(static_cast<std::uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      w.write_bool(v.as_bool());
      break;
    case ValueKind::kInt:
      w.write_i64(v.as_int());
      break;
    case ValueKind::kReal:
      w.write_f64(v.as_real());
      break;
    case ValueKind::kString:
      w.write_string(v.as_string());
      break;
    case ValueKind::kList:
      encode_sequence(w, v.as_list());
      break;
  }
}

Value Codec<Value>::decode(Reader& r) {
  const auto kind = static_cast<ValueKind>(r.read_u8());
  switch (kind) {
    case ValueKind::kNull:
      return Value();
    case ValueKind::kBool:
      return Value(r.read_bool());
    case ValueKind::kInt:
      return Value(r.read_i64());
    case ValueKind::kReal:
      return Value(r.read_f64());
    case ValueKind::kString:
      return Value(r.read_string());
    case ValueKind::kList:
      return Value(decode_sequence<Value>(r));
  }
  r.fail();  // corrupt tag: no encoder writes it
  return Value();
}

}  // namespace integrade::cdr
