#include "column/value.h"

#include "util/string_util.h"

namespace sciborq {

std::string Value::ToString() const {
  if (is_null()) return "";
  if (is_int64()) return StrFormat("%lld", static_cast<long long>(int64()));
  if (is_double()) return StrFormat("%.17g", dbl());
  return str();
}

bool Value::operator==(const Value& other) const {
  if (payload_.index() != other.payload_.index()) return false;
  if (is_int64()) return int64() == other.int64();
  if (is_double()) return dbl() == other.dbl();
  if (is_string()) return str() == other.str();
  return true;  // both null
}

}  // namespace sciborq
