#ifndef SCIBORQ_COLUMN_VALUE_H_
#define SCIBORQ_COLUMN_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "column/types.h"

namespace sciborq {

/// A single scalar cell: null, int64, double, or string. Used at API
/// boundaries (row append, scalar query answers); the hot paths operate on
/// typed column storage directly.
class Value {
 public:
  /// Null value.
  Value() = default;
  Value(int64_t v) : payload_(v) {}            // NOLINT(runtime/explicit)
  Value(double v) : payload_(v) {}             // NOLINT(runtime/explicit)
  Value(std::string v) : payload_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : payload_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(payload_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(payload_); }
  bool is_double() const { return std::holds_alternative<double>(payload_); }
  bool is_string() const { return std::holds_alternative<std::string>(payload_); }

  int64_t int64() const { return std::get<int64_t>(payload_); }
  double dbl() const { return std::get<double>(payload_); }
  const std::string& str() const { return std::get<std::string>(payload_); }

  /// Numeric view: int64 and double both convert; null/string are an error to
  /// call (checked in debug builds by the std::variant access).
  double AsDouble() const {
    if (is_int64()) return static_cast<double>(int64());
    return dbl();
  }

  /// Renders the value for debugging / CSV ("" for null).
  std::string ToString() const;

  /// Same type and same content (doubles compare with ==, so NaN != NaN).
  /// Out of line: GCC 12 flags std::variant's inlined operator== under
  /// sanitizer instrumentation with a spurious -Wmaybe-uninitialized.
  bool operator==(const Value& other) const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> payload_;
};

}  // namespace sciborq

#endif  // SCIBORQ_COLUMN_VALUE_H_
