// The JSON codec: one streaming writer and one reader for every document the
// library and its tools produce or consume — RunReports (--report-out),
// metrics (--metrics-out), Chrome traces (--trace-out / FGHP_TRACE), the
// benches' BENCH_*.json and `fghp_tool partition --json`.
//
// Writer rules, implemented here and nowhere else:
//  * strings: '"', '\' and every byte below 0x20 are escaped ('\"', '\\',
//    '\u00XX'); every other byte, UTF-8 included, is written as is;
//  * numbers: integers are written exactly; doubles in the shortest form
//    that reads back to the same value (std::to_chars); NaN and ±Inf, which
//    JSON cannot express, as null;
//  * layout: two-space indent; every object member on its own line with its
//    key and scalar value on that line (`"key": value`, what scripts grep
//    for); an array whose first element is a scalar on one line, any other
//    array one element per line; one trailing newline.
//
// Reader rules: the JSON grammar in full, nothing more. Numbers must match
// the number grammar exactly; '\u' takes exactly four hex digits (code
// points above 0x7f, which the writer never escapes, read as '?'); control
// bytes inside strings must be escaped; nesting is capped at kMaxDepth.
// Any violation is a FormatError naming the byte offset — malformed input
// never crashes the reader and never surfaces as another error type.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fghp::json {

// ------------------------------------------------------------- writer ----

/// Streams one JSON document to `out` as the calls arrive; builds nothing in
/// memory beyond the open-container stack. Calls must form one well-nested
/// value: key() exactly before each value inside an object, never inside an
/// array.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b);
  Writer& value(double d);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T v) {
    if constexpr (std::is_signed_v<T>)
      return integer(static_cast<std::int64_t>(v));
    else
      return unsigned_integer(static_cast<std::uint64_t>(v));
  }
  Writer& null();
  /// The exact decimal n / 1000 with three places ("12.345"): integer
  /// nanoseconds written as microseconds without rounding.
  Writer& thousandths(std::uint64_t n);

  template <class T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  struct Frame {
    bool object = false;
    bool inlineArray = false;  ///< decided by the array's first element
    std::size_t entries = 0;
  };

  Writer& integer(std::int64_t v);
  Writer& unsigned_integer(std::uint64_t v);
  template <class T>
  Writer& chars(T v);  ///< std::to_chars text of a number
  Writer& scalar(std::string_view text);
  Writer& end_value();
  Writer& open(char bracket, bool object);
  Writer& close(char bracket);
  void before_value(bool container);
  void newline(std::size_t depth);
  void string(std::string_view s);

  std::ostream& out_;
  std::vector<Frame> stack_;
  bool keyWritten_ = false;
};

/// Runs `write` against stdout when `pathOrDash` is "-", else against the
/// file at that path (truncated), then flushes. Throws IoError naming `what`
/// ("report", "metrics", ...) when the file cannot be opened or the write
/// fails.
void write_output(const std::string& pathOrDash, const std::string& what,
                  const std::function<void(std::ostream&)>& write);

// ------------------------------------------------------------- reader ----

/// Containers nested deeper than this are rejected (bounds the recursion).
inline constexpr int kMaxDepth = 256;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;      ///< every number, as the nearest double
  std::int64_t integer = 0; ///< exact for integer literals that fit, else
                            ///< `number` truncated (saturating)
  std::string str;
  std::map<std::string, Value> object;  ///< last duplicate key wins
  std::vector<Value> array;

  /// Member access; throws FormatError when absent or not an object.
  const Value& at(const std::string& key) const;

  /// Checked member reads: like at(), and the member must also hold the
  /// named type — an integer is a number with no fractional part — else a
  /// FormatError names the key and the expected type.
  long long int_at(const std::string& key) const;
  double number_at(const std::string& key) const;
  const std::string& string_at(const std::string& key) const;
  bool bool_at(const std::string& key) const;
  const std::vector<Value>& array_at(const std::string& key) const;
  const Value& object_at(const std::string& key) const;
};

/// Parses one JSON document. Throws FormatError on malformed input.
Value parse(std::string_view text);

}  // namespace fghp::json
