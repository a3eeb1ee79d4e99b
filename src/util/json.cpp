#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <system_error>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace fghp::json {

// ------------------------------------------------------------- writer ----

Writer& Writer::begin_object() { return open('{', true); }
Writer& Writer::begin_array() { return open('[', false); }

Writer& Writer::end_object() {
  FGHP_ASSERT(!stack_.empty() && stack_.back().object && !keyWritten_);
  return close('}');
}

Writer& Writer::end_array() {
  FGHP_ASSERT(!stack_.empty() && !stack_.back().object);
  return close(']');
}

Writer& Writer::key(std::string_view k) {
  FGHP_ASSERT(!stack_.empty() && stack_.back().object && !keyWritten_);
  Frame& f = stack_.back();
  if (f.entries++ > 0) out_ << ',';
  newline(stack_.size());
  string(k);
  out_ << ": ";
  keyWritten_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value(false);
  string(s);
  return end_value();
}

Writer& Writer::value(bool b) { return scalar(b ? "true" : "false"); }

template <class T>
Writer& Writer::chars(T v) {
  char buf[32];  // the longest double, "-1.7976931348623157e+308", is 24
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return scalar(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Writer& Writer::value(double d) { return std::isfinite(d) ? chars(d) : null(); }
Writer& Writer::integer(std::int64_t v) { return chars(v); }
Writer& Writer::unsigned_integer(std::uint64_t v) { return chars(v); }
Writer& Writer::null() { return scalar("null"); }

Writer& Writer::thousandths(std::uint64_t n) {
  char buf[32];
  char* p = std::to_chars(buf, buf + sizeof buf, n / 1000).ptr;
  const auto frac = static_cast<unsigned>(n % 1000);
  *p++ = '.';
  *p++ = static_cast<char>('0' + frac / 100);
  *p++ = static_cast<char>('0' + frac / 10 % 10);
  *p++ = static_cast<char>('0' + frac % 10);
  return scalar(std::string_view(buf, static_cast<std::size_t>(p - buf)));
}

Writer& Writer::scalar(std::string_view text) {
  before_value(false);
  out_ << text;
  return end_value();
}

Writer& Writer::end_value() {
  if (stack_.empty()) out_ << '\n';  // the document is complete
  return *this;
}

void Writer::before_value(bool container) {
  if (stack_.empty()) return;
  Frame& f = stack_.back();
  if (f.object) {
    FGHP_ASSERT(keyWritten_);
    keyWritten_ = false;
    return;
  }
  if (f.entries == 0) f.inlineArray = !container;
  if (f.inlineArray) {
    if (f.entries > 0) out_ << ", ";
  } else {
    if (f.entries > 0) out_ << ',';
    newline(stack_.size());
  }
  ++f.entries;
}

Writer& Writer::open(char bracket, bool object) {
  before_value(true);
  out_ << bracket;
  stack_.push_back({object, false, 0});
  return *this;
}

Writer& Writer::close(char bracket) {
  const Frame f = stack_.back();
  stack_.pop_back();
  if (f.entries > 0 && !f.inlineArray) newline(stack_.size());
  out_ << bracket;
  return end_value();
}

void Writer::newline(std::size_t depth) {
  out_ << '\n';
  for (std::size_t i = 0; i < depth; ++i) out_ << "  ";
}

void Writer::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ << '\\' << c;
    } else if (u < 0x20) {
      const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 15]};
      out_.write(esc, sizeof esc);
    } else {
      out_ << c;
    }
  }
  out_ << '"';
}

void write_output(const std::string& pathOrDash, const std::string& what,
                  const std::function<void(std::ostream&)>& write) {
  if (pathOrDash == "-") {
    write(std::cout);
    std::cout.flush();
    if (!std::cout) throw IoError(what + " write to stdout failed");
    return;
  }
  std::ofstream out(pathOrDash);
  if (!out)
    throw IoError("cannot open " + what + " file for writing: " + pathOrDash,
                  at_path(pathOrDash));
  write(out);
  out.flush();
  if (!out) throw IoError(what + " write failed: " + pathOrDash, at_path(pathOrDash));
}

// ------------------------------------------------------------- reader ----

const Value& Value::at(const std::string& key) const {
  if (type != Type::kObject) throw FormatError("JSON: member access on a non-object");
  const auto it = object.find(key);
  if (it == object.end()) throw FormatError("JSON: missing member '" + key + "'");
  return it->second;
}

namespace {

const Value& typed_at(const Value& obj, const std::string& key, Value::Type want,
                      const char* wantName) {
  const Value& v = obj.at(key);
  if (v.type != want)
    throw FormatError("JSON: member '" + key + "' must be " + wantName);
  return v;
}

}  // namespace

long long Value::int_at(const std::string& key) const {
  const Value& v = typed_at(*this, key, Type::kNumber, "an integer");
  if (std::trunc(v.number) != v.number)
    throw FormatError("JSON: member '" + key + "' must be an integer");
  return v.integer;
}

double Value::number_at(const std::string& key) const {
  return typed_at(*this, key, Type::kNumber, "a number").number;
}

const std::string& Value::string_at(const std::string& key) const {
  return typed_at(*this, key, Type::kString, "a string").str;
}

bool Value::bool_at(const std::string& key) const {
  return typed_at(*this, key, Type::kBool, "a boolean").boolean;
}

const std::vector<Value>& Value::array_at(const std::string& key) const {
  return typed_at(*this, key, Type::kArray, "an array").array;
}

const Value& Value::object_at(const std::string& key) const {
  return typed_at(*this, key, Type::kObject, "an object");
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// `d` truncated toward zero, saturated to the int64 range.
std::int64_t saturate(double d) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (d >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (d <= -kLimit) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Value parse_document() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw FormatError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_lit(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    skip_ws();
    const char c = peek();
    Value v;
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      ++pos_;
      const bool isObject = c == '{';
      const char close = isObject ? '}' : ']';
      v.type = isObject ? Value::Type::kObject : Value::Type::kArray;
      skip_ws();
      if (peek() == close) {
        ++pos_;
        return v;
      }
      for (;;) {
        if (isObject) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          v.object[std::move(key)] = parse_value(depth + 1);
        } else {
          v.array.push_back(parse_value(depth + 1));
        }
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
      expect(close);
      return v;
    }
    if (c == '"') {
      v.type = Value::Type::kString;
      v.str = parse_string();
      return v;
    }
    if (consume_lit("true") || consume_lit("false")) {
      v.type = Value::Type::kBool;
      v.boolean = c == 't';
      return v;
    }
    if (consume_lit("null")) return v;
    if (c == '-' || is_digit(c)) return parse_number();
    fail("unexpected character");
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, matched in full before
  /// std::from_chars converts it.
  Value parse_number() {
    const std::size_t start = pos_;
    const auto digits = [this] {
      if (pos_ >= s_.size() || !is_digit(s_[pos_])) fail("malformed number");
      while (pos_ < s_.size() && is_digit(s_[pos_])) ++pos_;
    };
    if (s_[pos_] == '-') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '0')
      ++pos_;
    else
      digits();
    bool integral = true;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      integral = false;
      ++pos_;
      digits();
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      digits();
    }
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    Value v;
    v.type = Value::Type::kNumber;
    if (std::from_chars(first, last, v.number).ec != std::errc{})
      fail("number out of range");
    if (!integral || std::from_chars(first, last, v.integer).ec != std::errc{})
      v.integer = saturate(v.number);
    return v;
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    const char* first = s_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
    const auto r = std::from_chars(first, last, code, 16);
    if (r.ec != std::errc{} || r.ptr != first + 4) fail("\\u needs four hex digits");
    pos_ += 4;
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated string");
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The writer escapes only bytes below 0x20; other code points
          // have no single-byte form and read as '?'.
          const unsigned code = parse_hex4();
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace fghp::json
