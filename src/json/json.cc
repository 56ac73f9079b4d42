#include "src/json/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace cheriot::json {

namespace {
const Value kNull{};
const std::string kEmptyString;
const Array kEmptyArray;
const Object kEmptyObject;
}  // namespace

// --- Object -----------------------------------------------------------------

Object::Object(std::initializer_list<value_type> members) {
  members_.reserve(members.size());
  for (const value_type& m : members) {
    emplace(m.first, m.second);
  }
}

size_t Object::LowerBound(std::string_view key) const {
  // Appending in key order is the common case (exporters and the parser
  // mostly see sorted keys), so check the end before bisecting.
  if (members_.empty() || std::string_view(members_.back().first) < key) {
    return members_.size();
  }
  return static_cast<size_t>(
      std::lower_bound(members_.begin(), members_.end(), key,
                       [](const value_type& m, std::string_view k) {
                         return std::string_view(m.first) < k;
                       }) -
      members_.begin());
}

Value& Object::operator[](std::string_view key) {
  const size_t i = LowerBound(key);
  if (i < members_.size() && members_[i].first == key) {
    return members_[i].second;
  }
  return members_.emplace(members_.begin() + static_cast<ptrdiff_t>(i),
                          std::string(key), Value())
      ->second;
}

std::pair<Object::iterator, bool> Object::emplace(std::string key,
                                                  Value value) {
  const size_t i = LowerBound(key);
  const auto at = members_.begin() + static_cast<ptrdiff_t>(i);
  if (i < members_.size() && members_[i].first == key) {
    return {at, false};
  }
  return {members_.emplace(at, std::move(key), std::move(value)), true};
}

Object::iterator Object::find(std::string_view key) {
  const size_t i = LowerBound(key);
  return i < members_.size() && members_[i].first == key
             ? members_.begin() + static_cast<ptrdiff_t>(i)
             : members_.end();
}

Object::const_iterator Object::find(std::string_view key) const {
  const size_t i = LowerBound(key);
  return i < members_.size() && members_[i].first == key
             ? members_.begin() + static_cast<ptrdiff_t>(i)
             : members_.end();
}

// --- Value ------------------------------------------------------------------

Value::Value(bool b) : data_(b) {}
Value::Value(int i) : data_(int64_t{i}) {}
Value::Value(int64_t i) : data_(i) {}
Value::Value(uint32_t i) : data_(int64_t{i}) {}
Value::Value(uint64_t i) : data_(static_cast<int64_t>(i)) {}
Value::Value(double d) : data_(d) {}

bool Value::AsBool() const {
  const bool* b = std::get_if<bool>(&data_);
  return b != nullptr && *b;
}

int64_t Value::AsInt() const {
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return *i;
  }
  if (const double* d = std::get_if<double>(&data_)) {
    return static_cast<int64_t>(*d);
  }
  return 0;
}

double Value::AsDouble() const {
  if (const double* d = std::get_if<double>(&data_)) {
    return *d;
  }
  if (const int64_t* i = std::get_if<int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  return 0;
}

const std::string& Value::AsString() const {
  const std::string* s = std::get_if<std::string>(&data_);
  return s != nullptr ? *s : kEmptyString;
}

const Array& Value::AsArray() const {
  const auto* a = std::get_if<std::shared_ptr<Array>>(&data_);
  return a != nullptr ? **a : kEmptyArray;
}

const Object& Value::AsObject() const {
  const auto* o = std::get_if<std::shared_ptr<Object>>(&data_);
  return o != nullptr ? **o : kEmptyObject;
}

const Value& Value::operator[](const std::string& key) const {
  const Object& o = AsObject();
  auto it = o.find(key);
  return it == o.end() ? kNull : it->second;
}

size_t Value::size() const {
  switch (type()) {
    case Type::kArray: return AsArray().size();
    case Type::kObject: return AsObject().size();
    default: return 0;
  }
}

// --- Writer -----------------------------------------------------------------
//
// Format rules (every exporter's bytes depend on them): with indent >= 0 each
// array element and object member sits on its own line, indented by
// indent * depth spaces, and the closing bracket on a line at the parent's
// depth; empty containers print as [] and {}. Members are separated by ","
// and a key from its value by ": " in both modes. Integers print in decimal,
// doubles as printf("%g"). Strings escape '"', '\\', \n, \r and \t by name,
// other bytes below 0x20 as \u00xx, and pass every other byte through.

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(u, sizeof u);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  AppendEscaped(out, s);
  out->push_back('"');
}

// Newline plus indentation for a line at `depth`; nothing when compact.
void NewLine(std::string* out, int indent, int depth) {
  if (indent >= 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
  }
}

}  // namespace

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendEscaped(&out, s);
  return out;
}

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out->append("null"); break;
    case Type::kBool: out->append(std::get<bool>(data_) ? "true" : "false"); break;
    case Type::kInt: {
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof buf, std::get<int64_t>(data_));
      out->append(buf, r.ptr);
      break;
    }
    case Type::kDouble: {
      char buf[32];
      const int n = std::snprintf(buf, sizeof buf, "%g", std::get<double>(data_));
      out->append(buf, static_cast<size_t>(n));
      break;
    }
    case Type::kString: AppendString(out, std::get<std::string>(data_)); break;
    case Type::kArray: {
      const Array& a = AsArray();
      if (a.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < a.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        NewLine(out, indent, depth + 1);
        a[i].DumpTo(out, indent, depth + 1);
      }
      NewLine(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& o = AsObject();
      if (o.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : o) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        NewLine(out, indent, depth + 1);
        AppendString(out, k);
        out->append(": ");
        v.DumpTo(out, indent, depth + 1);
      }
      NewLine(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

// --- Parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value ParseDocument() {
    Value v = ParseValue();
    SkipWs();
    if (pos_ != text_.size()) {
      Fail("trailing characters");
    }
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) { FailAt(pos_, why); }
  [[noreturn]] void FailAt(size_t offset, const std::string& why) {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(offset) + ": " + why);
  }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }
  bool Consume(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value ParseValue() {
    SkipWs();
    const char c = Peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxParseDepth) {
        Fail("nesting deeper than " + std::to_string(kMaxParseDepth));
      }
      ++depth_;
      Value v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      return Value(ParseString());
    }
    if (Consume("true")) {
      return Value(true);
    }
    if (Consume("false")) {
      return Value(false);
    }
    if (Consume("null")) {
      return Value();
    }
    return ParseNumber();
  }

  Value ParseObject() {
    Expect('{');
    Object obj;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      SkipWs();
      std::string key = ParseString();
      SkipWs();
      Expect(':');
      obj.emplace(std::move(key), ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return Value(std::move(obj));
    }
  }

  Value ParseArray() {
    Expect('[');
    Array arr;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(ParseValue());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return Value(std::move(arr));
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("bad escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const char* last = first + std::min<size_t>(4, text_.size() - pos_);
          const auto r = std::from_chars(first, last, code, 16);
          if (last - first != 4 || r.ptr != last) {
            Fail("bad \\u escape");
          }
          pos_ += 4;
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else {
            // Minimal UTF-8 encoding (BMP only).
            if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            }
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  Value ParseNumber() {
    const size_t start = pos_;
    bool is_double = false;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (start == pos_) {
      Fail("invalid number");
    }
    // The whole token must be one number in range; from_chars, unlike
    // stoll/stod, neither skips a sign nor throws its own exception type.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    std::from_chars_result r;
    Value v;
    if (is_double) {
      double d = 0;
      r = std::from_chars(first, last, d);
      v = Value(d);
    } else {
      int64_t i = 0;
      r = std::from_chars(first, last, i);
      v = Value(i);
    }
    if (r.ec == std::errc::result_out_of_range) {
      FailAt(start, "number out of range");
    }
    if (r.ec != std::errc() || r.ptr != last) {
      FailAt(start, "invalid number");
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Parse(const std::string& text) { return Parser(text).ParseDocument(); }

}  // namespace cheriot::json
