// Minimal dependency-free JSON document model, writer and parser — enough
// for the firmware audit report (§4). Not a general-purpose library: numbers
// are int64/double, strings are UTF-8 passed through verbatim.
#ifndef SRC_JSON_JSON_H_
#define SRC_JSON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace cheriot::json {

class Value;
using Array = std::vector<Value>;

// A JSON object: members kept sorted by key in one flat vector, so iteration
// (and therefore Dump) visits keys in exactly std::map<std::string, Value>
// order. Audit reports and every exporter must be reproducible
// byte-for-byte for signing workflows. Insertion semantics follow std::map:
// operator[] is last-write-wins, emplace and the initializer list are
// first-write-wins. Inserting invalidates iterators and references into the
// object; keys must not be modified through an iterator.
class Object {
 public:
  using value_type = std::pair<std::string, Value>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  Object() = default;
  Object(std::initializer_list<value_type> members);

  Value& operator[](std::string_view key);
  std::pair<iterator, bool> emplace(std::string key, Value value);

  iterator find(std::string_view key);
  const_iterator find(std::string_view key) const;
  size_t count(std::string_view key) const;

  size_t size() const;
  bool empty() const;
  void reserve(size_t n);
  iterator begin();
  iterator end();
  const_iterator begin() const;
  const_iterator end() const;

 private:
  // First member whose key is not less than `key`.
  size_t LowerBound(std::string_view key) const;

  std::vector<value_type> members_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  // The scalar constructors are out of line: inlined, GCC 12 reports a
  // spurious -Wmaybe-uninitialized for the variant's string alternative at
  // every site that moves a freshly built scalar Value.
  Value() = default;
  Value(bool b);      // NOLINT
  Value(int i);       // NOLINT
  Value(int64_t i);   // NOLINT
  Value(uint32_t i);  // NOLINT
  Value(uint64_t i);  // NOLINT
  Value(double d);    // NOLINT
  Value(const char* s) : data_(std::string(s)) {}  // NOLINT
  Value(std::string s) : data_(std::move(s)) {}    // NOLINT
  Value(Array a)                                    // NOLINT
      : data_(std::make_shared<Array>(std::move(a))) {}
  Value(Object o)                                   // NOLINT
      : data_(std::make_shared<Object>(std::move(o))) {}

  // The variant's alternatives are in Type order.
  Type type() const { return static_cast<Type>(data_.index()); }
  bool is_null() const { return type() == Type::kNull; }

  // Lenient accessors: a value of another type reads as false, 0, "" or an
  // empty array/object. Copies of a Value share its array or object.
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& MutableArray() { return *std::get<std::shared_ptr<Array>>(data_); }
  const Object& AsObject() const;
  Object& MutableObject() { return *std::get<std::shared_ptr<Object>>(data_); }

  // Object lookup; returns a null Value for missing keys.
  const Value& operator[](const std::string& key) const;
  // Array index.
  const Value& operator[](size_t i) const { return AsArray()[i]; }
  bool Has(const std::string& key) const {
    return type() == Type::kObject && AsObject().count(key) > 0;
  }
  size_t size() const;

  // Serialization. indent < 0 => compact single line.
  std::string Dump(int indent = 2) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::monostate, bool, int64_t, double, std::string,
               std::shared_ptr<Array>, std::shared_ptr<Object>>
      data_;
};

// Defined here, where Value is complete.
inline size_t Object::count(std::string_view key) const {
  return find(key) != end();
}
inline size_t Object::size() const { return members_.size(); }
inline bool Object::empty() const { return members_.empty(); }
inline void Object::reserve(size_t n) { members_.reserve(n); }
inline Object::iterator Object::begin() { return members_.begin(); }
inline Object::iterator Object::end() { return members_.end(); }
inline Object::const_iterator Object::begin() const { return members_.begin(); }
inline Object::const_iterator Object::end() const { return members_.end(); }

// Deepest array/object nesting Parse accepts. Shipped documents nest fewer
// than a dozen levels; the limit keeps hostile input from exhausting the
// stack.
inline constexpr int kMaxParseDepth = 512;

// Parses a JSON document. Throws std::runtime_error, with the byte offset,
// on malformed input, on numbers out of int64/double range and on nesting
// deeper than kMaxParseDepth.
Value Parse(const std::string& text);

std::string Escape(const std::string& s);

}  // namespace cheriot::json

#endif  // SRC_JSON_JSON_H_
