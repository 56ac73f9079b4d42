// Tests for the JSON document model (src/json): the flat sorted Object is
// checked against a std::map reference document, written by a copy of the
// std::map-era writer kept here as the byte oracle; plus the lenient
// accessors, shared copies and the parser's limits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/json/json.h"

namespace cheriot {
namespace {

// --- Reference document: std::map objects, the original writer -------------

struct Ref {
  json::Value::Type type = json::Value::Type::kNull;
  bool b = false;
  int64_t i = 0;
  double d = 0;
  std::string s;
  std::vector<Ref> array;
  std::map<std::string, Ref> object;
};

std::string RefEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void RefDump(const Ref& v, std::string* out, int indent, int depth) {
  using Type = json::Value::Type;
  const std::string pad =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent) * (depth + 1), ' ');
  const std::string close_pad =
      indent < 0 ? "" : std::string(static_cast<size_t>(indent) * depth, ' ');
  const char* nl = indent < 0 ? "" : "\n";
  char buf[32];
  switch (v.type) {
    case Type::kNull: *out += "null"; break;
    case Type::kBool: *out += v.b ? "true" : "false"; break;
    case Type::kInt:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.i));
      *out += buf;
      break;
    case Type::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", v.d);
      *out += buf;
      break;
    case Type::kString: *out += '"' + RefEscape(v.s) + '"'; break;
    case Type::kArray: {
      if (v.array.empty()) {
        *out += "[]";
        break;
      }
      *out += '[';
      *out += nl;
      for (size_t k = 0; k < v.array.size(); ++k) {
        *out += pad;
        RefDump(v.array[k], out, indent, depth + 1);
        if (k + 1 < v.array.size()) {
          *out += ',';
        }
        *out += nl;
      }
      *out += close_pad + ']';
      break;
    }
    case Type::kObject: {
      if (v.object.empty()) {
        *out += "{}";
        break;
      }
      *out += '{';
      *out += nl;
      size_t k = 0;
      for (const auto& [key, member] : v.object) {
        *out += pad + '"' + RefEscape(key) + "\": ";
        RefDump(member, out, indent, depth + 1);
        if (++k < v.object.size()) {
          *out += ',';
        }
        *out += nl;
      }
      *out += close_pad + '}';
      break;
    }
  }
}

std::string RefDump(const Ref& v, int indent) {
  std::string out;
  RefDump(v, &out, indent, 0);
  return out;
}

// --- Seeded generator building both documents side by side ------------------

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  // Keys share prefixes, include the empty key, bytes >= 0x80 and control
  // characters, and repeat often enough that writes collide.
  std::string Key() {
    static const char* const kPool[] = {
        "", "a", "ab", "abc", "abd", "b", "B", "ts", "tid", "\x7f",
        "\x80", "\xc3\xa9", "\xff", "a\x01", "\t", "a\nb", "\"q\"", "\\"};
    constexpr size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);
    if (Below(4) != 0) {
      return kPool[Below(kPoolSize)];
    }
    static const char kAlphabet[] = {'a', 'b', 'z', '0', '\x01', '\x1f',
                                     '"', '\\', '\x80', '\xfe', ' ', '\n'};
    std::string key = kPool[Below(kPoolSize)];
    for (size_t n = Below(4); n > 0; --n) {
      key.push_back(kAlphabet[Below(sizeof kAlphabet)]);
    }
    return key;
  }

  // A random document of at most `depth` container levels.
  void Document(int depth, json::Value* v, Ref* r) {
    using Type = json::Value::Type;
    const size_t kind = Below(depth > 0 ? 8 : 5);
    switch (kind) {
      case 0:
        *v = json::Value();
        r->type = Type::kNull;
        break;
      case 1:
        r->type = Type::kBool;
        r->b = Below(2) == 1;
        *v = r->b;
        break;
      case 2: {
        r->type = Type::kInt;
        const int64_t magnitudes[] = {1, 1000, 1ll << 40,
                                      std::numeric_limits<int64_t>::max()};
        r->i = static_cast<int64_t>(rng_() % static_cast<uint64_t>(
                                                  magnitudes[Below(4)])) *
               (Below(2) ? -1 : 1);
        *v = r->i;
        break;
      }
      case 3:
        r->type = Type::kDouble;
        r->d = std::ldexp(static_cast<double>(rng_() % 1000000) - 500000.0,
                          static_cast<int>(Below(80)) - 40);
        *v = r->d;
        break;
      case 4:
        r->type = Type::kString;
        r->s = Key();
        *v = r->s;
        break;
      case 5: {
        r->type = Type::kArray;
        json::Array a;
        for (size_t n = Below(5); n > 0; --n) {
          a.emplace_back();
          r->array.emplace_back();
          Document(depth - 1, &a.back(), &r->array.back());
        }
        *v = std::move(a);
        break;
      }
      default: {
        r->type = Type::kObject;
        json::Object o;
        Fill(depth, &o, &r->object);
        *v = std::move(o);
      }
    }
  }

 private:
  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }

  // Mixes the three write paths on one object: an initializer list (first
  // write wins), then operator[] (last write wins) and emplace (first write
  // wins) in random order.
  void Fill(int depth, json::Object* o, std::map<std::string, Ref>* m) {
    if (Below(2) == 0) {
      json::Value v0, v1, v2;
      Ref r0, r1, r2;
      const std::string k0 = Key(), k1 = Key(), k2 = Key();
      Document(depth - 1, &v0, &r0);
      Document(depth - 1, &v1, &r1);
      Document(depth - 1, &v2, &r2);
      *o = json::Object{{k0, v0}, {k1, v1}, {k2, v2}};
      *m = std::map<std::string, Ref>{{k0, r0}, {k1, r1}, {k2, r2}};
    }
    for (size_t n = Below(12); n > 0; --n) {
      json::Value v;
      Ref r;
      const std::string key = Key();
      Document(depth - 1, &v, &r);
      if (Below(2) == 0) {
        (*o)[key] = std::move(v);
        (*m)[key] = std::move(r);
      } else {
        const bool inserted = o->emplace(key, std::move(v)).second;
        EXPECT_EQ(inserted, m->emplace(key, std::move(r)).second);
      }
    }
  }

  std::mt19937_64 rng_;
};

// Walks both documents in lockstep: same types, same object key order, same
// membership answers from find/count for every key either side holds.
void ExpectSameShape(const json::Value& v, const Ref& r) {
  ASSERT_EQ(v.type(), r.type);
  if (r.type == json::Value::Type::kArray) {
    ASSERT_EQ(v.size(), r.array.size());
    for (size_t i = 0; i < r.array.size(); ++i) {
      ExpectSameShape(v[i], r.array[i]);
    }
  } else if (r.type == json::Value::Type::kObject) {
    const json::Object& o = v.AsObject();
    ASSERT_EQ(o.size(), r.object.size());
    auto it = o.begin();
    for (const auto& [key, member] : r.object) {
      ASSERT_EQ(it->first, key);
      EXPECT_EQ(o.count(key), 1u);
      EXPECT_EQ(o.find(key), it);
      ExpectSameShape(it->second, member);
      ++it;
    }
  }
}

TEST(Json, FlatObjectMatchesStdMapReferenceOnRandomDocuments) {
  int objects = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Generator gen(seed);
    json::Value v;
    Ref r;
    gen.Document(4, &v, &r);
    objects += r.type == json::Value::Type::kObject;
    ExpectSameShape(v, r);
    for (int indent : {2, -1}) {
      const std::string text = v.Dump(indent);
      ASSERT_EQ(text, RefDump(r, indent)) << "seed " << seed;
      EXPECT_EQ(json::Parse(text).Dump(indent), text) << "seed " << seed;
    }
  }
  EXPECT_GT(objects, 50);
}

TEST(Json, ObjectWriteSemanticsFollowStdMap) {
  json::Object o{{"b", 1}, {"a", 2}, {"b", 3}};  // first write wins
  EXPECT_EQ(json::Value(o).Dump(-1), R"({"a": 2,"b": 1})");
  o["b"] = 4;  // last write wins
  EXPECT_FALSE(o.emplace("a", 5).second);
  EXPECT_TRUE(o.emplace("", 6).second);
  EXPECT_EQ(json::Value(o).Dump(-1), R"({"": 6,"a": 2,"b": 4})");
  EXPECT_EQ(o.count("c"), 0u);
  EXPECT_EQ(o.find("c"), o.end());
}

TEST(Json, AccessorsAreLenientAndCopiesShareContainers) {
  const json::Value i = 7;
  EXPECT_EQ(i.AsString(), "");
  EXPECT_FALSE(i.AsBool());
  EXPECT_DOUBLE_EQ(i.AsDouble(), 7.0);
  EXPECT_EQ(json::Value(2.9).AsInt(), 2);
  EXPECT_EQ(json::Value("x").AsInt(), 0);
  EXPECT_EQ(json::Value("x").AsDouble(), 0.0);
  EXPECT_TRUE(json::Value().AsArray().empty());
  EXPECT_TRUE(i.AsObject().empty());
  EXPECT_TRUE(i["missing"].is_null());
  EXPECT_EQ(i.size(), 0u);
  EXPECT_FALSE(i.Has("x"));

  json::Value a = json::Object{{"k", 1}};
  json::Value b = a;
  b.MutableObject()["n"] = 2;
  EXPECT_TRUE(a.Has("n"));
  json::Value arr = json::Array{1};
  json::Value arr_copy = arr;
  arr_copy.MutableArray().push_back(2);
  EXPECT_EQ(arr.size(), 2u);
}

TEST(Json, NestingDeeperThanTheLimitThrowsWithOffset) {
  const int limit = json::kMaxParseDepth;
  const std::string ok = std::string(limit, '[') + std::string(limit, ']');
  EXPECT_EQ(json::Parse(ok).Dump(-1), ok);
  try {
    json::Parse(std::string(1'000'000, '['));
    FAIL() << "deep nesting parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset " + std::to_string(limit)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(json::Parse(std::string(limit + 1, '[') +
                           std::string(limit + 1, ']')),
               std::runtime_error);
  std::string objects;
  for (int d = 0; d <= limit; ++d) {
    objects += "{\"k\":";
  }
  EXPECT_THROW(json::Parse(objects + "1" + std::string(limit + 1, '}')),
               std::runtime_error);
}

}  // namespace
}  // namespace cheriot
