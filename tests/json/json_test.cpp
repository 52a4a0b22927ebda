#include "json/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>

#include "util/strings.h"

namespace unify::json {
namespace {

// ------------------------------------------------------------ value model

TEST(JsonValue, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Type::kNull);
}

TEST(JsonValue, ScalarConstruction) {
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(3.5).is_number());
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_EQ(Value(3.5).as_number(), 3.5);
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value("hi").as_string(), "hi");
}

TEST(JsonValue, DeepCopy) {
  Object obj;
  obj.set("list", Array{1, 2, 3});
  Value a{std::move(obj)};
  Value b = a;
  b.as_object()["list"].as_array().push_back(Value{4});
  EXPECT_EQ(a.as_object().find("list")->as_array().size(), 3u);
  EXPECT_EQ(b.as_object().find("list")->as_array().size(), 4u);
}

TEST(JsonObject, PreservesInsertionOrder) {
  Object obj;
  obj.set("zulu", 1);
  obj.set("alpha", 2);
  obj.set("mike", 3);
  std::vector<std::string> keys;
  for (const auto& [k, v] : obj) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"zulu", "alpha", "mike"}));
}

TEST(JsonObject, SetOverwritesInPlace) {
  Object obj;
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 9);
  EXPECT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.find("a")->as_int(), 9);
}

TEST(JsonObject, EraseAndContains) {
  Object obj;
  obj.set("a", 1);
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_TRUE(obj.erase("a"));
  EXPECT_FALSE(obj.contains("a"));
  EXPECT_FALSE(obj.erase("a"));
}

TEST(JsonObject, SubscriptCreatesNull) {
  Object obj;
  Value& v = obj["fresh"];
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(obj.contains("fresh"));
}

TEST(JsonValue, EqualityIsOrderInsensitiveForObjects) {
  Object a, b;
  a.set("x", 1);
  a.set("y", 2);
  b.set("y", 2);
  b.set("x", 1);
  EXPECT_EQ(Value{std::move(a)}, Value{std::move(b)});
}

TEST(JsonValue, EqualityIsOrderSensitiveForArrays) {
  EXPECT_NE((Value{Array{1, 2}}), (Value{Array{2, 1}}));
  EXPECT_EQ((Value{Array{1, 2}}), (Value{Array{1, 2}}));
}

TEST(JsonValue, AsIntIsDefinedForEveryDouble) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Value{1.9}.as_int(), 1);
  EXPECT_EQ(Value{-1.9}.as_int(), -1);
  EXPECT_EQ(Value{9007199254740992.0}.as_int(), 9007199254740992);
  EXPECT_EQ(Value{-9223372036854775808.0}.as_int(), kMin);
  EXPECT_EQ(Value{9223372036854775808.0}.as_int(), kMax);
  EXPECT_EQ(Value{1e300}.as_int(), kMax);
  EXPECT_EQ(Value{-1e300}.as_int(), kMin);
  EXPECT_EQ(Value{std::numeric_limits<double>::infinity()}.as_int(), kMax);
  EXPECT_EQ(Value{std::numeric_limits<double>::quiet_NaN()}.as_int(), 0);
}

TEST(JsonValue, LenientGetters) {
  Object obj;
  obj.set("name", "fw0");
  obj.set("cpu", 4);
  obj.set("up", true);
  Value v{std::move(obj)};
  EXPECT_EQ(v.get_string("name"), "fw0");
  EXPECT_EQ(v.get_int("cpu"), 4);
  EXPECT_TRUE(v.get_bool("up"));
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v.get_number("missing", 2.5), 2.5);
  EXPECT_EQ(v.get_int("name", -1), -1);  // wrong type -> fallback
  EXPECT_EQ(Value{3}.get("x"), nullptr);  // non-object
}

// ----------------------------------------------------------------- dump

TEST(JsonDump, Scalars) {
  EXPECT_EQ(Value{}.dump(), "null");
  EXPECT_EQ(Value{true}.dump(), "true");
  EXPECT_EQ(Value{false}.dump(), "false");
  EXPECT_EQ(Value{42}.dump(), "42");
  EXPECT_EQ(Value{2.5}.dump(), "2.5");
  EXPECT_EQ(Value{"hey"}.dump(), "\"hey\"");
}

TEST(JsonDump, EscapesSpecials) {
  EXPECT_EQ(Value{"a\"b\\c\nd"}.dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Value{std::string("\x01", 1)}.dump(), "\"\\u0001\"");
}

TEST(JsonDump, NestedStructure) {
  Object inner;
  inner.set("id", "nf1");
  Object outer;
  outer.set("nfs", Array{Value{std::move(inner)}});
  outer.set("count", 1);
  EXPECT_EQ(Value{std::move(outer)}.dump(),
            R"({"nfs":[{"id":"nf1"}],"count":1})");
}

TEST(JsonDump, EmptyContainers) {
  EXPECT_EQ(Value{Array{}}.dump(), "[]");
  EXPECT_EQ(Value{Object{}}.dump(), "{}");
}

TEST(JsonDump, PrettyIndents) {
  Object obj;
  obj.set("a", 1);
  EXPECT_EQ(Value{std::move(obj)}.dump_pretty(), "{\n  \"a\": 1\n}");
}

// ---------------------------------------------------------------- parse

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_EQ(parse("true")->as_bool(), true);
  EXPECT_EQ(parse("false")->as_bool(), false);
  EXPECT_EQ(parse("42")->as_int(), 42);
  EXPECT_EQ(parse("-17")->as_int(), -17);
  EXPECT_EQ(parse("2.5")->as_number(), 2.5);
  EXPECT_EQ(parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(parse("1.5E-2")->as_number(), 0.015);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, WhitespaceTolerated) {
  auto r = parse("  {\n \"a\" : [ 1 , 2 ] }\t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->get("a")->as_array().size(), 2u);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")")->as_string(), "a\"b");
  EXPECT_EQ(parse(R"("tab\there")")->as_string(), "tab\there");
  EXPECT_EQ(parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(parse(R"("é")")->as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse(R"("中")")->as_string(), "\xe4\xb8\xad");  // 中
  EXPECT_EQ(parse(R"("😀")")->as_string(),
            "\xf0\x9f\x98\x80");  // 😀 via surrogate pair
}

TEST(JsonParse, RejectsBadSurrogates) {
  EXPECT_FALSE(parse(R"("\ud83d")").ok());
  EXPECT_FALSE(parse(R"("\ude00")").ok());
  EXPECT_FALSE(parse(R"("\ud83dxx")").ok());
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01", "1.", "1e", "\"unterminated",
        "{\"a\" 1}", "[1 2]", "{1:2}", "nulll", "[]x", "\"\x01\"", "+1",
        "--1", "1e+"}) {
    EXPECT_FALSE(parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonParse, RepeatedKeyKeepsFirstPositionTakesLastValue) {
  auto parsed = parse(
      R"({"k0":0,"k1":1,"k2":2,"k1":"last","k0":{"nested":[1,{"k0":2,"k0":3}]}})");
  ASSERT_TRUE(parsed.ok());
  const Object& obj = parsed->as_object();
  ASSERT_EQ(obj.size(), 3u);
  auto it = obj.begin();
  EXPECT_EQ(it->first, "k0");
  const Value* inner = it->second.get("nested");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->as_array()[1].as_object().size(), 1u);
  EXPECT_EQ(inner->as_array()[1].get_int("k0"), 3);
  ++it;
  EXPECT_EQ(it->first, "k1");
  EXPECT_EQ(it->second.as_string(), "last");
  EXPECT_EQ(obj.find("k2")->as_int(), 2);
}

std::string object_with_keys(std::size_t n) {
  std::string text = "{";
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  return text + "}";
}

TEST(JsonParse, WideObjectIsRejected) {
  // Duplicate-key detection scans the object's earlier keys, so an
  // uncapped 40,000-key object (about 500 KB) took seconds to parse.
  const auto wide = parse(object_with_keys(40'000));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error().code, ErrorCode::kProtocol);
  EXPECT_NE(wide.error().message.find("too many members"), std::string::npos)
      << wide.error().message;
}

TEST(JsonParse, MemberCapCountsDistinctKeys) {
  const auto at_cap = parse(object_with_keys(32));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->as_object().size(), 32u);
  EXPECT_FALSE(parse(object_with_keys(33)).ok());
  // A repeated key adds no member, so it is fine at the cap.
  std::string repeated = object_with_keys(32);
  repeated.back() = ',';
  repeated += "\"key0\":\"last\"}";
  const auto overwritten = parse(repeated);
  ASSERT_TRUE(overwritten.ok());
  EXPECT_EQ(overwritten->as_object().size(), 32u);
  EXPECT_EQ(overwritten->get_string("key0"), "last");
  // The cap is per object: many full objects in one document parse.
  std::string many = "[";
  for (int i = 0; i < 100; ++i) {
    if (i != 0) many += ',';
    many += object_with_keys(32);
  }
  EXPECT_TRUE(parse(many + "]").ok());
}

TEST(JsonParse, ErrorCarriesOffset) {
  auto r = parse("[1, &]");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kProtocol);
  EXPECT_NE(r.error().message.find("byte 4"), std::string::npos);
}

TEST(JsonParse, DeepNestingGuard) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(parse(deep).ok());
}

TEST(JsonParse, AcceptableNestingWorks) {
  std::string nested(100, '[');
  nested += "5";
  nested += std::string(100, ']');
  EXPECT_TRUE(parse(nested).ok());
}

TEST(JsonRoundTrip, ComplexDocument) {
  const char* doc =
      R"({"id":"bisbis-1","resources":{"cpu":8,"mem":16384,"storage":100.5},)"
      R"("ports":[{"id":0,"sap":"sap1"},{"id":1,"sap":null}],)"
      R"("up":true,"note":"a\nb"})";
  auto first = parse(doc);
  ASSERT_TRUE(first.ok());
  auto second = parse(first->dump());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(first->dump(), second->dump());
}

TEST(JsonRoundTrip, PrettyParsesBack) {
  Object obj;
  obj.set("xs", Array{1, Value{"two"}, Value{Object{}}});
  Value v{std::move(obj)};
  auto r = parse(v.dump_pretty());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v);
}

// Property-style sweep: numbers round-trip through dump/parse.
class JsonNumberRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(JsonNumberRoundTrip, Exact) {
  const double value = GetParam();
  auto parsed = parse(Value{value}.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->as_number(), value);
}

// The codec must print exactly what printf's "%.0f" (integral, below 1e15)
// or "%.6g" prints, and read every number bit-for-bit as strtod does.
std::string printf_reference(double value) {
  char buf[64];
  const bool integral = std::isfinite(value) &&
                        value == std::floor(value) && std::fabs(value) < 1e15;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.6g", value);
  return buf;
}

std::uint64_t bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// Parses `token` as a JSON document and expects strtod's exact result.
void expect_parse_matches_strtod(const std::string& token) {
  const auto parsed = parse(token);
  ASSERT_TRUE(parsed.ok()) << token;
  ASSERT_TRUE(parsed->is_number()) << token;
  EXPECT_EQ(bits(parsed->as_number()),
            bits(std::strtod(token.c_str(), nullptr)))
      << token;
}

void expect_matches_libc(double value) {
  const std::string text = strings::format_double(value);
  EXPECT_EQ(text, printf_reference(value)) << bits(value);
  std::string appended = "x";
  strings::append_double(appended, value);
  EXPECT_EQ(appended, "x" + text);
  expect_parse_matches_strtod(text);
  char full[64];  // 17 significant digits name the double exactly
  std::snprintf(full, sizeof(full), "%.17g", value);
  expect_parse_matches_strtod(full);
  EXPECT_EQ(bits(parse(full)->as_number()), bits(value)) << full;
}

TEST_P(JsonNumberRoundTrip, MatchesLibc) { expect_matches_libc(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Values, JsonNumberRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.0, 0.5, -0.25, 1e6,
                                           123456789.0, 3.14159, 1e-6,
                                           42.42, 1e15, -0.0,
                                           4.9406564584124654e-324, 1e-310,
                                           1e-7, 0.1));

TEST_F(JsonNumberRoundTrip, LossyValuesMatchLibc) {
  // Not exact through six significant digits, but still libc's answer.
  for (const double value : {123456.5, 1234567.25, 999999.5, -0.1234567,
                             1e15 + 0.5, 3.0e-5 / 7, 1.7976931348623157e308,
                             2.2250738585072009e-308}) {
    expect_matches_libc(value);
  }
}

TEST_F(JsonNumberRoundTrip, SeededSweepMatchesLibc) {
  std::mt19937_64 rng(19);
  std::uniform_int_distribution<int> digits(0, 9);
  for (int i = 0; i < 20000; ++i) {
    // Alternate raw bit patterns (any finite double) with short decimals
    // and integers, the shapes the orchestrator actually writes.
    double value = std::bit_cast<double>(rng());
    if (i % 3 == 1) {
      value = static_cast<double>(static_cast<std::int64_t>(rng() % 2000001) -
                                  1000000) /
              std::pow(10.0, digits(rng) % 7);
    } else if (i % 3 == 2) {
      value = static_cast<double>(rng() >> (11 + digits(rng) * 5));
    }
    if (!std::isfinite(value)) continue;
    expect_matches_libc(value);
  }
}

TEST_F(JsonNumberRoundTrip, OutOfRangeTokensMatchStrtod) {
  for (const std::string token :
       {"1e400", "-1e400", "1e-400", "-1e-400", "1.7976931348623157e308",
        "1.7976931348623159e308", "2.4703282292062327e-324",
        "2.4703282292062328e-324", "2.4703282292062329e-324",
        "0.00001e-320", "123456789012345678901234567890e280",
        "1e99999999999999999999999", "-1e-99999999999999999999999",
        "0e999999", "-0.0e-999999"}) {
    expect_parse_matches_strtod(token);
  }
  expect_parse_matches_strtod("1" + std::string(400, '0'));
  expect_parse_matches_strtod("-0." + std::string(400, '0') + "1");
  expect_parse_matches_strtod("0." + std::string(400, '0') + "1e500");
  expect_parse_matches_strtod("0." + std::string(400, '0') + "1e90");
}

}  // namespace
}  // namespace unify::json
