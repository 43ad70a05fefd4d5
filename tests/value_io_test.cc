#include "object/value_io.h"

#include <gtest/gtest.h>

#include <string>

#include "object/builder.h"
#include "workload/discrepancy_gen.h"

namespace idl {
namespace {

void ExpectRoundTrip(const Value& v) {
  std::string text = ToString(v);
  auto parsed = ParseValue(text);
  ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  EXPECT_EQ(*parsed, v) << text;
}

TEST(ValueIoTest, PrintsAtoms) {
  EXPECT_EQ(ToString(Value::Null()), "null");
  EXPECT_EQ(ToString(Value::Bool(true)), "true");
  EXPECT_EQ(ToString(Value::Int(42)), "42");
  EXPECT_EQ(ToString(Value::Real(2.5)), "2.5");
  EXPECT_EQ(ToString(Value::String("hp")), "hp");  // bare identifier
  EXPECT_EQ(ToString(Value::String("Hello world")), "\"Hello world\"");
  EXPECT_EQ(ToString(Value::Of(Date(1985, 3, 3))), "3/3/1985");
}

TEST(ValueIoTest, PrintsTupleAndSet) {
  Value t = MakeTuple({{"name", Value::String("john")},
                       {"sal", Value::Int(10000)}});
  EXPECT_EQ(ToString(t), "(name: john, sal: 10000)");
  Value s = MakeSet({Value::Int(1)});
  EXPECT_EQ(ToString(s), "{1}");
}

TEST(ValueIoTest, RoundTripsAtoms) {
  ExpectRoundTrip(Value::Null());
  ExpectRoundTrip(Value::Bool(false));
  ExpectRoundTrip(Value::Int(-7));
  ExpectRoundTrip(Value::Real(0.125));
  ExpectRoundTrip(Value::Real(1e20));
  ExpectRoundTrip(Value::String("hp"));
  ExpectRoundTrip(Value::String("with \"quotes\" and \\ slashes\n"));
  ExpectRoundTrip(Value::String("null"));  // reserved word quotes itself
  ExpectRoundTrip(Value::Of(Date(1985, 3, 3)));
}

TEST(ValueIoTest, RoundTripsNested) {
  Value universe = MakeTuple({
      {"euter",
       MakeTuple({{"r", MakeSet({
                            MakeTuple({{"date", Value::Of(Date(1985, 3, 3))},
                                       {"stkCode", Value::String("hp")},
                                       {"clsPrice", Value::Int(50)}}),
                        })}})},
  });
  ExpectRoundTrip(universe);
}

TEST(ValueIoTest, ParsesHandWrittenLiteral) {
  auto v = ParseValue("{(date: 3/3/85, hp: 50), (date: 3/4/85)}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->SetSize(), 2u);
}

TEST(ValueIoTest, ParseErrors) {
  EXPECT_FALSE(ParseValue("").ok());
  EXPECT_FALSE(ParseValue("(a 1)").ok());
  EXPECT_FALSE(ParseValue("{1, 2").ok());
  EXPECT_FALSE(ParseValue("\"unterminated").ok());
  EXPECT_FALSE(ParseValue("1 2").ok());
}

TEST(ValueIoTest, RoundTripsPathologicalStrings) {
  // The durability layer persists whole databases as these literals
  // (snapshot checkpoints, WAL register records — docs/DURABILITY.md), so
  // print -> parse must be the identity on *every* byte sequence, not just
  // the pretty ones. \r and \xNN are the cases the printer emits that the
  // parser historically rejected.
  ExpectRoundTrip(Value::String("\r"));
  ExpectRoundTrip(Value::String("a\rb\nc\td"));
  ExpectRoundTrip(Value::String("\x01\x02\x1f\x7f"));
  ExpectRoundTrip(Value::String(std::string("nul\0middle", 10)));
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  ExpectRoundTrip(Value::String(all_bytes));

  // Malformed \x escapes are errors, not silent truncation.
  EXPECT_FALSE(ParseValue("\"\\x\"").ok());
  EXPECT_FALSE(ParseValue("\"\\x4\"").ok());
  EXPECT_FALSE(ParseValue("\"\\xgg\"").ok());
}

TEST(ValueIoTest, RoundTripsDeepNestingAndEmptyRelations) {
  Value deep = Value::Int(7);
  for (int i = 0; i < 60; ++i) deep = MakeTuple({{"n", deep}});
  ExpectRoundTrip(deep);
  // Empty relations survive (views that lost every row persist as empty
  // slots in snapshots).
  ExpectRoundTrip(MakeTuple({{"r", Value::EmptySet()}}));
  ExpectRoundTrip(Value::EmptySet());
  ExpectRoundTrip(MakeTuple({{"r", MakeSet({Value::EmptySet()})}}));
}

// `depth` nested sets and tuples, alternating, around the atom 7 — the
// printer's own spelling: "{(n: {(n: 7)})}" at depth 4.
std::string NestedLiteral(int depth) {
  std::string open, close;
  for (int i = 0; i < depth; ++i) {
    open += i % 2 == 0 ? "{" : "(n: ";
    close += i % 2 == 0 ? "}" : ")";
  }
  return open + "7" + std::string(close.rbegin(), close.rend());
}

TEST(ValueIoTest, NestingPastBudgetIsRejected) {
  // Snapshot recovery and WAL replay parse these literals: a corrupt or
  // hostile one must fail as a Status, not overflow the stack.
  const std::string deep =
      std::string(200000, '{') + std::string(200000, '}');
  Result<Value> v = ParseValue(deep);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("nesting deeper than"),
            std::string::npos)
      << v.status().ToString();
  EXPECT_NE(v.status().message().find("offset"), std::string::npos);
  EXPECT_FALSE(ParseValue(NestedLiteral(kMaxNestingDepth + 1)).ok());
}

TEST(ValueIoTest, NestingAtBudgetRoundTrips) {
  const std::string text = NestedLiteral(kMaxNestingDepth);
  Result<Value> v = ParseValue(text);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(ToString(*v), text);
  ExpectRoundTrip(*v);
}

TEST(ValueIoTest, GeneratedTenantDatabasesRoundTrip) {
  // Property test over the discrepancy generator: every tenant database
  // (and the whole universe tuple) the workload generator can produce must
  // round-trip through the literal form — this is exactly the path a
  // snapshot checkpoint takes.
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    DiscrepancyConfig config;
    config.seed = seed;
    config.num_tenants = 2 + seed % 3;
    config.num_entities = 2 + seed % 3;
    config.num_keys = 2 + seed % 2;
    config.fact_density = 0.3 + 0.15 * static_cast<double>(seed % 5);
    config.mangle_rate = (seed % 3) * 0.5;
    DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
    for (const auto& tenant : universe.tenants) {
      ExpectRoundTrip(universe.BuildTenantDatabase(tenant));
    }
    ExpectRoundTrip(universe.BuildUniverse());
  }
}

TEST(ValueIoTest, PrettyPrintWraps) {
  Value s = MakeSet({Value::Int(1), Value::Int(2), Value::Int(3),
                     Value::Int(4), Value::Int(5)});
  std::string pretty = ToPrettyString(s, 4);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  // Small values stay on one line.
  EXPECT_EQ(ToPrettyString(Value::Int(1), 4), "1");
}

}  // namespace
}  // namespace idl
