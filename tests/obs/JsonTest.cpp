//===----------------------------------------------------------------------===//
///
/// \file
/// The minimal JSON writer/parser underpinning every telemetry emitter:
/// escaping, nesting, and writer->parser round trips.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <gtest/gtest.h>

using namespace nascent;
using namespace nascent::obs;

TEST(Json, WriterBasics) {
  JsonWriter W;
  W.beginObject();
  W.kv("a", 1);
  W.kv("b", "two");
  W.kv("c", true);
  W.key("d");
  W.beginArray();
  W.value(1.5);
  W.null();
  W.endArray();
  W.endObject();
  EXPECT_EQ(W.str(), "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":[1.5,null]}");
}

TEST(Json, Escaping) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonWriter W;
  W.beginObject();
  W.kv("k\"ey", "v\nal");
  W.endObject();
  JsonValue V;
  ASSERT_TRUE(parseJson(W.str(), V));
  ASSERT_NE(V.get("k\"ey"), nullptr);
  EXPECT_EQ(V.get("k\"ey")->String, "v\nal");
}

TEST(Json, ParserBasics) {
  JsonValue V;
  ASSERT_TRUE(parseJson("  {\"x\": [1, 2.5, -3], \"y\": {\"z\": false}} ", V));
  ASSERT_TRUE(V.isObject());
  const JsonValue *X = V.get("x");
  ASSERT_NE(X, nullptr);
  ASSERT_TRUE(X->isArray());
  ASSERT_EQ(X->Array.size(), 3u);
  EXPECT_EQ(X->Array[1].Number, 2.5);
  EXPECT_EQ(X->Array[2].Number, -3.0);
  const JsonValue *Y = V.get("y");
  ASSERT_NE(Y, nullptr);
  ASSERT_NE(Y->get("z"), nullptr);
  EXPECT_FALSE(Y->get("z")->Bool);
}

TEST(Json, ParserRejectsGarbage) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"a\":}", V, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseJson("[1,2", V));
  EXPECT_FALSE(parseJson("{} trailing", V));
  EXPECT_FALSE(parseJson("", V));
}

TEST(Json, ParserRejectsDuplicateKeys) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"runs\":[1],\"n\":2,\"runs\":3}", V, &Err));
  EXPECT_NE(Err.find("duplicate object key 'runs'"), std::string::npos)
      << Err;
  // Nested objects are checked too; equal keys in sibling objects are fine.
  EXPECT_FALSE(parseJson("{\"a\":{\"x\":1,\"x\":1}}", V));
  EXPECT_TRUE(parseJson("{\"a\":{\"x\":1},\"b\":{\"x\":1}}", V));
}

TEST(Json, RoundTrip) {
  JsonWriter W;
  W.beginObject();
  W.key("nested");
  W.beginArray();
  for (int I = 0; I != 3; ++I) {
    W.beginObject();
    W.kv("i", I);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  JsonValue V;
  ASSERT_TRUE(parseJson(W.str(), V));
  const JsonValue *N = V.get("nested");
  ASSERT_NE(N, nullptr);
  ASSERT_EQ(N->Array.size(), 3u);
  EXPECT_EQ(N->Array[2].get("i")->Number, 2.0);
}
