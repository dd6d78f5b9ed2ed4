// Tests for the JSON writer, flag parser extensions, and metrics dump.

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/json.h"
#include "sim/metrics.h"

namespace dema {
namespace {

TEST(JsonWriter, BasicObject) {
  JsonWriter w;
  w.Field("name", "dema").Field("n", uint64_t{42}).Field("x", 1.5).Field("ok", true);
  EXPECT_EQ(w.Finish(), R"({"name":"dema","n":42,"x":1.5,"ok":true})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.Field("s", "a\"b\\c\nd");
  EXPECT_EQ(w.Finish(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, ArraysAndNesting) {
  JsonWriter inner;
  inner.Field("k", uint64_t{1});
  JsonWriter w;
  w.Field("values", std::vector<double>{0.25, 0.5}).RawField("inner", inner.Finish());
  EXPECT_EQ(w.Finish(), R"({"values":[0.25,0.5],"inner":{"k":1}})");
}

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  EXPECT_EQ(w.Finish(), "{}");
}

TEST(RunMetricsJson, RoundShape) {
  sim::RunMetrics metrics;
  metrics.events_ingested = 100;
  metrics.windows_emitted = 5;
  metrics.sim_throughput_eps = 123.5;
  metrics.bottleneck = "root";
  metrics.registry = std::make_shared<obs::Registry>();
  metrics.registry->GetCounter("dema.candidate_events")->Increment(7);
  std::string json = sim::RunMetricsToJson(metrics);
  EXPECT_NE(json.find("\"events_ingested\":100"), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck\":\"root\""), std::string::npos);
  // The run registry is embedded whole.
  EXPECT_NE(
      json.find(R"("registry":{"counters":{"dema.candidate_events":7})"),
      std::string::npos);
  EXPECT_EQ(json.find("\"latency\":{"), std::string::npos);
  EXPECT_EQ(json.find("\"dema\":{"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Flags, ParsesKeyValueAndBare) {
  const char* argv[] = {"prog", "run", "--rate=5000", "--adaptive",
                        "--name=test"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rate", 0), 5000);
  EXPECT_TRUE(flags.Has("adaptive"));
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_EQ(flags.GetDouble("missing", 2.5), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "run");
}

TEST(Flags, ParsesDoubleLists) {
  const char* argv[] = {"prog", "--quantiles=0.25,0.5,0.99"};
  Flags flags(2, const_cast<char**>(argv));
  auto qs = flags.GetDoubleList("quantiles", {});
  ASSERT_EQ(qs.size(), 3u);
  EXPECT_DOUBLE_EQ(qs[0], 0.25);
  EXPECT_DOUBLE_EQ(qs[2], 0.99);
  auto def = flags.GetDoubleList("other", {1.0});
  ASSERT_EQ(def.size(), 1u);
}

}  // namespace
}  // namespace dema
