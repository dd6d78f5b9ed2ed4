// Unit tests for the common runtime: Status/Result, statistics, RNG, clocks,
// table formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>

#include "common/clock.h"
#include "common/event.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace dema {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("gamma must be >= 2");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: gamma must be >= 2");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    DEMA_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("value");
    return Status::Internal("nope");
  };
  auto use = [&](bool ok) -> Status {
    DEMA_ASSIGN_OR_RETURN(std::string s, make(ok));
    EXPECT_EQ(s, "value");
    return Status::OK();
  };
  EXPECT_TRUE(use(true).ok());
  EXPECT_EQ(use(false).code(), StatusCode::kInternal);
}

TEST(Event, TotalOrderBreaksTiesDeterministically) {
  Event a{1.0, 10, 1, 0};
  Event b{1.0, 10, 1, 1};
  Event c{1.0, 10, 2, 0};
  Event d{1.0, 11, 1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, d);
  EXPECT_LT(c, d);  // timestamp compares before node
  Event e{0.5, 99, 9, 9};
  EXPECT_LT(e, a);  // value dominates
}

TEST(OnlineStats, WelfordMatchesDirectComputation) {
  OnlineStats stats;
  std::vector<double> xs = {1, 2, 3, 4, 5, 100, -7};
  double sum = 0;
  for (double x : xs) {
    stats.Add(x);
    sum += x;
  }
  double mean = sum / xs.size();
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= xs.size();
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-9);
  EXPECT_EQ(stats.min(), -7);
  EXPECT_EQ(stats.max(), 100);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(7);
  OnlineStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Normal(5, 3);
    whole.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  OnlineStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(MpeAccumulator, AccuracyDefinition) {
  MpeAccumulator acc;
  acc.Add(100, 100);  // exact
  acc.Add(100, 90);   // 10% error
  EXPECT_NEAR(acc.Mpe(), 0.05, 1e-12);
  EXPECT_NEAR(acc.Accuracy(), 0.95, 1e-12);
}

TEST(MpeAccumulator, ZeroReferenceFallsBackToAbsolute) {
  MpeAccumulator acc;
  acc.Add(0, 0.25);
  EXPECT_NEAR(acc.Mpe(), 0.25, 1e-12);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.UniformInt(0, 1'000'000) != c.UniformInt(0, 1'000'000)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(VirtualClock, AdvancesManually) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.NowUs(), 100);
  clock.AdvanceUs(50);
  EXPECT_EQ(clock.NowUs(), 150);
  clock.SetUs(10);
  EXPECT_EQ(clock.NowUs(), 10);
}

TEST(RealClock, MonotoneNonDecreasing) {
  RealClock clock;
  TimestampUs a = clock.NowUs();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  TimestampUs b = clock.NowUs();
  EXPECT_GE(b, a + 1000);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(SecondsUs(2), 2'000'000);
  EXPECT_EQ(MillisUs(3), 3'000);
  EXPECT_DOUBLE_EQ(ToSeconds(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(ToMillis(1'500), 1.5);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_TRUE(t.AddRow({"1", "2"}).ok());
  EXPECT_FALSE(t.AddRow({"1"}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, PrintsAlignedAscii) {
  Table t({"name", "value"});
  ASSERT_TRUE(t.AddRow({"alpha", "1"}).ok());
  ASSERT_TRUE(t.AddRow({"b", "12345"}).ok());
  std::ostringstream os;
  t.Print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"x"});
  ASSERT_TRUE(t.AddRow({"has,comma"}).ok());
  ASSERT_TRUE(t.AddRow({"has\"quote"}).ok());
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(FmtF(3.14159, 2), "3.14");
  EXPECT_EQ(FmtCount(1234567), "1,234,567");
  EXPECT_EQ(FmtCount(12), "12");
  EXPECT_EQ(FmtBytes(512), "512 B");
  EXPECT_EQ(FmtBytes(1536), "1.50 KiB");
  EXPECT_EQ(FmtRate(2'500'000), "2.50M ev/s");
  EXPECT_EQ(FmtRate(2'500), "2.50K ev/s");
}

}  // namespace
}  // namespace dema
