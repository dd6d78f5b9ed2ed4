// Unit tests for the common runtime: Status/Result, statistics, RNG, clocks,
// table formatting.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// SplitMix64 and xoshiro256** transcribed from the authors' reference C
/// code (prng.di.unimi.it), as an independent check of `Rng`'s engine.
struct ReferenceXoshiro256 {
  uint64_t s[4];
  explicit ReferenceXoshiro256(uint64_t seed) {
    uint64_t x = seed;
    for (uint64_t& word : s) {
      uint64_t z = (x += 0x9e3779b97f4a7c15);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
      z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
      word = z ^ (z >> 31);
    }
  }
  static uint64_t rotl(const uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t next() {
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
};

TEST(Rng, MatchesPublishedXoshiro256StarStar) {
  // Pins the stream every seeded run depends on: a change here changes
  // every generated workload.
  constexpr std::array<uint64_t, 8> kGolden = {
      0x15780B2E0C2EC716ULL, 0x6104D9866D113A7EULL, 0xAE17533239E499A1ULL,
      0xECB8AD4703B360A1ULL, 0xFDE6DC7FE2EC5E64ULL, 0xC50DA53101795238ULL,
      0xB82154855A65DDB2ULL, 0xD99A2743EBE60087ULL};
  Rng rng(42);
  ReferenceXoshiro256 reference(42);
  for (uint64_t golden : kGolden) {
    const uint64_t reference_value = reference.next();
    EXPECT_EQ(reference_value, golden);
    EXPECT_EQ(rng.NextU64(), golden);
  }
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(rng.NextU64(), reference.next());
}

TEST(Rng, UniformIntDegenerateAndFullRange) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(3);
  for (int64_t v : {kMin, int64_t{-1}, int64_t{0}, int64_t{7}, kMax}) {
    EXPECT_EQ(rng.UniformInt(v, v), v);
  }
  // The full range is the raw stream reinterpreted as signed.
  Rng a(9), b(9);
  bool negative = false, positive = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = a.UniformInt(kMin, kMax);
    EXPECT_EQ(x, static_cast<int64_t>(b.NextU64()));
    negative |= x < 0;
    positive |= x > 0;
  }
  EXPECT_TRUE(negative && positive);
  // Ranges wider than INT64_MAX stay in bounds.
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(kMin + 1, kMax - 1);
    EXPECT_GT(x, kMin);
    EXPECT_LT(x, kMax);
  }
}

TEST(Rng, UniformIntIsUnbiased) {
  // χ² goodness of fit over the 10 values of [-3, 6]: 9 degrees of freedom,
  // whose 0.1% critical value is 27.88.
  constexpr int kDraws = 100'000;
  std::array<int, 10> counts{};
  Rng rng(11);
  for (int i = 0; i < kDraws; ++i) {
    const int64_t x = rng.UniformInt(-3, 6);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 6);
    ++counts[static_cast<size_t>(x + 3)];
  }
  const double expected = kDraws / 10.0;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.88);
}

/// Sample mean and (population) variance of \p n draws of \p draw.
template <typename Draw>
std::pair<double, double> Moments(int n, Draw draw) {
  OnlineStats stats;
  for (int i = 0; i < n; ++i) stats.Add(draw());
  return {stats.mean(), stats.variance()};
}

TEST(Rng, NormalAndExponentialMoments) {
  // 1e6 draws: a 1% band is then at least 3.5 standard errors wide for
  // every moment checked (the exponential's variance has the widest
  // sampling spread, sqrt(8/n)·σ²).
  constexpr int kDraws = 1'000'000;
  Rng rng(5);
  auto [normal_mean, normal_var] =
      Moments(kDraws, [&] { return rng.Normal(5.0, 2.0); });
  EXPECT_NEAR(normal_mean, 5.0, 0.01 * 5.0);
  EXPECT_NEAR(normal_var, 4.0, 0.01 * 4.0);
  auto [exp_mean, exp_var] =
      Moments(kDraws, [&] { return rng.Exponential(0.5); });
  EXPECT_NEAR(exp_mean, 2.0, 0.01 * 2.0);
  EXPECT_NEAR(exp_var, 4.0, 0.01 * 4.0);
}

TEST(Rng, BernoulliAtZeroAndOne) {
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
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
