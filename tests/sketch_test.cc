// Unit and property tests for the quantile sketches: t-digest (merging
// variant, k1 scale) and q-digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "net/serializer.h"
#include "sketch/qdigest.h"
#include "sketch/tdigest.h"
#include "stream/quantile.h"

namespace dema::sketch {
namespace {

double OracleQuantile(std::vector<double> values, double q) {
  auto r = stream::ExactQuantileValues(std::move(values), q);
  EXPECT_TRUE(r.ok());
  return *r;
}

TEST(TDigest, EmptyDigestRejectsQueries) {
  TDigest d;
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.Quantile(0.5).ok());
  EXPECT_FALSE(d.Cdf(1.0).ok());
}

TEST(TDigest, SingleValue) {
  TDigest d;
  d.Add(42.0);
  auto q = d.Quantile(0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(*q, 42.0);
  EXPECT_EQ(d.min(), 42.0);
  EXPECT_EQ(d.max(), 42.0);
}

TEST(TDigest, RejectsInvalidQuantile) {
  TDigest d;
  d.Add(1.0);
  EXPECT_FALSE(d.Quantile(-0.1).ok());
  EXPECT_FALSE(d.Quantile(1.1).ok());
}

TEST(TDigest, ExtremesAreExact) {
  TDigest d(100);
  Rng rng(3);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 50'000; ++i) {
    double x = rng.Normal(0, 100);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    d.Add(x);
  }
  auto q0 = d.Quantile(0.0);
  auto q1 = d.Quantile(1.0);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  EXPECT_DOUBLE_EQ(*q0, lo);
  EXPECT_DOUBLE_EQ(*q1, hi);
}

TEST(TDigest, CentroidCountStaysBounded) {
  TDigest d(100);
  Rng rng(5);
  for (int i = 0; i < 200'000; ++i) d.Add(rng.Uniform(0, 1));
  d.Compress();
  // The k1 scale function bounds the compressed size to ~delta centroids.
  EXPECT_LE(d.num_centroids(), 200u);
  EXPECT_DOUBLE_EQ(d.total_weight(), 200'000);
}

struct AccuracyParam {
  double compression;
  double q;
  double rank_tolerance;  // allowed |cdf(estimate) - q|
  const char* name;
};

// Stable test names: gtest's default byte dump would print the name pointer.
void PrintTo(const AccuracyParam& p, std::ostream* os) { *os << p.name; }

class TDigestAccuracy : public ::testing::TestWithParam<AccuracyParam> {};

TEST_P(TDigestAccuracy, RankErrorWithinTolerance) {
  const auto& p = GetParam();
  TDigest d(p.compression);
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 100'000; ++i) {
    double x = rng.Exponential(0.1);
    values.push_back(x);
    d.Add(x);
  }
  auto est = d.Quantile(p.q);
  ASSERT_TRUE(est.ok());
  // Rank error: what fraction of the data is below the estimate vs q.
  std::sort(values.begin(), values.end());
  double below = static_cast<double>(
                     std::lower_bound(values.begin(), values.end(), *est) -
                     values.begin()) /
                 static_cast<double>(values.size());
  EXPECT_NEAR(below, p.q, p.rank_tolerance) << "estimate " << *est;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TDigestAccuracy,
    ::testing::Values(AccuracyParam{100, 0.5, 0.02, "mid_c100"},
                      AccuracyParam{100, 0.01, 0.005, "tail_lo_c100"},
                      AccuracyParam{100, 0.99, 0.005, "tail_hi_c100"},
                      AccuracyParam{500, 0.5, 0.005, "mid_c500"},
                      AccuracyParam{50, 0.5, 0.05, "mid_c50"}),
    [](const auto& info) { return info.param.name; });

TEST(TDigest, MergePreservesAccuracy) {
  Rng rng(23);
  TDigest whole(100), a(100), b(100);
  std::vector<double> values;
  for (int i = 0; i < 60'000; ++i) {
    double x = rng.Normal(100, 25);
    values.push_back(x);
    whole.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), whole.total_weight());
  double exact = OracleQuantile(values, 0.5);
  auto merged_est = a.Quantile(0.5);
  ASSERT_TRUE(merged_est.ok());
  EXPECT_NEAR(*merged_est, exact, 2.0);  // stddev 25 -> tight at the median
}

TEST(TDigest, SerializationRoundTripPreservesQueries) {
  TDigest d(100);
  Rng rng(31);
  for (int i = 0; i < 10'000; ++i) d.Add(rng.Uniform(-50, 50));
  net::Writer w;
  d.SerializeTo(&w);
  net::Reader r(w.buffer());
  auto restored = TDigest::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored->total_weight(), d.total_weight());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(*restored->Quantile(q), *d.Quantile(q));
  }
}

TEST(TDigest, DeserializeRejectsCorruptBuffers) {
  net::Writer w;
  w.PutDouble(100);  // compression only, then truncation
  net::Reader r(w.buffer());
  EXPECT_FALSE(TDigest::Deserialize(&r).ok());
}

TEST(TDigest, CdfIsMonotone) {
  TDigest d(100);
  Rng rng(37);
  for (int i = 0; i < 20'000; ++i) d.Add(rng.Normal(0, 10));
  double prev = -1;
  for (double x = -40; x <= 40; x += 1) {
    auto c = d.Cdf(x);
    ASSERT_TRUE(c.ok());
    EXPECT_GE(*c, prev - 1e-12);
    EXPECT_GE(*c, 0.0);
    EXPECT_LE(*c, 1.0);
    prev = *c;
  }
  EXPECT_DOUBLE_EQ(*d.Cdf(-1000), 0.0);
  EXPECT_DOUBLE_EQ(*d.Cdf(1000), 1.0);
}

TEST(TDigest, WeightedAdds) {
  TDigest d(100);
  d.Add(1.0, 99);
  d.Add(100.0, 1);
  EXPECT_DOUBLE_EQ(d.total_weight(), 100);
  auto q = d.Quantile(0.5);
  ASSERT_TRUE(q.ok());
  EXPECT_LT(*q, 10.0);  // mass concentrates at 1.0
}

// --- q-digest ---------------------------------------------------------------

TEST(ValueQuantizer, RoundTripsWithinResolution) {
  ValueQuantizer quant(0, 1000, 16);
  for (double v : {0.0, 1.0, 499.5, 999.9}) {
    uint64_t b = quant.ToBucket(v);
    double back = quant.FromBucket(b);
    EXPECT_NEAR(back, v, 1000.0 / (1 << 16) + 1e-9);
  }
  EXPECT_EQ(quant.ToBucket(-5), 0u);                       // clamps low
  EXPECT_EQ(quant.ToBucket(2000), quant.universe() - 1);   // clamps high
}

TEST(QDigest, EmptyRejectsQueries) {
  QDigest d(ValueQuantizer(0, 100, 10), 32);
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.Quantile(0.5).ok());
}

TEST(QDigest, CompressionBoundsNodeCount) {
  QDigest d(ValueQuantizer(0, 1000, 16), 64);
  Rng rng(41);
  for (int i = 0; i < 100'000; ++i) d.Add(rng.Uniform(0, 1000));
  d.Compress();
  // Digest property keeps O(k * log(universe)) nodes: 64 * 16 * small const.
  EXPECT_LE(d.num_nodes(), 3u * 64 * 16);
  EXPECT_EQ(d.total_weight(), 100'000u);
}

TEST(QDigest, RankErrorWithinGuarantee) {
  constexpr uint64_t kK = 100;
  constexpr uint32_t kBits = 16;
  QDigest d(ValueQuantizer(0, 1000, kBits), kK);
  Rng rng(43);
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    double x = rng.Uniform(0, 1000);
    values.push_back(x);
    d.Add(x);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    auto est = d.Quantile(q);
    ASSERT_TRUE(est.ok());
    double below = static_cast<double>(
                       std::lower_bound(values.begin(), values.end(), *est) -
                       values.begin()) /
                   static_cast<double>(values.size());
    // Guarantee: rank error <= bits / k (plus quantization slack).
    double bound = static_cast<double>(kBits) / kK + 0.01;
    EXPECT_LE(std::abs(below - q), bound) << "q=" << q;
  }
}

TEST(QDigest, MergeMatchesCombinedStream) {
  QDigest a(ValueQuantizer(0, 1000, 14), 64);
  QDigest b(ValueQuantizer(0, 1000, 14), 64);
  QDigest whole(ValueQuantizer(0, 1000, 14), 64);
  Rng rng(47);
  for (int i = 0; i < 20'000; ++i) {
    double x = rng.Normal(500, 120);
    whole.Add(x);
    (i % 2 ? a : b).Add(x);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.total_weight(), whole.total_weight());
  auto qa = a.Quantile(0.5);
  auto qw = whole.Quantile(0.5);
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qw.ok());
  EXPECT_NEAR(*qa, *qw, 25.0);
}

TEST(QDigest, MergeRejectsDifferentUniverse) {
  QDigest a(ValueQuantizer(0, 1000, 14), 64);
  QDigest b(ValueQuantizer(0, 1000, 12), 64);
  a.Add(1);
  b.Add(1);
  EXPECT_FALSE(a.Merge(b).ok());
}

TEST(QDigest, SerializationRoundTrip) {
  QDigest d(ValueQuantizer(-100, 100, 12), 32);
  Rng rng(53);
  for (int i = 0; i < 5'000; ++i) d.Add(rng.Uniform(-100, 100));
  net::Writer w;
  d.SerializeTo(&w);
  net::Reader r(w.buffer());
  auto restored = QDigest::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_weight(), d.total_weight());
  EXPECT_EQ(restored->num_nodes(), d.num_nodes());
  EXPECT_DOUBLE_EQ(*restored->Quantile(0.5), *d.Quantile(0.5));
}

TEST(QDigest, DeserializeValidatesWeights) {
  QDigest d(ValueQuantizer(0, 10, 8), 16);
  d.Add(5);
  net::Writer w;
  d.SerializeTo(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // Corrupt the total count field (offset: lo(8) + hi(8) + bits(4) + k(8)).
  bytes[8 + 8 + 4 + 8] ^= 0xFF;
  net::Reader r(bytes);
  EXPECT_FALSE(QDigest::Deserialize(&r).ok());
}

}  // namespace
}  // namespace dema::sketch
