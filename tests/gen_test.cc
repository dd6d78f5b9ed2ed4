// Unit tests for the data generators: distributions, the DEBS-like stream
// generator (scale rate, event rate, determinism).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "gen/distribution.h"
#include "gen/generator.h"

namespace dema::gen {
namespace {

TEST(Distribution, KindNamesRoundTrip) {
  for (auto kind :
       {DistributionKind::kUniform, DistributionKind::kNormal,
        DistributionKind::kExponential, DistributionKind::kZipf,
        DistributionKind::kSensorWalk}) {
    auto parsed = DistributionKindFromString(DistributionKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(DistributionKindFromString("gaussian").ok());
}

TEST(Distribution, UniformStaysInRange) {
  DistributionParams p;
  p.kind = DistributionKind::kUniform;
  p.lo = 10;
  p.hi = 20;
  auto dist = ValueDistribution::Create(p);
  ASSERT_TRUE(dist.ok());
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    double v = (*dist)->Next(&rng);
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 20);
  }
}

TEST(Distribution, SensorWalkStaysInRangeAndMovesSmoothly) {
  DistributionParams p;
  p.kind = DistributionKind::kSensorWalk;
  p.lo = 0;
  p.hi = 100;
  p.stddev = 1;
  p.kick_prob = 0;
  auto dist = ValueDistribution::Create(p);
  ASSERT_TRUE(dist.ok());
  Rng rng(5);
  double prev = (*dist)->Next(&rng);
  int big_jumps = 0;
  for (int i = 0; i < 5000; ++i) {
    double v = (*dist)->Next(&rng);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 100);
    if (std::abs(v - prev) > 10) ++big_jumps;
    prev = v;
  }
  EXPECT_EQ(big_jumps, 0);  // without kicks, steps stay small
}

TEST(Distribution, ZipfIsHeadHeavy) {
  DistributionParams p;
  p.kind = DistributionKind::kZipf;
  p.lo = 0;
  p.hi = 1000;
  p.zipf_s = 1.2;
  p.zipf_n = 1000;
  auto dist = ValueDistribution::Create(p);
  ASSERT_TRUE(dist.ok());
  Rng rng(11);
  int in_head = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    double v = (*dist)->Next(&rng);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 1000);
    if (v < 100) ++in_head;  // bottom 10% of the value range
  }
  // A 1.2-skewed Zipf puts far more than 10% of mass in the head.
  EXPECT_GT(in_head, kDraws / 2);
}

TEST(Distribution, NormalRoughlyCentered) {
  DistributionParams p;
  p.kind = DistributionKind::kNormal;
  p.mean = 50;
  p.stddev = 5;
  auto dist = ValueDistribution::Create(p);
  ASSERT_TRUE(dist.ok());
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += (*dist)->Next(&rng);
  EXPECT_NEAR(sum / 10000, 50, 0.5);
}

TEST(Distribution, InvalidParamsRejected) {
  DistributionParams p;
  p.kind = DistributionKind::kUniform;
  p.lo = 5;
  p.hi = 5;
  EXPECT_FALSE(ValueDistribution::Create(p).ok());
  p.kind = DistributionKind::kNormal;
  p.stddev = 0;
  EXPECT_FALSE(ValueDistribution::Create(p).ok());
  p.kind = DistributionKind::kExponential;
  p.lambda = -1;
  EXPECT_FALSE(ValueDistribution::Create(p).ok());
  p.kind = DistributionKind::kZipf;
  p.lo = 0;
  p.hi = 10;
  p.zipf_s = 0;
  EXPECT_FALSE(ValueDistribution::Create(p).ok());
}

GeneratorConfig BaseConfig() {
  GeneratorConfig cfg;
  cfg.node = 3;
  cfg.seed = 77;
  cfg.distribution.kind = DistributionKind::kUniform;
  cfg.distribution.lo = 0;
  cfg.distribution.hi = 1;
  cfg.event_rate = 1000;  // 1 event per millisecond
  return cfg;
}

TEST(Generator, StampsNodeAndMonotoneSeq) {
  auto gen = StreamGenerator::Create(BaseConfig());
  ASSERT_TRUE(gen.ok());
  for (uint32_t i = 0; i < 100; ++i) {
    Event e = (*gen)->Next();
    EXPECT_EQ(e.node, 3u);
    EXPECT_EQ(e.seq, i);
  }
}

TEST(Generator, EventTimeAdvancesAtEventRate) {
  auto gen = StreamGenerator::Create(BaseConfig());
  ASSERT_TRUE(gen.ok());
  Event first = (*gen)->Next();
  EXPECT_EQ(first.timestamp, 0);
  Event second = (*gen)->Next();
  EXPECT_EQ(second.timestamp, 1000);  // 1/event_rate seconds
}

TEST(Generator, ScaleRateMultipliesValues) {
  GeneratorConfig cfg = BaseConfig();
  auto base = StreamGenerator::Create(cfg);
  cfg.scale_rate = 10;
  auto scaled = StreamGenerator::Create(cfg);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(scaled.ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ((*scaled)->Next().value, (*base)->Next().value * 10);
  }
}

TEST(Generator, DeterministicPerSeed) {
  auto a = StreamGenerator::Create(BaseConfig());
  auto b = StreamGenerator::Create(BaseConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*a)->Next(), (*b)->Next());
  }
}

TEST(Generator, GenerateWindowRespectsBounds) {
  auto gen = StreamGenerator::Create(BaseConfig());
  ASSERT_TRUE(gen.ok());
  auto events = (*gen)->GenerateWindow(0, SecondsUs(1));
  EXPECT_EQ(events.size(), 1000u);  // event_rate * window length
  for (const Event& e : events) {
    EXPECT_GE(e.timestamp, 0);
    EXPECT_LT(e.timestamp, SecondsUs(1));
  }
  auto next = (*gen)->GenerateWindow(SecondsUs(1), SecondsUs(1));
  EXPECT_EQ(next.size(), 1000u);
  EXPECT_GE(next.front().timestamp, SecondsUs(1));
}

TEST(Generator, JitterKeepsTimesIncreasing) {
  GeneratorConfig cfg = BaseConfig();
  cfg.time_jitter = 0.5;
  auto gen = StreamGenerator::Create(cfg);
  ASSERT_TRUE(gen.ok());
  TimestampUs prev = -1;
  for (int i = 0; i < 1000; ++i) {
    Event e = (*gen)->Next();
    EXPECT_GT(e.timestamp, prev);
    prev = e.timestamp;
  }
}

TEST(Generator, InvalidConfigRejected) {
  GeneratorConfig cfg = BaseConfig();
  cfg.event_rate = 0;
  EXPECT_FALSE(StreamGenerator::Create(cfg).ok());
  cfg = BaseConfig();
  cfg.time_jitter = 1.5;
  EXPECT_FALSE(StreamGenerator::Create(cfg).ok());
  cfg = BaseConfig();
  cfg.scale_rate = 0;
  EXPECT_FALSE(StreamGenerator::Create(cfg).ok());
}

}  // namespace
}  // namespace dema::gen
