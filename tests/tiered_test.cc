// Tests for the three-tier topology (paper Figure 1): data-stream nodes ship
// raw events over the network to ingest-adapted edge nodes; watermarks are
// coordinated across sensors; results stay exact; tier traffic splits.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/clock.h"
#include "sim/ingest_adapter.h"
#include "sim/tiered.h"
#include "stream/quantile.h"
#include "stream/window_manager.h"

namespace dema::sim {
namespace {

gen::DistributionParams Uniform01k() {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  return dist;
}

TieredConfig BaseConfig(SystemKind kind, size_t locals = 2, size_t sensors = 3) {
  TieredConfig config;
  config.system.kind = kind;
  config.system.num_locals = locals;
  config.system.gamma = 64;
  config.sensors_per_local = sensors;
  MakeTieredWorkload(&config, /*node_event_rate=*/3000, Uniform01k());
  return config;
}

TEST(TieredTopology, BuilderValidatesGeneratorCount) {
  TieredConfig config = BaseConfig(SystemKind::kDema);
  config.sensor_generators.pop_back();
  RealClock clock;
  net::Network network(&clock);
  auto result = BuildTieredSystem(config, &network, &clock);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TieredTopology, SensorIdsAreDisjointFromAggregationTier) {
  TieredConfig config = BaseConfig(SystemKind::kDema, 3, 4);
  RealClock clock;
  net::Network network(&clock);
  auto tiered = BuildTieredSystem(config, &network, &clock);
  ASSERT_TRUE(tiered.ok()) << tiered.status();
  ASSERT_EQ(tiered->sensors.size(), 3u);
  for (const auto& sensors : tiered->sensors) {
    ASSERT_EQ(sensors.size(), 4u);
    for (const StreamNode& sensor : sensors) EXPECT_GT(sensor.id(), 3u);
  }
}

class TieredExactness : public ::testing::TestWithParam<SystemKind> {};

TEST_P(TieredExactness, MatchesFlatOracleSemantics) {
  const uint64_t kWindows = 4;
  // The builder's default seed and seeds 1–20, so no single stream can make
  // it pass.
  std::vector<uint64_t> seeds = {5000};
  for (uint64_t seed = 1; seed <= 20; ++seed) seeds.push_back(seed);
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TieredConfig config = BaseConfig(GetParam());
    MakeTieredWorkload(&config, /*node_event_rate=*/3000, Uniform01k(), seed);

    RealClock clock;
    net::Network network(&clock);
    auto tiered = BuildTieredSystem(config, &network, &clock);
    ASSERT_TRUE(tiered.ok()) << tiered.status();

    // Reference: generate the same sensor streams directly and compute the
    // oracle per window.
    std::vector<std::vector<double>> oracle_values(kWindows);
    for (const auto& gcfg : config.sensor_generators) {
      auto gen = gen::StreamGenerator::Create(gcfg);
      ASSERT_TRUE(gen.ok());
      for (uint64_t w = 0; w < kWindows; ++w) {
        for (const Event& e : (*gen)->GenerateWindow(
                 static_cast<TimestampUs>(w) * kMicrosPerSecond,
                 kMicrosPerSecond)) {
          oracle_values[w].push_back(e.value);
        }
      }
    }

    SyncDriver driver(&*tiered, &network);
    ASSERT_TRUE(driver.Run(TieredWorkload(config, kWindows)).ok());
    ASSERT_EQ(driver.outputs().size(), kWindows);
    for (const WindowOutput& out : driver.outputs()) {
      ASSERT_EQ(out.global_size, oracle_values[out.window_id].size());
      EXPECT_FALSE(out.degraded) << "window " << out.window_id;
      auto oracle =
          stream::ExactQuantileValues(oracle_values[out.window_id], 0.5);
      ASSERT_TRUE(oracle.ok());
      bool exact = GetParam() == SystemKind::kDema ||
                   GetParam() == SystemKind::kCentralExact ||
                   GetParam() == SystemKind::kDesisMerge;
      if (exact) {
        EXPECT_DOUBLE_EQ(out.values[0], *oracle) << "window " << out.window_id;
      } else {
        EXPECT_NEAR(out.values[0], *oracle, 50.0) << "window " << out.window_id;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, TieredExactness,
                         ::testing::Values(SystemKind::kDema,
                                           SystemKind::kCentralExact,
                                           SystemKind::kDesisMerge,
                                           SystemKind::kTDigestDecentral),
                         [](const auto& info) {
                           std::string name =
                               SystemKindToString(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(TieredTopology, TierTrafficSplitsCorrectly) {
  TieredConfig dema_config = BaseConfig(SystemKind::kDema);
  auto dema_metrics = RunTiered(dema_config, 3);
  ASSERT_TRUE(dema_metrics.ok()) << dema_metrics.status();

  TieredConfig central_config = BaseConfig(SystemKind::kCentralExact);
  auto central_metrics = RunTiered(central_config, 3);
  ASSERT_TRUE(central_metrics.ok()) << central_metrics.status();

  // The sensor tier carries every raw event regardless of the system.
  EXPECT_EQ(dema_metrics->sensor_tier.events,
            dema_metrics->run.events_ingested);
  EXPECT_EQ(central_metrics->sensor_tier.events,
            central_metrics->run.events_ingested);
  EXPECT_EQ(dema_metrics->sensor_tier.bytes, central_metrics->sensor_tier.bytes);

  // The aggregation tier is where Dema wins.
  EXPECT_EQ(central_metrics->aggregation_tier.events,
            central_metrics->run.events_ingested);
  EXPECT_LT(dema_metrics->aggregation_tier.events,
            central_metrics->aggregation_tier.events / 2);
}

TEST(IngestAdapter, WatermarkIsMinAcrossSensors) {
  // Wrap a plain window manager probe to observe watermark forwarding.
  struct Probe final : LocalNodeLogic {
    TimestampUs last_watermark = -1;
    uint64_t events = 0;
    Status OnEvent(const Event&) override {
      ++events;
      return Status::OK();
    }
    Status OnWatermark(TimestampUs t) override {
      last_watermark = t;
      return Status::OK();
    }
    Status OnFinish(TimestampUs) override { return Status::OK(); }
    Status OnMessage(const net::Message&) override { return Status::OK(); }
  };

  auto probe = std::make_unique<Probe>();
  Probe* probe_ptr = probe.get();
  IngestAdapter adapter(std::move(probe), {10, 11});

  auto advance = [&](NodeId src, TimestampUs wm) {
    net::TimeAdvance t;
    t.watermark_us = wm;
    auto msg = net::MakeMessage(net::MessageType::kTimeAdvance, src, 1, t);
    ASSERT_TRUE(adapter.OnMessage(msg).ok());
  };

  advance(10, 1000);
  EXPECT_EQ(probe_ptr->last_watermark, 0);  // sensor 11 still at 0
  advance(11, 500);
  EXPECT_EQ(probe_ptr->last_watermark, 500);  // min(1000, 500)
  advance(11, 2000);
  EXPECT_EQ(probe_ptr->last_watermark, 1000);  // min(1000, 2000)
}

TEST(IngestAdapter, AppliesSensorMessagesInSendOrder) {
  struct Probe final : LocalNodeLogic {
    std::vector<std::string> log;
    Status OnEvent(const Event&) override {
      log.push_back("event");
      return Status::OK();
    }
    Status OnWatermark(TimestampUs t) override {
      log.push_back("wm " + std::to_string(t));
      return Status::OK();
    }
    Status OnFinish(TimestampUs) override { return Status::OK(); }
    Status OnMessage(const net::Message&) override { return Status::OK(); }
  };
  auto probe = std::make_unique<Probe>();
  Probe* probe_ptr = probe.get();
  IngestAdapter adapter(std::move(probe), {10});

  net::EventBatch batch;
  batch.events = {Event{1, 0, 10, 0}};
  auto batch_msg = net::MakeMessage(net::MessageType::kEventBatch, 10, 1, batch);
  batch_msg.seq = 1;
  net::TimeAdvance advance;
  advance.watermark_us = 1000;
  auto advance_msg =
      net::MakeMessage(net::MessageType::kTimeAdvance, 10, 1, advance);
  advance_msg.seq = 2;

  // The advance overtook the batch in flight: it waits for seq 1.
  ASSERT_TRUE(adapter.OnMessage(advance_msg).ok());
  EXPECT_TRUE(probe_ptr->log.empty());
  ASSERT_TRUE(adapter.OnMessage(batch_msg).ok());
  ASSERT_TRUE(adapter.OnMessage(batch_msg).ok());  // duplicate: ignored
  EXPECT_EQ(probe_ptr->log, (std::vector<std::string>{"event", "wm 1000"}));
  EXPECT_EQ(adapter.events_ingested(), 1u);
}

TEST(IngestAdapter, RejectsUnregisteredSensors) {
  struct Probe final : LocalNodeLogic {
    Status OnEvent(const Event&) override { return Status::OK(); }
    Status OnWatermark(TimestampUs) override { return Status::OK(); }
    Status OnFinish(TimestampUs) override { return Status::OK(); }
    Status OnMessage(const net::Message&) override { return Status::OK(); }
  };
  IngestAdapter adapter(std::make_unique<Probe>(), {10});
  net::EventBatch batch;
  batch.events = {Event{1, 0, 99, 0}};
  auto msg = net::MakeMessage(net::MessageType::kEventBatch, 99, 1, batch);
  EXPECT_EQ(adapter.OnMessage(msg).code(), StatusCode::kInvalidArgument);
}

TEST(StreamNode, ProducesBatchesAndMarkers) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(1).ok());  // parent
  StreamNodeOptions opts;
  opts.id = 7;
  opts.parent = 1;
  opts.batch_size = 100;
  gen::GeneratorConfig gcfg;
  gcfg.node = opts.id;
  gcfg.distribution = Uniform01k();
  gcfg.event_rate = 1000;
  auto gen = gen::StreamGenerator::Create(gcfg);
  ASSERT_TRUE(gen.ok()) << gen.status();
  std::vector<Event> readings = (*gen)->GenerateWindow(0, SecondsUs(1));
  ASSERT_EQ(readings.size(), 1000u);
  StreamNode sensor(opts, &network);
  ASSERT_TRUE(sensor.Ship(readings, SecondsUs(1)).ok());

  // 10 full batches + 1 time-advance marker.
  net::Channel* inbox = network.Inbox(1);
  size_t batches = 0, markers = 0;
  uint64_t events = 0;
  while (auto msg = inbox->TryPop()) {
    if (msg->type == net::MessageType::kEventBatch) {
      ++batches;
      events += msg->event_count;
      EXPECT_EQ(msg->src, 7u);
    } else if (msg->type == net::MessageType::kTimeAdvance) {
      ++markers;
      net::Reader r(msg->payload);
      auto advance = net::TimeAdvance::Deserialize(&r);
      ASSERT_TRUE(advance.ok());
      EXPECT_EQ(advance->watermark_us, SecondsUs(1));
      EXPECT_FALSE(advance->final_marker);
    }
  }
  EXPECT_EQ(batches, 10u);
  EXPECT_EQ(markers, 1u);
  EXPECT_EQ(events, 1000u);
}

}  // namespace
}  // namespace dema::sim
