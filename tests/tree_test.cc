// Hierarchical-aggregation tests: Dema through relay tiers must stay exact,
// cut root fan-in, propagate gamma downward, and compose to deeper trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/rng.h"
#include "dema/local_node.h"
#include "dema/root_node.h"
#include "sim/tree.h"
#include "stream/quantile.h"

namespace dema::sim {
namespace {

gen::DistributionParams Uniform01k() {
  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kUniform;
  dist.lo = 0;
  dist.hi = 1000;
  return dist;
}

struct TreeRun {
  std::vector<WindowOutput> outputs;
  std::vector<std::vector<double>> oracle;  // [window] -> values
  uint64_t events = 0;
};

/// Runs \p config for \p windows windows; \p prepare, when given, sees the
/// built tree before the first event.
TreeRun RunTree(const TreeConfig& config, uint64_t windows, double rate,
                const std::function<void(System*)>& prepare = nullptr) {
  RealClock clock;
  net::Network network(&clock);
  auto tree = BuildTreeSystem(config, &network, &clock);
  EXPECT_TRUE(tree.ok()) << tree.status();
  if (prepare) prepare(&*tree);

  size_t leaves = config.num_relays * config.locals_per_relay;
  WorkloadConfig load =
      MakeUniformWorkload(leaves, windows, rate, Uniform01k());
  load.window_len_us = config.window_len_us;
  // MakeUniformWorkload numbers nodes 1..N; renumber to the leaf ids.
  for (size_t i = 0; i < leaves; ++i) {
    load.generators[i].node = tree->local_ids[i];
  }

  // Oracle from identical generators.
  TreeRun run;
  run.oracle.assign(windows, {});
  std::vector<std::vector<double>> per_window(windows);
  for (const auto& gcfg : load.generators) {
    auto gen = gen::StreamGenerator::Create(gcfg);
    EXPECT_TRUE(gen.ok());
    for (uint64_t w = 0; w < windows; ++w) {
      for (const Event& e : (*gen)->GenerateWindow(
               static_cast<TimestampUs>(w) * config.window_len_us,
               config.window_len_us)) {
        per_window[w].push_back(e.value);
      }
    }
  }
  for (uint64_t w = 0; w < windows; ++w) {
    for (double q : config.quantiles) {
      auto oracle = stream::ExactQuantileValues(per_window[w], q);
      EXPECT_TRUE(oracle.ok());
      run.oracle[w].push_back(*oracle);
    }
  }

  SyncDriver driver(&*tree, &network);
  Status st = driver.Run(load);
  EXPECT_TRUE(st.ok()) << st;
  run.outputs = driver.outputs();
  run.events = driver.events_ingested();
  return run;
}

TEST(TreeTopology, BuilderValidates) {
  RealClock clock;
  net::Network network(&clock);
  TreeConfig config;
  config.num_relays = 0;
  EXPECT_FALSE(BuildTreeSystem(config, &network, &clock).ok());
}

TEST(TreeTopology, ExactThroughOneRelayTier) {
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 3;
  config.gamma = 64;
  TreeRun run = RunTree(config, /*windows=*/4, /*rate=*/2000);
  ASSERT_EQ(run.outputs.size(), 4u);
  for (const auto& out : run.outputs) {
    EXPECT_DOUBLE_EQ(out.values[0], run.oracle[out.window_id][0])
        << "window " << out.window_id;
  }
}

TEST(TreeTopology, ExactWithMultiQuantileAndSkew) {
  TreeConfig config;
  config.num_relays = 3;
  config.locals_per_relay = 2;
  config.gamma = 32;
  config.quantiles = {0.25, 0.5, 0.9};
  TreeRun run = RunTree(config, /*windows=*/3, /*rate=*/1500);
  for (const auto& out : run.outputs) {
    for (size_t qi = 0; qi < config.quantiles.size(); ++qi) {
      EXPECT_DOUBLE_EQ(out.values[qi], run.oracle[out.window_id][qi]);
    }
  }
}

TEST(TreeTopology, RelayCutsRootFanIn) {
  RealClock clock;
  net::Network network(&clock);
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 4;
  config.gamma = 100;
  auto tree = BuildTreeSystem(config, &network, &clock);
  ASSERT_TRUE(tree.ok());
  WorkloadConfig load = MakeUniformWorkload(8, 3, 2000, Uniform01k());
  load.window_len_us = config.window_len_us;
  for (size_t i = 0; i < 8; ++i) load.generators[i].node = tree->local_ids[i];
  SyncDriver driver(&*tree, &network);
  ASSERT_TRUE(driver.Run(load).ok());

  // The root receives exactly one synopsis batch per relay per window,
  // regardless of leaf count.
  auto by_type = network.StatsByType();
  uint64_t synopsis_msgs = by_type[net::MessageType::kSynopsisBatch].messages;
  // 8 leaves x 3 windows at the relay tier + 2 relays x 3 windows upward.
  EXPECT_EQ(synopsis_msgs, 8u * 3 + 2u * 3);
  uint64_t root_inbound = 0;
  for (NodeId relay : tree->relay_ids) {
    root_inbound += network.GetLinkStats(relay, 0).counters.messages;
  }
  // Root link carries only relay traffic: 3 synopses + <=3 replies per relay.
  EXPECT_LE(root_inbound, 2u * 3 * 2);
}

TEST(TreeTopology, RelaysAbsorbDuplicateDeliveries) {
  // An at-least-once fabric repeats messages with their original sequence
  // numbers; a relay must drop the repeats as the root and the locals do,
  // instead of failing the run on a "duplicate" synopsis or a reply for a
  // window it already answered.
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  config.gamma = 64;
  config.quantiles = {0.25, 0.5, 0.9};
  constexpr uint64_t kWindows = 4;
  for (uint64_t seed : {1, 2, 3}) {
    RealClock clock;
    net::Network::Options options;
    options.duplicate_prob = 0.2;
    options.fault_seed = seed;
    net::Network network(&clock, options);
    auto tree = BuildTreeSystem(config, &network, &clock);
    ASSERT_TRUE(tree.ok()) << tree.status();
    WorkloadConfig load = MakeUniformWorkload(tree->local_ids.size(), kWindows,
                                              2000, Uniform01k());
    load.window_len_us = config.window_len_us;
    for (size_t i = 0; i < tree->local_ids.size(); ++i) {
      load.generators[i].node = tree->local_ids[i];
    }
    SyncDriver driver(&*tree, &network);
    driver.set_record_events(true);
    Status st = driver.Run(load);
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st;

    ASSERT_EQ(driver.outputs().size(), kWindows) << "seed " << seed;
    for (const WindowOutput& out : driver.outputs()) {
      std::vector<double> values;
      for (const Event& e : driver.recorded_events()[out.window_id]) {
        values.push_back(e.value);
      }
      EXPECT_FALSE(out.degraded) << "seed " << seed;
      ASSERT_EQ(out.global_size, values.size()) << "seed " << seed;
      for (size_t qi = 0; qi < config.quantiles.size(); ++qi) {
        auto oracle = stream::ExactQuantileValues(values, config.quantiles[qi]);
        ASSERT_TRUE(oracle.ok()) << oracle.status();
        EXPECT_EQ(out.values[qi], *oracle)
            << "seed " << seed << " window " << out.window_id;
      }
    }
    uint64_t ignored = 0;
    for (size_t r = 0; r < tree->relays.size(); ++r) {
      ignored += tree->relays[r]->registry()->CounterValue(
          "dema.duplicates_ignored{node=" + std::to_string(tree->relay_ids[r]) +
          "}");
    }
    EXPECT_GT(ignored, 0u) << "seed " << seed;
  }
}

TEST(TreeTopology, RelayRejectsForgedAndTamperedChildPayloads) {
  // A relay validates its children as the root validates its locals: a
  // synopsis from an unknown sender and a child batch that is no γ-cut are
  // counted and dropped, never fatal, and the honest synopses that follow
  // still complete every window exactly.
  obs::Registry registry;
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  config.gamma = 64;
  config.registry = &registry;
  auto slice = [](NodeId node, uint32_t index, uint64_t count, double lo,
                  double hi) {
    core::SliceSynopsis s;
    s.node = node;
    s.index = index;
    s.count = count;
    s.first = Event{lo, 1000, node, 0};
    s.last = Event{hi, 2000, node, 1};
    return s;
  };
  TreeRun run = RunTree(config, /*windows=*/3, /*rate=*/2000, [&](System* tree) {
    core::DemaRootNode* relay = tree->relays[0].get();
    const NodeId relay_id = tree->relay_ids[0];
    core::SynopsisBatch forged;
    forged.node = 99;
    forged.gamma_used = 4;
    forged.local_window_size = 1;
    forged.slices = {slice(99, 0, 1, 5, 5)};
    Status st = relay->OnMessage(net::MakeMessage(
        net::MessageType::kSynopsisBatch, 99, relay_id, forged));
    EXPECT_TRUE(st.ok()) << st;
    // Structurally sound, but slice 0 holds 5 events under γ = 4.
    const NodeId leaf = tree->local_ids[0];
    core::SynopsisBatch tampered;
    tampered.node = leaf;
    tampered.gamma_used = 4;
    tampered.local_window_size = 8;
    tampered.slices = {slice(leaf, 0, 5, 1, 2), slice(leaf, 1, 3, 3, 4)};
    st = relay->OnMessage(net::MakeMessage(net::MessageType::kSynopsisBatch,
                                           leaf, relay_id, tampered));
    EXPECT_TRUE(st.ok()) << st;
  });
  ASSERT_EQ(run.outputs.size(), 3u);
  for (const auto& out : run.outputs) {
    EXPECT_FALSE(out.degraded);
    EXPECT_DOUBLE_EQ(out.values[0], run.oracle[out.window_id][0])
        << "window " << out.window_id;
  }
  EXPECT_EQ(registry.CounterValue("dema.rejected{node=1}"), 2u);
  EXPECT_EQ(registry.CounterValue("dema.rejected{reason=unknown_node,node=1}"),
            1u);
  EXPECT_EQ(registry.CounterValue("dema.rejected{reason=slice_size,node=1}"),
            1u);
  EXPECT_EQ(registry.CounterValue("dema.rejected{node=2}"), 0u);
  EXPECT_EQ(registry.CounterValue("dema.rejected"), 0u);  // the root's

  // A relay neither cuts, selects nor emits, and runs without recovery, so
  // it registers none of those instruments; the root keeps them unlabelled.
  for (const std::string name :
       {"dema.classes.separate", "dema.classes.compound", "dema.classes.cover",
        "dema.clock_skew_windows", "dema.degraded_windows",
        "dema.global_events", "dema.quarantined", "dema.readmitted",
        "root.retries", "root.send_failures"}) {
    EXPECT_NE(registry.FindCounter(name), nullptr) << name;
    for (const char* relay : {"{node=1}", "{node=2}"}) {
      EXPECT_EQ(registry.FindCounter(name + relay), nullptr) << name << relay;
    }
  }
  EXPECT_NE(registry.FindHistogram("root.select_us"), nullptr);
  EXPECT_EQ(registry.FindHistogram("root.select_us{node=1}"), nullptr);
  EXPECT_EQ(registry.FindHistogram("root.select_us{node=2}"), nullptr);
}

TEST(TreeTopology, RelayRejectsRequestsItNeverInvited) {
  // Only the parent may request candidates, and only for a window the relay
  // forwarded; anything else is counted and dropped, and the run stays exact.
  obs::Registry registry;
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  config.gamma = 64;
  config.registry = &registry;
  TreeRun run = RunTree(config, /*windows=*/2, /*rate=*/2000, [](System* tree) {
    core::DemaRootNode* relay = tree->relays[0].get();
    const NodeId relay_id = tree->relay_ids[0];
    core::CandidateRequest request;
    request.window_id = 0;
    request.slice_indices = {0};
    Status st = relay->OnMessage(net::MakeMessage(
        net::MessageType::kCandidateRequest, tree->local_ids[0], relay_id,
        request));
    EXPECT_TRUE(st.ok()) << st;
    st = relay->OnMessage(net::MakeMessage(net::MessageType::kCandidateRequest,
                                           tree->root_id, relay_id, request));
    EXPECT_TRUE(st.ok()) << st;
  });
  ASSERT_EQ(run.outputs.size(), 2u);
  for (const auto& out : run.outputs) {
    EXPECT_DOUBLE_EQ(out.values[0], run.oracle[out.window_id][0])
        << "window " << out.window_id;
  }
  EXPECT_EQ(registry.CounterValue("dema.rejected{reason=unknown_node,node=1}"),
            1u);
  EXPECT_EQ(
      registry.CounterValue("dema.rejected{reason=unexpected_request,node=1}"),
      1u);
}

TEST(TreeTopology, GammaUpdatePropagatesToLeaves) {
  RealClock clock;
  net::Network network(&clock);
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  auto tree = BuildTreeSystem(config, &network, &clock);
  ASSERT_TRUE(tree.ok());

  // Inject a gamma update at a relay as the root would.
  core::GammaUpdate update;
  update.effective_from = 0;
  update.gamma = 7;
  auto msg =
      net::MakeMessage(net::MessageType::kGammaUpdate, 0, tree->relay_ids[0], update);
  ASSERT_TRUE(tree->relays[0]->OnMessage(msg).ok());
  // Both of relay 0's leaves got it.
  for (size_t leaf = 0; leaf < 2; ++leaf) {
    auto forwarded = network.Inbox(tree->local_ids[leaf])->TryPop();
    ASSERT_TRUE(forwarded.has_value());
    EXPECT_EQ(forwarded->type, net::MessageType::kGammaUpdate);
    auto* local = static_cast<core::DemaLocalNode*>(tree->locals[leaf].get());
    ASSERT_TRUE(local->OnMessage(*forwarded).ok());
    EXPECT_EQ(local->GammaForWindow(0), 7u);
  }
}

TEST(TreeTopology, RelayAnswersGammaResyncWithTheParentsGamma) {
  // A restarted leaf re-syncs γ with its relay; the answer must be the
  // factor the parent last prescribed, not the relay's initial one.
  RealClock clock;
  net::Network network(&clock);
  TreeConfig config;
  config.num_relays = 2;
  config.locals_per_relay = 2;
  auto tree = BuildTreeSystem(config, &network, &clock);
  ASSERT_TRUE(tree.ok());
  const NodeId relay_id = tree->relay_ids[0];
  const NodeId leaf_id = tree->local_ids[0];

  core::GammaUpdate update;
  update.effective_from = 3;
  update.gamma = 500;
  ASSERT_TRUE(tree->relays[0]
                  ->OnMessage(net::MakeMessage(net::MessageType::kGammaUpdate,
                                               tree->root_id, relay_id, update))
                  .ok());
  while (network.Inbox(leaf_id)->TryPop().has_value()) {
  }

  core::GammaSyncRequest sync;
  sync.node = leaf_id;
  ASSERT_TRUE(tree->relays[0]
                  ->OnMessage(net::MakeMessage(
                      net::MessageType::kGammaSyncRequest, leaf_id, relay_id,
                      sync))
                  .ok());
  auto answer = network.Inbox(leaf_id)->TryPop();
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->type, net::MessageType::kGammaUpdate);
  net::Reader r(answer->payload_bytes());
  auto resync = core::GammaUpdate::Deserialize(&r);
  ASSERT_TRUE(resync.ok()) << resync.status();
  EXPECT_EQ(resync->gamma, 500u);
}

TEST(TreeTopology, ThreeLevelTreeComposes) {
  // Hand-built: root <- relay A <- {relay B, leaf L3}; relay B <- {L1, L2}.
  RealClock clock;
  net::Network network(&clock);
  for (NodeId id : {0u, 1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(network.RegisterNode(id).ok());
  }
  core::DemaRootNodeOptions root_opts;
  root_opts.id = 0;
  root_opts.locals = {1};
  root_opts.initial_gamma = 8;
  // Hand-built tree: like BuildTreeSystem, the root must accept relay-combined
  // batches, which the strict flat-topology validation rules reject.
  root_opts.strict_validation = false;
  core::DemaRootNode root(root_opts, &network, &clock);

  // Relays are root nodes with a parent. Relay A hears relay B's combined
  // batch, so it too keeps only the structural validation rules.
  core::DemaRootNodeOptions a_opts;
  a_opts.id = 1;
  a_opts.parent = 0;
  a_opts.locals = {2, 3};
  a_opts.strict_validation = false;
  core::DemaRootNode relay_a(a_opts, &network, &clock);

  core::DemaRootNodeOptions b_opts;
  b_opts.id = 2;
  b_opts.parent = 1;
  b_opts.locals = {4, 5};
  core::DemaRootNode relay_b(b_opts, &network, &clock);

  auto make_leaf = [&](NodeId id, NodeId parent) {
    core::DemaLocalNodeOptions opts;
    opts.id = id;
    opts.root_id = parent;
    opts.initial_gamma = 8;
    return std::make_unique<core::DemaLocalNode>(opts, &network, &clock);
  };
  auto leaf3 = make_leaf(3, 1);
  auto leaf4 = make_leaf(4, 2);
  auto leaf5 = make_leaf(5, 2);

  std::vector<WindowOutput> outputs;
  root.SetResultCallback(
      [&](const WindowOutput& out) { outputs.push_back(out); });

  // Feed one window of events to every leaf.
  Rng rng(3);
  std::vector<double> all_values;
  uint32_t seq = 0;
  auto feed = [&](core::DemaLocalNode* leaf, NodeId node) {
    for (int i = 0; i < 30; ++i) {
      double v = rng.Uniform(0, 1000);
      all_values.push_back(v);
      ASSERT_TRUE(
          leaf->OnEvent(Event{v, static_cast<TimestampUs>(1000 + i), node, seq++})
              .ok());
    }
    ASSERT_TRUE(leaf->OnWatermark(SecondsUs(1)).ok());
  };
  feed(leaf3.get(), 3);
  feed(leaf4.get(), 4);
  feed(leaf5.get(), 5);

  // Pump all tiers until quiescent.
  bool progress = true;
  core::DemaLocalNode* leaves[] = {leaf3.get(), leaf4.get(), leaf5.get()};
  NodeId leaf_ids[] = {3, 4, 5};
  while (progress) {
    progress = false;
    while (auto m = network.Inbox(0)->TryPop()) {
      ASSERT_TRUE(root.OnMessage(*m).ok());
      progress = true;
    }
    while (auto m = network.Inbox(1)->TryPop()) {
      ASSERT_TRUE(relay_a.OnMessage(*m).ok());
      progress = true;
    }
    while (auto m = network.Inbox(2)->TryPop()) {
      ASSERT_TRUE(relay_b.OnMessage(*m).ok());
      progress = true;
    }
    for (int i = 0; i < 3; ++i) {
      while (auto m = network.Inbox(leaf_ids[i])->TryPop()) {
        ASSERT_TRUE(leaves[i]->OnMessage(*m).ok());
        progress = true;
      }
    }
  }

  ASSERT_EQ(outputs.size(), 1u);
  auto oracle = stream::ExactQuantileValues(all_values, 0.5);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ(outputs[0].values[0], *oracle);
  EXPECT_EQ(outputs[0].global_size, 90u);
}

}  // namespace
}  // namespace dema::sim
