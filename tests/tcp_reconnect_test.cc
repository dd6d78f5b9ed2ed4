// Session-resilience tests for the TCP transport: heartbeat liveness and
// RTT probing, silent-peer detection, chaos-injected connection kills with
// auto-reconnect + acked-frame replay (exactly-once delivery), and loopback
// cluster parity with the whole resilience layer switched on — control
// traffic must stay invisible to the byte-parity accounting.
//
// Thread-based only (no forking), so this binary runs under the sanitizer
// and TSan lanes; the forked connection-chaos parity run lives in
// tcp_conn_chaos_test.cc.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "gen/generator.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/driver.h"
#include "sim/tcp_run.h"
#include "sim/topology.h"
#include "transport/frame.h"
#include "transport/tcp.h"

namespace dema::transport {
namespace {

net::Message TestMessage(NodeId src, NodeId dst, size_t payload_bytes) {
  net::Message m;
  m.type = net::MessageType::kEventBatch;
  m.src = src;
  m.dst = dst;
  m.payload.assign(payload_bytes, 0xAB);
  return m;
}

/// Polls \p pred every 10ms for up to \p deadline_ms; true when it held.
bool WaitFor(const std::function<bool()>& pred, int deadline_ms = 5000) {
  for (int waited = 0; waited < deadline_ms; waited += 10) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(TcpResilience, HeartbeatsMeasureRttAndStayOffTheBooks) {
  TcpTransportOptions sopts;
  sopts.session.heartbeat_interval_us = MillisUs(10);
  TcpTransport server(sopts);
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  copts.session.heartbeat_interval_us = MillisUs(10);
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  net::Message m = TestMessage(1, 0, 32);
  const uint64_t wire = m.WireBytes();
  ASSERT_TRUE(client.Send(std::move(m)).ok());
  ASSERT_TRUE(server.Inbox(0)->PopFor(5 * kMicrosPerSecond).has_value());

  // The connection idles; pings flow both ways and each side reads the RTT
  // off its own pong echo (monotonic clock, no clock sharing).
  const obs::Counter* client_beats =
      client.registry()->GetCounter("net.heartbeats");
  const obs::Counter* server_beats =
      server.registry()->GetCounter("net.heartbeats");
  const obs::Gauge* client_rtt =
      client.registry()->GetGauge("net.peer_rtt_us{peer=0}");
  const obs::Gauge* server_rtt =
      server.registry()->GetGauge("net.peer_rtt_us{peer=1}");
  EXPECT_TRUE(WaitFor([&] {
    return client_beats->Value() >= 2 && server_beats->Value() >= 2 &&
           client_rtt->Value() > 0 && server_rtt->Value() > 0;
  })) << "heartbeats never probed the idle connection: client net.heartbeats="
      << client_beats->Value() << " net.peer_rtt_us{peer=0}="
      << client_rtt->Value() << " net.peer_down="
      << client.registry()->GetCounter("net.peer_down")->Value()
      << ", server net.heartbeats=" << server_beats->Value()
      << " net.peer_rtt_us{peer=1}=" << server_rtt->Value()
      << " net.peer_down="
      << server.registry()->GetCounter("net.peer_down")->Value();

  client.Shutdown();
  server.Shutdown();

  // Control frames (heartbeats, acks) are transport-internal: the per-link
  // accounting both parity checks build on must only see the data frame.
  const std::pair<NodeId, NodeId> up{1, 0};
  auto client_sent = client.LinkTraffic();
  ASSERT_EQ(client_sent.count(up), 1u);
  EXPECT_EQ(client_sent[up].bytes, wire);
  EXPECT_EQ(client_sent[up].messages, 1u);
  auto server_recv = server.ReceivedTraffic();
  ASSERT_EQ(server_recv.count(up), 1u);
  EXPECT_EQ(server_recv[up].bytes, wire);
  EXPECT_EQ(server_recv[up].messages, 1u);
}

TEST(TcpResilience, SilentPeerIsDeclaredDownAfterMissedHeartbeats) {
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  copts.session.heartbeat_interval_us = MillisUs(5);
  copts.session.heartbeat_misses = 3;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  ASSERT_TRUE(client.Send(TestMessage(1, 0, 16)).ok());
  ASSERT_TRUE(server.Inbox(0)->PopFor(5 * kMicrosPerSecond).has_value());

  // Freeze the server's I/O loop: its socket stays open (the kernel still
  // ACKs at the TCP level) but nothing ever answers — the failure mode of a
  // wedged process, which a plain closed-socket check can never see.
  server.StopLoopForTest();

  EXPECT_TRUE(WaitFor([&] {
    return client.registry()->GetCounter("net.peer_down")->Value() >= 1;
  })) << "silent peer was never declared dead";
  // auto_reconnect is off: detection must not imply redial.
  EXPECT_EQ(client.registry()->GetCounter("net.reconnects")->Value(), 0u);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpResilience, InjectedConnKillsDeliverEveryMessageExactlyOnce) {
  // Chaos: the client's connection is severed while the stream is in full
  // flight, three times. Auto-reconnect plus the acked-frame replay window
  // must deliver every message exactly once — replayed frames cover the
  // tail the kill swallowed, receiver dedup swallows any double sends.
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  copts.session.heartbeat_interval_us = MillisUs(5);
  copts.session.auto_reconnect = true;
  copts.fault.kill_conn_schedule = {4, 9, 15};
  copts.connect_backoff_initial_us = MillisUs(2);
  copts.connect_backoff_max_us = MillisUs(20);
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  // Payload size is the message identity: every size must arrive once.
  constexpr size_t kMessages = 150;
  uint64_t wire_bytes = 0;
  for (size_t i = 1; i <= kMessages; ++i) {
    net::Message m = TestMessage(1, 0, i);
    wire_bytes += m.WireBytes();
    ASSERT_TRUE(client.Send(std::move(m)).ok()) << "send " << i;
  }

  std::set<size_t> seen;
  for (size_t i = 0; i < kMessages; ++i) {
    auto msg = server.Inbox(0)->PopFor(10 * kMicrosPerSecond);
    ASSERT_TRUE(msg.has_value()) << "lost a message after " << seen.size()
                                 << " deliveries";
    EXPECT_EQ(msg->src, 1u);
    auto [_, first] = seen.insert(msg->payload_size());
    EXPECT_TRUE(first) << "duplicate delivery of size " << msg->payload_size();
  }
  EXPECT_EQ(seen.size(), kMessages);
  EXPECT_EQ(*seen.begin(), 1u);
  EXPECT_EQ(*seen.rbegin(), kMessages);
  // Nothing extra arrives after the stream: dedup ate the retransmits.
  EXPECT_FALSE(server.Inbox(0)->PopFor(MillisUs(200)).has_value());

  obs::Registry* creg = client.registry();
  EXPECT_EQ(creg->GetCounter("net.conn_kills{layer=inject}")->Value(), 3u);
  EXPECT_GE(creg->GetCounter("net.reconnects")->Value(), 1u);
  EXPECT_GE(creg->GetCounter("net.replayed_frames")->Value(), 1u);
  // Each message is charged once, on its first completed write: frames
  // written before a kill, queued behind it and replayed after it alike.
  const net::TrafficCounters sent = client.LinkTraffic()[{1, 0}];
  EXPECT_EQ(sent.messages, kMessages);
  EXPECT_EQ(sent.bytes, wire_bytes);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpResilience, AcceptorHoldsFirstReplyUntilTheDialerReturns) {
  // A dialer announces node 1 and loses its connection before the acceptor
  // ever replied. The reply must wait for the redial, not fail with "no
  // route": a root that failed here left its locals redialing a closed port.
  TcpTransportOptions sopts;
  sopts.session.auto_reconnect = true;
  TcpTransport server(sopts);
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.bound_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<uint8_t> hello;
  EncodeHello({1}, &hello);
  ASSERT_EQ(::write(fd, hello.data(), hello.size()),
            static_cast<ssize_t>(hello.size()));
  ::close(fd);
  ASSERT_TRUE(WaitFor([&] {
    return server.registry()->GetCounter("net.peer_down")->Value() >= 1;
  }));

  ASSERT_TRUE(server.Send(TestMessage(0, 1, 7)).ok());
  // Nobody is there to acknowledge it yet.
  EXPECT_FALSE(server.AwaitAcked(MillisUs(50)));

  // Waiting on a peer that does acknowledge (node 2) ignores node 1.
  TcpTransportOptions other_opts;
  other_opts.listen = false;
  TcpTransport other(other_opts);
  ASSERT_TRUE(other.AddLocalNode(2).ok());
  ASSERT_TRUE(other.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(other.Start().ok());
  ASSERT_TRUE(other.Send(TestMessage(2, 0, 3)).ok());
  ASSERT_TRUE(server.Inbox(0)->PopFor(5 * kMicrosPerSecond).has_value());
  ASSERT_TRUE(server.Send(TestMessage(0, 2, 5)).ok());
  ASSERT_TRUE(other.Inbox(2)->PopFor(5 * kMicrosPerSecond).has_value());
  EXPECT_TRUE(server.AwaitAcked(5 * kMicrosPerSecond, {2}));
  EXPECT_FALSE(server.AwaitAcked(MillisUs(50), {1, 2}));

  TcpTransportOptions copts;
  copts.listen = false;
  copts.session.auto_reconnect = true;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(client.Send(TestMessage(1, 0, 3)).ok());  // dials, says hello

  auto reply = client.Inbox(1)->PopFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload_size(), 7u);
  EXPECT_TRUE(server.AwaitAcked(5 * kMicrosPerSecond));

  other.Shutdown();
  client.Shutdown();
  server.Shutdown();
}

TEST(TcpResilience, LoopbackClusterParityHoldsWithHeartbeatsOn) {
  // The whole resilience layer on (heartbeats, acks, redial armed) over a
  // fault-free loopback cluster: quantiles, per-link bytes, and the dema.*
  // protocol counters must still match the deterministic in-process run
  // bit for bit — control traffic is invisible to the accounting.
  constexpr size_t kLocals = 2;
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = kLocals;
  config.gamma = 500;
  config.quantiles = {0.25, 0.5, 0.99};
  config.adaptive_gamma = false;

  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      kLocals, /*num_windows=*/3, /*event_rate=*/3'000, dist);
  workload.window_len_us = config.window_len_us;

  // --- reference: deterministic in-process run ---
  RealClock clock;
  obs::Registry sim_registry;
  obs::TraceRecorder sim_tracer;
  config.registry = &sim_registry;
  config.tracer = &sim_tracer;
  net::Network network(&clock);
  auto system = sim::BuildSystem(config, &network, &clock);
  ASSERT_TRUE(system.ok());
  sim::SyncDriver sync_driver(&*system, &network);
  ASSERT_TRUE(sync_driver.Run(workload).ok());
  const std::vector<sim::WindowOutput> expected = sync_driver.outputs();
  ASSERT_EQ(expected.size(), workload.ExpectedWindows());
  const LinkTrafficMap sim_links = network.LinkTraffic();
  config.registry = nullptr;
  config.tracer = nullptr;

  // --- TCP run with session resilience on everywhere ---
  TcpSessionOptions session;
  session.heartbeat_interval_us = MillisUs(5);
  session.auto_reconnect = true;

  std::vector<sim::WindowOutput> tcp_outputs;
  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;

  Result<sim::RunMetrics> root_metrics = Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.listen_port = 0;
    opts.session = session;
    opts.on_listening = [&](uint16_t p) {
      std::lock_guard<std::mutex> lock(port_mu);
      port = p;
      port_cv.notify_all();
    };
    opts.on_result = [&](const sim::WindowOutput& out) {
      tcp_outputs.push_back(out);
    };
    root_metrics = sim::RunTcpRoot(config, workload.ExpectedWindows(), opts);
  });
  {
    std::unique_lock<std::mutex> lock(port_mu);
    port_cv.wait(lock, [&] { return port != 0; });
  }

  std::vector<Result<sim::TcpLocalReport>> reports(
      kLocals, Status::Internal("local never ran"));
  std::vector<std::thread> local_threads;
  for (size_t i = 0; i < kLocals; ++i) {
    local_threads.emplace_back([&, i] {
      sim::TcpLocalOptions opts;
      opts.root_port = port;
      opts.session = session;
      reports[i] = sim::RunTcpLocal(config, workload,
                                    static_cast<NodeId>(i + 1), opts);
    });
  }
  root_thread.join();
  for (auto& t : local_threads) t.join();

  ASSERT_TRUE(root_metrics.ok()) << root_metrics.status();
  for (size_t i = 0; i < kLocals; ++i) {
    ASSERT_TRUE(reports[i].ok()) << "local " << i + 1 << ": "
                                 << reports[i].status();
  }

  // Exact quantile parity, window by window.
  ASSERT_EQ(tcp_outputs.size(), expected.size());
  for (size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(tcp_outputs[w].window_id, expected[w].window_id);
    EXPECT_EQ(tcp_outputs[w].global_size, expected[w].global_size);
    ASSERT_EQ(tcp_outputs[w].values.size(), expected[w].values.size());
    for (size_t q = 0; q < expected[w].values.size(); ++q) {
      EXPECT_EQ(tcp_outputs[w].values[q], expected[w].values[q])
          << "window " << w << " quantile " << config.quantiles[q];
    }
  }

  // Per-link byte parity: heartbeat pings, pongs, and cumulative acks all
  // crossed these sockets, and none of them may appear in the accounting.
  for (size_t i = 0; i < kLocals; ++i) {
    const NodeId id = static_cast<NodeId>(i + 1);
    auto sim_it = sim_links.find({id, 0});
    auto tcp_it = reports[i]->sent_links.find({id, 0});
    ASSERT_NE(sim_it, sim_links.end());
    ASSERT_NE(tcp_it, reports[i]->sent_links.end());
    EXPECT_EQ(tcp_it->second.bytes, sim_it->second.bytes)
        << "local " << id << " -> root byte mismatch with heartbeats on";
    EXPECT_EQ(tcp_it->second.messages, sim_it->second.messages);
  }

  // dema.* protocol counter parity.
  ASSERT_NE(root_metrics->registry, nullptr);
  std::map<std::string, uint64_t> sim_dema, tcp_dema;
  for (const auto& [name, value] : sim_registry.CounterValues()) {
    if (name.rfind("dema.", 0) == 0) sim_dema[name] = value;
  }
  for (const auto& [name, value] : root_metrics->registry->CounterValues()) {
    if (name.rfind("dema.", 0) == 0) tcp_dema[name] = value;
  }
  EXPECT_FALSE(sim_dema.empty());
  EXPECT_EQ(sim_dema, tcp_dema);

  // Control frames really crossed these sockets during the run (the root
  // acks every read pass; heartbeats additionally fire on idle gaps), so
  // the parity above proves they stayed off the books rather than holding
  // vacuously.
  EXPECT_GT(root_metrics->registry->GetCounter("net.acks")->Value(), 0u);
}

}  // namespace
}  // namespace dema::transport
