// Tests for the transport subsystem: wire framing, hello preambles, the
// POSIX TCP transport (routing, counters, retry/backoff, shutdown), and the
// TCP loopback integration run whose exact quantiles and measured per-link
// byte counts must match the in-process simulation on the same workload.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
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
#include "transport/transport.h"

namespace dema::transport {
namespace {

net::Message TestMessage(NodeId src, NodeId dst, size_t payload_bytes,
                         uint64_t events = 0) {
  net::Message m;
  m.type = net::MessageType::kEventBatch;
  m.src = src;
  m.dst = dst;
  m.payload.assign(payload_bytes, 0xAB);
  m.event_count = events;
  return m;
}

TEST(Frame, RoundTripMatchesWireBytes) {
  net::Message m = TestMessage(3, 0, 37);
  m.type = net::MessageType::kCandidateRequest;
  std::vector<uint8_t> frame;
  EncodeFrame(m, &frame);
  ASSERT_EQ(frame.size(), m.WireBytes());
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 37 + kFrameTrailerBytes);
  // The trailer carries the CRC32C over header + payload.
  EXPECT_TRUE(VerifyFrameCrc(frame.data(), kFrameHeaderBytes,
                             frame.data() + kFrameHeaderBytes, 37,
                             frame.data() + kFrameHeaderBytes + 37)
                  .ok());

  FrameHeader header;
  ASSERT_TRUE(
      DecodeFrameHeader(frame.data(), frame.size(), 1 << 20, &header).ok());
  EXPECT_EQ(header.type, net::MessageType::kCandidateRequest);
  EXPECT_EQ(header.src, 3u);
  EXPECT_EQ(header.dst, 0u);
  EXPECT_EQ(header.payload_size, 37u);
}

TEST(Frame, RejectsUnknownTypeAndOversizedPayload) {
  net::Message m = TestMessage(1, 0, 8);
  std::vector<uint8_t> frame;
  EncodeFrame(m, &frame);

  FrameHeader header;
  std::vector<uint8_t> bad = frame;
  bad[0] = 0x77;  // no such MessageType
  EXPECT_FALSE(DecodeFrameHeader(bad.data(), bad.size(), 1 << 20, &header).ok());

  EXPECT_FALSE(
      DecodeFrameHeader(frame.data(), frame.size(), /*max_payload=*/4, &header)
          .ok());
}

TEST(Frame, HelloRoundTrip) {
  std::vector<NodeId> nodes = {1, 7, 42};
  std::vector<uint8_t> bytes;
  EncodeHello(nodes, &bytes);
  ASSERT_EQ(bytes.size(), kHelloPrefixBytes + nodes.size() * sizeof(uint32_t));

  auto count = DecodeHelloPrefix(bytes.data(), kHelloPrefixBytes);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(*count, nodes.size());
  auto decoded = DecodeHelloNodes(bytes.data() + kHelloPrefixBytes,
                                  bytes.size() - kHelloPrefixBytes, *count);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, nodes);

  std::vector<uint8_t> bad = bytes;
  bad[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(DecodeHelloPrefix(bad.data(), kHelloPrefixBytes).ok());
}

TEST(Frame, HelloRejectsProtocolVersionMismatch) {
  // A well-formed v2 hello announcing the wrong version is refused with a
  // version error, before any frame is parsed.
  net::Writer wrong;
  wrong.PutU32(kHelloMagic);
  wrong.PutU32(kProtocolVersion + 1);
  wrong.PutU32(1);
  auto st = DecodeHelloPrefix(wrong.buffer().data(), kHelloPrefixBytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.status().message().find("version"), std::string::npos);

  // A v3 peer would misread a γ = 2 batch's events form and disagree about
  // which windows it must serve; its hello is refused the same way.
  net::Writer v3;
  v3.PutU32(kHelloMagic);
  v3.PutU32(3);
  v3.PutU32(1);
  auto v3_st = DecodeHelloPrefix(v3.buffer().data(), kHelloPrefixBytes);
  ASSERT_FALSE(v3_st.ok());
  EXPECT_NE(v3_st.status().message().find("version"), std::string::npos);

  // A v1 dialer's hello had no version field (magic | count | ids), so its
  // node count lands in the version slot — it must fail the same clean way
  // instead of desynchronizing the frame stream on the missing CRC trailers.
  net::Writer v1;
  v1.PutU32(kHelloMagic);
  v1.PutU32(1);  // v1 node count, read as a version (v3+ never goes back)
  v1.PutU32(7);  // first node id, read as a count
  auto v1_st = DecodeHelloPrefix(v1.buffer().data(), kHelloPrefixBytes);
  ASSERT_FALSE(v1_st.ok());
  EXPECT_NE(v1_st.status().message().find("version"), std::string::npos);

  // An absurd node count is bounded even when magic and version check out.
  net::Writer huge;
  huge.PutU32(kHelloMagic);
  huge.PutU32(kProtocolVersion);
  huge.PutU32(kMaxHelloNodes + 1);
  EXPECT_FALSE(DecodeHelloPrefix(huge.buffer().data(), kHelloPrefixBytes).ok());
}

TEST(Frame, PeekEventCountMatchesMetadata) {
  net::EventBatch batch;
  batch.window_id = 5;
  batch.sorted = true;
  batch.last_batch = true;
  for (uint32_t i = 0; i < 200; ++i) {
    batch.events.push_back(Event{static_cast<double>(i), i, 1, i});
  }
  net::Message m =
      net::MakeMessage(net::MessageType::kEventBatch, 1, 0, batch);
  ASSERT_EQ(m.event_count, 200u);
  auto peeked = PeekEventCount(m.type, m.payload);
  ASSERT_TRUE(peeked.ok());
  EXPECT_EQ(*peeked, m.event_count);

  // Non-event-carrying types report zero.
  auto none = PeekEventCount(net::MessageType::kWindowEnd, m.payload);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

// --- TCP transport basics --------------------------------------------------

TEST(TcpTransport, SendReceiveAndCountersMatchWireBytes) {
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.bound_port(), 0);

  TcpTransportOptions copts;
  copts.listen = false;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  uint64_t sent_bytes = 0;
  for (size_t size : {10, 500, 0}) {
    net::Message m = TestMessage(1, 0, size, /*events=*/size);
    sent_bytes += m.WireBytes();
    ASSERT_TRUE(client.Send(std::move(m)).ok());
  }
  for (size_t size : {10, 500, 0}) {
    auto msg = server.Inbox(0)->PopFor(5 * kMicrosPerSecond);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->src, 1u);
    EXPECT_EQ(msg->payload_size(), size);
  }

  // Reply over the hello-learned route: the server never dialed anyone.
  ASSERT_TRUE(server.Send(TestMessage(0, 1, 25)).ok());
  auto reply = client.Inbox(1)->PopFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->src, 0u);

  client.Shutdown();
  server.Shutdown();

  // Sent counters are charged from the bytes actually written, which the
  // frame format guarantees equal WireBytes(); receive side agrees.
  const std::pair<NodeId, NodeId> up{1, 0};
  const std::pair<NodeId, NodeId> down{0, 1};
  auto client_sent = client.LinkTraffic();
  ASSERT_EQ(client_sent.count(up), 1u);
  EXPECT_EQ(client_sent[up].bytes, sent_bytes);
  EXPECT_EQ(client_sent[up].messages, 3u);
  EXPECT_EQ(client_sent[up].events, 510u);

  auto server_recv = server.ReceivedTraffic();
  ASSERT_EQ(server_recv.count(up), 1u);
  EXPECT_EQ(server_recv[up].bytes, sent_bytes);
  EXPECT_EQ(server_recv[up].messages, 3u);

  auto server_sent = server.LinkTraffic();
  EXPECT_EQ(server_sent[down].bytes, net::kEnvelopeWireBytes + 25);
}

TEST(TcpTransport, LoopbackToHostedNodeSkipsSockets) {
  TcpTransportOptions opts;
  opts.listen = false;
  TcpTransport t(opts);
  ASSERT_TRUE(t.AddLocalNode(1).ok());
  ASSERT_TRUE(t.AddLocalNode(2).ok());
  ASSERT_TRUE(t.Start().ok());

  net::Message m = TestMessage(1, 2, 16, /*events=*/4);
  const uint64_t wire = m.WireBytes();
  ASSERT_TRUE(t.Send(std::move(m)).ok());
  auto got = t.Inbox(2)->TryPop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 1u);
  EXPECT_EQ(got->event_count, 4u);

  auto sent = t.LinkTraffic();
  const std::pair<NodeId, NodeId> link{1, 2};
  EXPECT_EQ(sent[link].bytes, wire);
  t.Shutdown();
}

TEST(TcpTransport, SendToUnknownNodeFails) {
  TcpTransportOptions opts;
  opts.listen = false;
  TcpTransport t(opts);
  ASSERT_TRUE(t.AddLocalNode(1).ok());
  ASSERT_TRUE(t.Start().ok());
  EXPECT_EQ(t.Send(TestMessage(1, 9, 4)).code(), StatusCode::kNotFound);
  t.Shutdown();
  EXPECT_EQ(t.Send(TestMessage(1, 9, 4)).code(), StatusCode::kNetworkError);
}

TEST(TcpTransport, DialRetriesUntilListenerAppears) {
  // Reserve a port, then release it so the first connect attempts fail with
  // nobody listening; the dialer's bounded backoff must carry the send until
  // the listener comes up.
  uint16_t port = 0;
  {
    auto probe = BindListenSocket("127.0.0.1", 0);
    ASSERT_TRUE(probe.ok());
    auto probe_port = ListenSocketPort(*probe);
    ASSERT_TRUE(probe_port.ok());
    port = *probe_port;
    ::close(*probe);
  }

  TcpTransportOptions copts;
  copts.listen = false;
  copts.connect_attempts = 100;
  copts.connect_backoff_initial_us = MillisUs(5);
  copts.connect_backoff_max_us = MillisUs(50);
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", port).ok());
  ASSERT_TRUE(client.Start().ok());

  std::thread sender([&] {
    // Send() dials lazily; it blocks in the retry loop until the listener
    // exists, then succeeds.
    EXPECT_TRUE(client.Send(TestMessage(1, 0, 11)).ok());
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  TcpTransportOptions sopts;
  sopts.listen_port = port;
  TcpTransport server(sopts);
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  auto msg = server.Inbox(0)->PopFor(10 * kMicrosPerSecond);
  sender.join();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload_size(), 11u);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransport, DialGivesUpAfterBoundedAttempts) {
  uint16_t dead_port = 0;
  {
    auto probe = BindListenSocket("127.0.0.1", 0);
    ASSERT_TRUE(probe.ok());
    dead_port = *ListenSocketPort(*probe);
    ::close(*probe);
  }
  TcpTransportOptions opts;
  opts.listen = false;
  opts.connect_attempts = 3;
  opts.connect_backoff_initial_us = MillisUs(1);
  opts.connect_backoff_max_us = MillisUs(2);
  TcpTransport t(opts);
  ASSERT_TRUE(t.AddLocalNode(1).ok());
  ASSERT_TRUE(t.AddPeer(0, "127.0.0.1", dead_port).ok());
  ASSERT_TRUE(t.Start().ok());
  EXPECT_EQ(t.Send(TestMessage(1, 0, 4)).code(), StatusCode::kNetworkError);
  t.Shutdown();
}

TEST(TcpTransport, CorruptRateInjectorIsCaughtByReceiverChecksum) {
  // The seeded byte-flip injector corrupts outbound frames past the header;
  // every flip must be caught by the receiver's CRC check and dropped as
  // exactly one frame (the connection survives), with the injection and
  // detection counters agreeing frame for frame.
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  copts.fault.corrupt_rate = 0.5;
  copts.fault.corrupt_seed = 99;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  constexpr int kSent = 60;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client.Send(TestMessage(1, 0, 32)).ok());
  }
  client.Shutdown();  // flushes the outbox before closing

  int received = 0;
  while (server.Inbox(0)->PopFor(kMicrosPerSecond).has_value()) ++received;
  server.Shutdown();

  const uint64_t injected =
      client.registry()->GetCounter("net.corrupted{layer=inject}")->Value();
  const uint64_t detected =
      server.registry()->GetCounter("net.corrupted{layer=tcp}")->Value();
  EXPECT_GT(injected, 0u);
  EXPECT_LT(injected, static_cast<uint64_t>(kSent));  // rate 0.5, not 1.0
  // Single-byte flips never slip past CRC32C: every injected corruption is
  // detected, and only those frames are lost.
  EXPECT_EQ(detected, injected);
  EXPECT_EQ(static_cast<uint64_t>(received), kSent - injected);
  EXPECT_EQ(server.registry()->GetCounter("net.corrupted")->Value(), detected);
}

TEST(TcpTransport, ListenerSurvivesHardAcceptErrors) {
  // Regression: a hard accept() failure (EMFILE, ECONNABORTED burst) used to
  // return from the accept loop, silently killing the listener for the rest
  // of the process lifetime. The loop must instead count the error, back
  // off, and keep accepting. The injection hook fails the first N accepted
  // connections through the real error path.
  TcpTransportOptions sopts;
  sopts.inject_accept_failures = 3;
  sopts.accept_backoff_us = MillisUs(1);
  TcpTransport server(sopts);
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  copts.connect_attempts = 50;
  copts.connect_backoff_initial_us = MillisUs(2);
  copts.connect_backoff_max_us = MillisUs(20);
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  // Early connections are torn down by the induced failures and any frame
  // on them is lost (at-least-once is the application layer's job), so keep
  // sending until one arrives over a post-recovery connection.
  bool delivered = false;
  for (int attempt = 0; attempt < 100 && !delivered; ++attempt) {
    (void)client.Send(TestMessage(1, 0, 13));  // may fail while conns churn
    delivered = server.Inbox(0)->PopFor(MillisUs(100)).has_value();
  }
  EXPECT_TRUE(delivered) << "listener never recovered from accept errors";
  EXPECT_GE(server.registry()->GetCounter("net.accept_errors")->Value(), 3u);

  client.Shutdown();
  server.Shutdown();
}

TEST(TcpTransport, FullOutboxSurfacesBackpressureInsteadOfGrowing) {
  // Regression: per-connection outboxes were created unbounded, so a stalled
  // peer let the sender queue frames until OOM. With a bound and
  // outbox_block=false the send path must surface the stall as NetworkError
  // and count it; memory stays bounded.
  auto listener = BindListenSocket("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = ListenSocketPort(*listener);
  ASSERT_TRUE(port.ok());
  // The peer never accepts or reads: the kernel completes the handshake via
  // the backlog, then its receive window closes against our writes.

  TcpTransportOptions copts;
  copts.listen = false;
  copts.outbox_capacity = 4;
  copts.outbox_block = false;
  copts.connect_attempts = 3;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", *port).ok());
  ASSERT_TRUE(client.Start().ok());

  // Socket buffers plus the loop's in-flight high-water mark absorb a finite
  // number of frames; past that the bounded outbox must reject.
  Status full = Status::OK();
  for (int i = 0; i < 200 && full.ok(); ++i) {
    full = client.Send(TestMessage(1, 0, 256 << 10));
  }
  ASSERT_FALSE(full.ok()) << "bounded outbox never pushed back";
  EXPECT_EQ(full.code(), StatusCode::kNetworkError);
  EXPECT_GT(client.registry()->GetCounter("net.outbox_full")->Value(), 0u);
  // The bound held: the outbox never exceeded its capacity.
  EXPECT_NE(full.message().find("outbox"), std::string::npos);

  client.Shutdown();  // abandons the stalled frames after the drain grace
  ::close(*listener);
}

TEST(TcpTransport, BlockedSendFailsWhenLoopDiesInsteadOfHangingForever) {
  // Regression: with outbox_block=true (the default) a sender blocked on a
  // full outbox parked on a condition variable only the I/O loop signalled.
  // If the loop thread died, the send waited forever. The bounded-slice wait
  // must notice the dead loop and surface a NetworkError instead.
  auto listener = BindListenSocket("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  auto port = ListenSocketPort(*listener);
  ASSERT_TRUE(port.ok());
  // The peer never accepts or reads; the backlog completes the handshake and
  // then the stalled receive window backs pressure up into the outbox.

  TcpTransportOptions copts;
  copts.listen = false;
  copts.outbox_capacity = 2;
  copts.connect_attempts = 3;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", *port).ok());
  ASSERT_TRUE(client.Start().ok());

  std::atomic<bool> send_returned{false};
  Status blocked = Status::OK();
  std::thread sender([&] {
    for (int i = 0; i < 200; ++i) {
      Status st = client.Send(TestMessage(1, 0, 256 << 10));
      if (!st.ok()) {
        blocked = st;
        break;
      }
    }
    send_returned.store(true);
  });

  // Wait until the sender is actually parked on the full outbox (the
  // backpressure counter fires on the first full push attempt).
  auto* full = client.registry()->GetCounter("net.outbox_full");
  for (int i = 0; i < 500 && full->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(full->Value(), 0u) << "sender never hit the outbox bound";
  EXPECT_FALSE(send_returned.load());

  client.StopLoopForTest();  // the loop dies with the sender still blocked
  sender.join();
  ASSERT_TRUE(send_returned.load());
  EXPECT_EQ(blocked.code(), StatusCode::kNetworkError);
  EXPECT_NE(blocked.message().find("I/O loop exited"), std::string::npos)
      << blocked.message();

  client.Shutdown();
  ::close(*listener);
}

TEST(TcpTransport, PartialFrameLostToPeerDeathIsCounted) {
  // A peer dying mid-frame used to vanish silently: the fragment sat in the
  // receive arena and was freed with the connection. The loss is real (that
  // frame never reaches an inbox), so it must show up next to the link
  // metrics as net.partial_frame_drops.
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.bound_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A complete hello, then a frame cut short of its CRC trailer.
  std::vector<uint8_t> hello;
  EncodeHello({7}, &hello);
  ASSERT_EQ(::write(fd, hello.data(), hello.size()),
            static_cast<ssize_t>(hello.size()));
  std::vector<uint8_t> frame;
  EncodeFrame(TestMessage(7, 0, 64), &frame);
  const size_t partial = frame.size() - 10;
  ASSERT_EQ(::write(fd, frame.data(), partial), static_cast<ssize_t>(partial));
  // Let the loop ingest the fragment before the "crash".
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::close(fd);

  auto* drops = server.registry()->GetCounter("net.partial_frame_drops");
  for (int i = 0; i < 500 && drops->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(drops->Value(), 1u);
  // The truncated frame never surfaced as a message.
  EXPECT_FALSE(server.Inbox(0)->TryPop().has_value());
  server.Shutdown();
}

TEST(TcpTransport, ShutdownFlushesPendingSends) {
  TcpTransport server;
  ASSERT_TRUE(server.AddLocalNode(0).ok());
  ASSERT_TRUE(server.Start().ok());

  TcpTransportOptions copts;
  copts.listen = false;
  TcpTransport client(copts);
  ASSERT_TRUE(client.AddLocalNode(1).ok());
  ASSERT_TRUE(client.AddPeer(0, "127.0.0.1", server.bound_port()).ok());
  ASSERT_TRUE(client.Start().ok());

  // The graceful-shutdown contract: everything accepted by Send() before
  // Shutdown() reaches the peer, including a final kShutdown notice.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Send(TestMessage(1, 0, 1000)).ok());
  }
  net::Message bye;
  bye.type = net::MessageType::kShutdown;
  bye.src = 1;
  bye.dst = 0;
  ASSERT_TRUE(client.Send(std::move(bye)).ok());
  client.Shutdown();

  for (int i = 0; i < 50; ++i) {
    auto msg = server.Inbox(0)->PopFor(5 * kMicrosPerSecond);
    ASSERT_TRUE(msg.has_value()) << "message " << i << " lost in shutdown";
    EXPECT_EQ(msg->type, net::MessageType::kEventBatch);
  }
  auto last = server.Inbox(0)->PopFor(5 * kMicrosPerSecond);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, net::MessageType::kShutdown);
  server.Shutdown();
}

// --- the in-process fabric behind the same interface -----------------------

TEST(TransportInterface, NetworkFabricImplementsTransport) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());

  Transport* transport = &network;  // the simulation fabric is a Transport
  ASSERT_TRUE(transport->Send(TestMessage(1, 0, 12, /*events=*/3)).ok());
  auto msg = transport->Inbox(0)->TryPop();
  ASSERT_TRUE(msg.has_value());

  auto links = transport->LinkTraffic();
  const std::pair<NodeId, NodeId> up{1, 0};
  ASSERT_EQ(links.count(up), 1u);
  EXPECT_EQ(links[up].bytes, net::kEnvelopeWireBytes + 12);
  EXPECT_EQ(links[up].events, 3u);
  transport->Shutdown();
  EXPECT_FALSE(transport->Send(TestMessage(1, 0, 1)).ok());
}

// --- TCP loopback integration: parity with the simulation ------------------

// Runs root + kLocals local nodes as real TcpTransports (one per "process",
// threads here) against the same seeded workload as a deterministic
// in-process SyncDriver run, then checks that (a) every emitted quantile
// value is bit-identical and (b) the bytes measured on the TCP sockets per
// link equal the simulated fabric's per-link accounting.
void ExpectLoopbackClusterMatchesSimulation(uint64_t seed) {
  constexpr size_t kLocals = 3;
  sim::SystemConfig config;
  config.kind = sim::SystemKind::kDema;
  config.num_locals = kLocals;
  config.gamma = 500;
  config.quantiles = {0.25, 0.5, 0.99};
  // Adaptive gamma reacts to arrival timing, which differs between TCP and
  // the simulated fabric; with it off, the protocol's wire traffic is a
  // pure function of the (seeded) data, so byte counts must match exactly.
  config.adaptive_gamma = false;

  gen::DistributionParams dist;
  dist.kind = gen::DistributionKind::kSensorWalk;
  dist.lo = 0;
  dist.hi = 10'000;
  dist.stddev = 25;
  sim::WorkloadConfig workload = sim::MakeUniformWorkload(
      kLocals, /*num_windows=*/4, /*event_rate=*/5'000, dist, {}, seed);
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

  // The TCP run must build its own instruments so the registries stay
  // comparable but independent.
  config.registry = nullptr;
  config.tracer = nullptr;

  // --- TCP run: one transport per node role, loopback sockets ---
  std::vector<sim::WindowOutput> tcp_outputs;
  uint16_t port = 0;
  std::mutex port_mu;
  std::condition_variable port_cv;

  Result<sim::RunMetrics> root_metrics = Status::Internal("root never ran");
  std::thread root_thread([&] {
    sim::TcpRootOptions opts;
    opts.listen_port = 0;
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

  // (a) Exact quantile parity, window by window, value by value.
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

  // (b) Byte parity per link: TCP socket bytes == simulated accounting.
  // local -> root links, measured where the bytes were written.
  uint64_t tcp_events_total = 0;
  for (size_t i = 0; i < kLocals; ++i) {
    const NodeId id = static_cast<NodeId>(i + 1);
    const auto& sent = reports[i]->sent_links;
    auto sim_it = sim_links.find({id, 0});
    auto tcp_it = sent.find({id, 0});
    ASSERT_NE(sim_it, sim_links.end());
    ASSERT_NE(tcp_it, sent.end());
    EXPECT_EQ(tcp_it->second.bytes, sim_it->second.bytes)
        << "local " << id << " -> root byte mismatch";
    EXPECT_EQ(tcp_it->second.messages, sim_it->second.messages);
    EXPECT_EQ(tcp_it->second.events, sim_it->second.events);
    tcp_events_total += reports[i]->events_ingested;
  }
  EXPECT_EQ(tcp_events_total, sync_driver.events_ingested());

  // Cluster-wide totals as the root measured them (recv + sent sockets)
  // equal the simulation's all-links totals.
  uint64_t sim_bytes = 0, sim_msgs = 0, sim_events = 0;
  for (const auto& [link, counters] : sim_links) {
    (void)link;
    sim_bytes += counters.bytes;
    sim_msgs += counters.messages;
    sim_events += counters.events;
  }
  // The TCP run additionally carries one kShutdown frame per local
  // (root -> local), absent from the simulated run's accounting.
  const uint64_t shutdown_bytes = kLocals * net::kEnvelopeWireBytes;
  EXPECT_EQ(root_metrics->network_total.bytes, sim_bytes + shutdown_bytes);
  EXPECT_EQ(root_metrics->network_total.messages, sim_msgs + kLocals);
  EXPECT_EQ(root_metrics->network_total.events, sim_events);
  EXPECT_EQ(root_metrics->windows_emitted, workload.ExpectedWindows());

  // (c) Registry parity: every `dema.*` protocol counter the root records
  // must be identical across the two transports — the protocol's accounting
  // is a pure function of the seeded data, not of the wire.
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

  // (d) Both runs traced one span per emitted window, and the sim spans'
  // totals agree with the protocol counters.
  ASSERT_NE(root_metrics->tracer, nullptr);
  EXPECT_EQ(root_metrics->tracer->total_recorded(), expected.size());
  EXPECT_EQ(sim_tracer.total_recorded(), expected.size());
  uint64_t span_events = 0;
  for (const obs::WindowTrace& span : sim_tracer.Snapshot()) {
    span_events += span.global_size;
  }
  EXPECT_EQ(span_events, sim_dema.at("dema.global_events"));
}

TEST(TcpIntegration, LoopbackClusterMatchesSimulationExactly) {
  // 1000 is MakeUniformWorkload's default seed.
  for (uint64_t seed : {1000, 1001, 1002}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectLoopbackClusterMatchesSimulation(seed);
  }
}

}  // namespace
}  // namespace dema::transport
