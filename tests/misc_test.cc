// Coverage for smaller API surfaces: TimeAdvance payloads, per-link
// enumeration, window-id peeking, table CSV export, and window-manager
// snapshots in isolation.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/clock.h"
#include "common/table.h"
#include "net/message.h"
#include "net/network.h"
#include "stream/window_manager.h"

namespace dema {
namespace {

TEST(TimeAdvance, RoundTrip) {
  net::TimeAdvance advance;
  advance.watermark_us = 123456;
  advance.final_marker = true;
  net::Writer w;
  advance.SerializeTo(&w);
  net::Reader r(w.buffer());
  auto out = net::TimeAdvance::Deserialize(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->watermark_us, 123456);
  EXPECT_TRUE(out->final_marker);
}

TEST(PeekWindowId, ReadsHeaderOnly) {
  net::EventBatch batch;
  batch.window_id = 77;
  batch.events = {Event{1, 2, 3, 4}};
  net::Message m = net::MakeMessage(net::MessageType::kEventBatch, 1, 0, batch);
  auto id = net::EventBatch::PeekWindowId(m.payload);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 77u);
  std::vector<uint8_t> tiny = {1, 2};
  EXPECT_FALSE(net::EventBatch::PeekWindowId(tiny).ok());
}

TEST(NetworkAllLinks, EnumeratesDirectedLinks) {
  RealClock clock;
  net::Network network(&clock);
  ASSERT_TRUE(network.RegisterNode(0).ok());
  ASSERT_TRUE(network.RegisterNode(1).ok());
  ASSERT_TRUE(network.RegisterNode(2).ok());
  auto send = [&](NodeId src, NodeId dst) {
    net::Message m;
    m.type = net::MessageType::kWindowEnd;
    m.src = src;
    m.dst = dst;
    m.payload.resize(8);
    ASSERT_TRUE(network.Send(std::move(m)).ok());
  };
  send(1, 0);
  send(1, 0);
  send(2, 0);
  send(0, 2);
  auto links = network.AllLinks();
  ASSERT_EQ(links.size(), 3u);
  auto messages_on = [&](NodeId src, NodeId dst) {
    return links[std::make_pair(src, dst)].counters.messages;
  };
  EXPECT_EQ(messages_on(1, 0), 2u);
  EXPECT_EQ(messages_on(2, 0), 1u);
  EXPECT_EQ(messages_on(0, 2), 1u);
}

TEST(TableFile, WriteCsvCreatesReadableFile) {
  Table t({"a", "b"});
  ASSERT_TRUE(t.AddRow({"1", "x,y"}).ok());
  std::string path = ::testing::TempDir() + "/dema_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
  EXPECT_FALSE(t.WriteCsv("/nonexistent-dir/x.csv").ok());
}

TEST(WindowManagerSnapshot, RoundTripPreservesBufferedEvents) {
  stream::WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{5, 100, 1, 0});
  wm.OnEvent(Event{3, SecondsUs(1) + 10, 1, 1});
  wm.AdvanceWatermark(MillisUs(500));

  net::Writer w;
  wm.SerializeTo(&w);

  stream::WindowManager restored(SecondsUs(1));
  net::Reader r(w.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&r).ok());
  EXPECT_EQ(restored.watermark_us(), MillisUs(500));
  EXPECT_EQ(restored.open_windows(), 2u);
  EXPECT_EQ(restored.buffered_events(), 2u);
  auto closed = restored.AdvanceWatermark(SecondsUs(2));
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].events[0].value, 5);
  EXPECT_EQ(closed[1].events[0].value, 3);
}

TEST(WindowManagerSnapshot, RejectsTruncation) {
  stream::WindowManager wm(SecondsUs(1));
  wm.OnEvent(Event{1, 10, 1, 0});
  net::Writer w;
  wm.SerializeTo(&w);
  stream::WindowManager restored(SecondsUs(1));
  net::Reader r(w.buffer().data(), w.size() - 3);
  EXPECT_FALSE(restored.RestoreFrom(&r).ok());
}

}  // namespace
}  // namespace dema
