#include "shard/serve.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "shard/local_mux.h"
#include "shard/service.h"
#include "stream/window.h"
#include "transport/tcp.h"

namespace dema::shard {

namespace {

DurationUs ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

void MergeByType(const std::map<net::MessageType, net::TrafficCounters>& in,
                 std::map<net::MessageType, net::TrafficCounters>* out) {
  for (const auto& [type, counters] : in) {
    (*out)[type] += counters;
  }
}

net::Message ShutdownMessage(NodeId src, NodeId dst) {
  net::Message m;
  m.type = net::MessageType::kShutdown;
  m.src = src;
  m.dst = dst;
  return m;
}

}  // namespace

Result<ShardedServeReport> RunShardedTcpRoot(
    const ShardedConfig& config, const ShardedServeOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateShardedConfig(config));
  RealClock clock;
  ShardedConfig cfg = config;
  std::unique_ptr<obs::Registry> owned_registry;
  if (cfg.registry == nullptr) {
    owned_registry = std::make_unique<obs::Registry>();
    cfg.registry = owned_registry.get();
  }

  transport::TcpTransportOptions topts;
  topts.listen_host = options.listen_host;
  topts.listen_port = options.listen_port;
  topts.adopted_listen_fd = options.adopted_listen_fd;
  topts.inbox_capacity = options.inbox_capacity;
  topts.outbox_capacity = options.outbox_capacity;
  topts.heartbeat_interval_us = options.heartbeat_interval_us;
  topts.heartbeat_misses = options.heartbeat_misses;
  topts.registry = cfg.registry;
  transport::TcpTransport transport(topts);
  DEMA_RETURN_NOT_OK(transport.AddLocalNode(0));
  DEMA_RETURN_NOT_OK(transport.Start());
  if (options.on_listening) options.on_listening(transport.bound_port());

  ShardedRootService service(cfg, &transport, &clock);
  DEMA_RETURN_NOT_OK(service.init_status());

  const uint64_t expected_total = options.expected_windows * cfg.num_keys;
  auto wall_start = std::chrono::steady_clock::now();
  net::Channel* inbox = transport.Inbox(0);
  Status run_status = Status::OK();
  // Phase 1: aggregate (answering queries inline the whole time). Phase 2:
  // linger — every window is in, keep serving queries until a client's
  // kShutdown or the linger budget ends.
  auto done_at = std::chrono::steady_clock::time_point::max();
  for (;;) {
    if (service.windows_emitted() >= expected_total &&
        done_at == std::chrono::steady_clock::time_point::max()) {
      // Strands may still be retiring the last frames; settle them so the
      // traffic and idle checks below see a finished system.
      run_status = service.Quiesce();
      if (!run_status.ok()) break;
      done_at = std::chrono::steady_clock::now();
    }
    if (done_at != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() - done_at >=
            std::chrono::microseconds(options.linger_us)) {
      break;
    }
    if (ElapsedUs(wall_start) > options.timeout_us) {
      run_status = Status::Internal(
          "sharded tcp root timed out with " +
          std::to_string(service.windows_emitted()) + "/" +
          std::to_string(expected_total) + " per-key windows emitted");
      break;
    }
    auto msg = inbox->PopFor(MillisUs(2));
    if (!msg) {
      Status st = service.Tick();
      if (!st.ok()) {
        run_status = st;
        break;
      }
      continue;
    }
    if (msg->type == net::MessageType::kShutdown) {
      // A query client (or operator tool) releases the cluster early.
      if (msg->src >= kFirstQueryClientId) break;
      continue;
    }
    Status st = service.OnMessage(*msg);
    if (!st.ok()) {
      run_status = st;
      break;
    }
  }
  if (run_status.ok()) run_status = service.Quiesce();
  auto wall_end = std::chrono::steady_clock::now();

  // Release the locals. Best effort: a local that never connected (or
  // already died) simply has no route.
  for (NodeId id : ShardLocalIds(cfg)) {
    Status st = transport.Send(ShutdownMessage(0, id));
    (void)st;
  }
  transport.Shutdown();
  DEMA_RETURN_NOT_OK(run_status);

  ShardedServeReport report;
  report.windows_emitted = service.windows_emitted();
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const obs::Counter* queries = cfg.registry->FindCounter("shard.queries");
  report.queries_answered = queries != nullptr ? queries->Value() : 0;
  MergeByType(transport.ReceivedByType(), &report.by_type);
  MergeByType(transport.TrafficByType(), &report.by_type);
  return report;
}

Result<ShardedTcpLocalReport> RunShardedTcpLocal(
    const ShardedConfig& config, const KeyedWorkloadConfig& workload,
    NodeId id, const ShardedTcpLocalOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateShardedConfig(config));
  if (id == 0 || id > config.num_locals) {
    return Status::InvalidArgument("keyed local id " + std::to_string(id) +
                                   " out of range 1.." +
                                   std::to_string(config.num_locals));
  }
  RealClock clock;

  transport::TcpTransportOptions topts;
  topts.listen = false;  // pure client: replies arrive over the dialed conn
  topts.outbox_capacity = options.outbox_capacity;
  topts.heartbeat_interval_us = options.heartbeat_interval_us;
  topts.heartbeat_misses = options.heartbeat_misses;
  topts.auto_reconnect = options.auto_reconnect;
  transport::TcpTransport transport(topts);
  DEMA_RETURN_NOT_OK(transport.AddLocalNode(id));
  DEMA_RETURN_NOT_OK(
      transport.AddPeer(0, options.root_host, options.root_port));
  DEMA_RETURN_NOT_OK(transport.Start());

  KeyedLocalNode node(config, id, &transport, &clock);
  DEMA_ASSIGN_OR_RETURN(auto gens,
                        MakeKeyGenerators(workload, config.num_keys, id));

  net::Channel* inbox = transport.Inbox(id);
  auto wall_start = std::chrono::steady_clock::now();
  bool shutdown_received = false;
  Status run_status = Status::OK();
  ShardedTcpLocalReport report;

  auto handle = [&](const net::Message& msg) -> Status {
    if (msg.type == net::MessageType::kShutdown) {
      shutdown_received = true;
      return Status::OK();
    }
    return node.OnMessage(msg);
  };

  for (uint64_t w = 0; w < workload.num_windows && run_status.ok(); ++w) {
    const TimestampUs start =
        static_cast<TimestampUs>(w) * config.window_len_us;
    const TimestampUs end = start + config.window_len_us;
    for (net::KeyId key = 0; key < config.num_keys && run_status.ok(); ++key) {
      std::vector<Event> events =
          gens[key]->GenerateWindow(start, config.window_len_us);
      for (const Event& e : events) {
        run_status = node.OnEvent(key, e);
        if (!run_status.ok()) break;
      }
      report.events_ingested += events.size();
    }
    if (!run_status.ok()) break;
    run_status = node.OnWatermark(end);
    if (!run_status.ok()) break;
    // Serve whatever candidate requests arrived while streaming.
    while (auto msg = inbox->TryPop()) {
      run_status = handle(*msg);
      if (!run_status.ok()) break;
    }
  }
  if (run_status.ok()) {
    run_status = node.OnFinish(static_cast<TimestampUs>(workload.num_windows) *
                               config.window_len_us);
  }
  // Serve candidate requests until the root releases us.
  while (run_status.ok() && !shutdown_received) {
    if (ElapsedUs(wall_start) > options.timeout_us) {
      run_status = Status::Internal("keyed tcp local " + std::to_string(id) +
                                    " timed out waiting for shutdown");
      break;
    }
    auto msg = inbox->PopFor(MillisUs(2));
    if (!msg) continue;
    run_status = handle(*msg);
  }
  transport.Shutdown();
  if (!run_status.ok() && !shutdown_received) return run_status;

  report.sent_links = transport.LinkTraffic();
  return report;
}

namespace {

/// One query session: its own connection, polling until its keys reach the
/// target window.
Status RunQuerySession(const ShardQueryOptions& options, size_t session,
                       const std::vector<net::KeyId>& keys,
                       uint64_t* queries_sent, net::KeyedQueryReply* final_reply,
                       bool* satisfied) {
  const NodeId my_id = options.id + static_cast<NodeId>(session);
  transport::TcpTransportOptions topts;
  topts.listen = false;
  transport::TcpTransport transport(topts);
  DEMA_RETURN_NOT_OK(transport.AddLocalNode(my_id));
  DEMA_RETURN_NOT_OK(
      transport.AddPeer(0, options.root_host, options.root_port));
  DEMA_RETURN_NOT_OK(transport.Start());
  net::Channel* inbox = transport.Inbox(my_id);

  auto wall_start = std::chrono::steady_clock::now();
  uint64_t next_query_id = 1;
  Status result = Status::OK();
  *satisfied = false;
  while (!*satisfied) {
    if (ElapsedUs(wall_start) > options.timeout_us) {
      result = Status::Internal("query session " + std::to_string(session) +
                                " timed out after " +
                                std::to_string(*queries_sent) + " queries");
      break;
    }
    net::KeyedQuery query;
    query.query_id = next_query_id++;
    query.keys = keys;
    query.quantiles = options.quantiles;
    net::Message frame = net::MakeMessage(net::MessageType::kShardQuery,
                                          my_id, /*dst=*/0, query);
    result = transport.Send(std::move(frame));
    if (!result.ok()) break;
    ++*queries_sent;

    // Wait for the matching reply, but only up to the resend interval: a
    // query (or its reply) lost in transit must cost one interval, not the
    // whole session timeout. Re-sending is safe — queries are idempotent
    // reads, and stale replies are skipped by query_id below.
    auto sent_at = std::chrono::steady_clock::now();
    bool got_reply = false;
    while (!got_reply) {
      if (ElapsedUs(wall_start) > options.timeout_us) {
        result = Status::Internal("query session " + std::to_string(session) +
                                  " timed out waiting for a reply");
        break;
      }
      if (ElapsedUs(sent_at) > options.resend_us) break;
      auto msg = inbox->PopFor(MillisUs(5));
      if (!msg) continue;
      if (msg->type != net::MessageType::kShardQueryReply) continue;
      net::Reader r(msg->payload_bytes());
      auto reply = net::KeyedQueryReply::Deserialize(&r);
      if (!reply.ok()) {
        result = reply.status();
        break;
      }
      if (reply->query_id != query.query_id) continue;  // stale poll answer
      if (!reply->error.empty()) {
        result = Status::InvalidArgument("query rejected: " + reply->error);
        break;
      }
      *final_reply = std::move(*reply);
      got_reply = true;
    }
    if (!result.ok()) break;
    if (!got_reply) continue;  // resend under a fresh query_id

    bool all_reached = true;
    for (const net::KeyedAnswer& a : final_reply->answers) {
      if (!a.found || a.window_id < options.until_window) {
        all_reached = false;
        break;
      }
    }
    if (all_reached) {
      *satisfied = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  transport.Shutdown();
  return result;
}

}  // namespace

Result<ShardQueryReport> RunShardQueryClient(const ShardQueryOptions& options) {
  if (options.keys.empty()) {
    return Status::InvalidArgument("query client needs at least one key");
  }
  if (options.concurrency == 0) {
    return Status::InvalidArgument("query concurrency must be at least 1");
  }
  const size_t sessions = std::min(options.concurrency, options.keys.size());

  // Round-robin key split: session t owns keys[t], keys[t + sessions], ...
  std::vector<std::vector<net::KeyId>> slices(sessions);
  for (size_t i = 0; i < options.keys.size(); ++i) {
    slices[i % sessions].push_back(options.keys[i]);
  }

  std::vector<Status> statuses(sessions, Status::OK());
  std::vector<uint64_t> sent(sessions, 0);
  std::vector<net::KeyedQueryReply> replies(sessions);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t t = 0; t < sessions; ++t) {
    threads.emplace_back([&, t] {
      bool satisfied = false;
      statuses[t] = RunQuerySession(options, t, slices[t], &sent[t],
                                    &replies[t], &satisfied);
    });
  }
  for (auto& th : threads) th.join();

  ShardQueryReport report;
  for (size_t t = 0; t < sessions; ++t) {
    DEMA_RETURN_NOT_OK(statuses[t]);
    report.queries_sent += sent[t];
    for (const net::KeyedAnswer& a : replies[t].answers) {
      if (a.found) ++report.keys_found;
    }
    report.final_replies.push_back(std::move(replies[t]));
  }

  if (options.shutdown_root) {
    // Only after every session finished: an early shutdown would end the
    // root's linger while other sessions are still polling.
    const NodeId my_id = options.id + static_cast<NodeId>(sessions);
    transport::TcpTransportOptions topts;
    topts.listen = false;
    transport::TcpTransport transport(topts);
    DEMA_RETURN_NOT_OK(transport.AddLocalNode(my_id));
    DEMA_RETURN_NOT_OK(
        transport.AddPeer(0, options.root_host, options.root_port));
    DEMA_RETURN_NOT_OK(transport.Start());
    Status st = transport.Send(ShutdownMessage(my_id, 0));
    (void)st;
    transport.Shutdown();
  }
  return report;
}

}  // namespace dema::shard
