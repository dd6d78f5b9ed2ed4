#include "shard/serve.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "shard/local_mux.h"
#include "shard/service.h"
#include "transport/tcp.h"

namespace dema::shard {

Result<sim::RunMetrics> RunShardedTcpRoot(const ShardedConfig& config,
                                          uint64_t expected_windows,
                                          const sim::TcpRootOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateShardedConfig(config));
  RealClock clock;
  ShardedConfig cfg = config;
  sim::RunMetrics metrics;
  metrics.registry = sim::RunSink(&cfg.registry);
  auto build = [&](transport::Transport* transport)
      -> Result<std::unique_ptr<sim::RootNodeLogic>> {
    auto service = std::make_unique<ShardedRootService>(cfg, transport, &clock);
    DEMA_RETURN_NOT_OK(service->init_status());
    if (options.on_result) service->SetResultCallback(options.on_result);
    return std::unique_ptr<sim::RootNodeLogic>(std::move(service));
  };
  DEMA_RETURN_NOT_OK(sim::ServeTcpRoot(options, ShardLocalIds(cfg),
                                       expected_windows * cfg.num_keys, build,
                                       &metrics));
  return metrics;
}

Result<sim::TcpLocalReport> RunShardedTcpLocal(
    const ShardedConfig& config, const KeyedWorkloadConfig& workload,
    NodeId id, const sim::TcpLocalOptions& options) {
  DEMA_RETURN_NOT_OK(ValidateShardedConfig(config));
  if (id == 0 || id > config.num_locals) {
    return Status::InvalidArgument("keyed local id " + std::to_string(id) +
                                   " out of range 1.." +
                                   std::to_string(config.num_locals));
  }
  RealClock clock;
  DEMA_ASSIGN_OR_RETURN(auto transport,
                        sim::DialRoot(id, options, config.registry));
  KeyedLocalNode node(config, id, transport.get(), &clock);
  DEMA_RETURN_NOT_OK(sim::CheckpointableLocal(options, &node).status());
  DEMA_ASSIGN_OR_RETURN(auto gens,
                        MakeKeyGenerators(workload, config.num_keys, id));

  sim::LocalInbox inbox(transport.get(), id, &node, options.timeout_us);
  uint64_t events_ingested = 0;
  Status run_status = Status::OK();
  for (uint64_t w = 0; w < workload.num_windows && run_status.ok(); ++w) {
    const TimestampUs start =
        static_cast<TimestampUs>(w) * config.window_len_us;
    for (net::KeyId key = 0; key < config.num_keys && run_status.ok(); ++key) {
      const std::vector<Event> events =
          gens[key]->GenerateWindow(start, config.window_len_us);
      for (size_t i = 0; i < events.size() && run_status.ok(); ++i) {
        run_status = node.OnEvent(key, events[i]);
      }
      events_ingested += events.size();
    }
    if (run_status.ok()) {
      run_status = node.OnWatermark(start + config.window_len_us);
    }
    // Serve whatever candidate requests arrived while streaming.
    if (run_status.ok()) run_status = inbox.Drain();
  }
  if (run_status.ok()) {
    run_status = node.OnFinish(static_cast<TimestampUs>(workload.num_windows) *
                               config.window_len_us);
  }
  return inbox.Finish(run_status, events_ingested);
}

namespace {

/// Where a query client dials the root.
sim::TcpLocalOptions RootAddress(const ShardQueryOptions& options) {
  sim::TcpLocalOptions address;
  address.root_host = options.root_host;
  address.root_port = options.root_port;
  return address;
}

/// One query session: its own connection, polling until its keys reach the
/// target window; returns the final reply and counts the queries it sent.
Result<net::KeyedQueryReply> RunQuerySession(
    const ShardQueryOptions& options, size_t session,
    const std::vector<net::KeyId>& keys, uint64_t* queries_sent) {
  const NodeId my_id = options.id + static_cast<NodeId>(session);
  DEMA_ASSIGN_OR_RETURN(auto transport,
                        sim::DialRoot(my_id, RootAddress(options), nullptr));
  net::Channel* inbox = transport->Inbox(my_id);

  using SteadyClock = std::chrono::steady_clock;
  const auto deadline =
      SteadyClock::now() + std::chrono::microseconds(options.timeout_us);
  net::KeyedQuery query;
  query.keys = keys;
  query.quantiles = options.quantiles;
  while (SteadyClock::now() <= deadline) {
    ++query.query_id;
    DEMA_RETURN_NOT_OK(transport->Send(net::MakeMessage(
        net::MessageType::kShardQuery, my_id, /*dst=*/0, query)));
    ++*queries_sent;

    // Wait for the matching reply, but only up to the resend interval: a
    // query (or its reply) lost in transit must cost one interval, not the
    // whole session timeout. Re-sending is safe — queries are idempotent
    // reads, and stale replies are skipped by query_id below.
    const auto resend_at =
        std::min(deadline, SteadyClock::now() +
                               std::chrono::microseconds(options.resend_us));
    std::optional<net::KeyedQueryReply> reply;
    while (!reply && SteadyClock::now() <= resend_at) {
      auto msg = inbox->PopFor(MillisUs(5));
      if (!msg || msg->type != net::MessageType::kShardQueryReply) continue;
      net::Reader r(msg->payload_bytes());
      DEMA_ASSIGN_OR_RETURN(auto got, net::KeyedQueryReply::Deserialize(&r));
      if (got.query_id != query.query_id) continue;  // stale poll answer
      if (!got.error.empty()) {
        return Status::InvalidArgument("query rejected: " + got.error);
      }
      reply = std::move(got);
    }
    if (!reply) continue;  // resend under a fresh query_id
    if (std::all_of(reply->answers.begin(), reply->answers.end(),
                    [&](const net::KeyedAnswer& a) {
                      return a.found && a.window_id >= options.until_window;
                    })) {
      return *std::move(reply);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::Internal("query session " + std::to_string(session) +
                          " timed out after " + std::to_string(*queries_sent) +
                          " queries");
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

  std::vector<uint64_t> sent(sessions, 0);
  std::vector<Result<net::KeyedQueryReply>> replies(
      sessions, Status::Internal("query session never ran"));
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (size_t t = 0; t < sessions; ++t) {
    threads.emplace_back([&, t] {
      replies[t] = RunQuerySession(options, t, slices[t], &sent[t]);
    });
  }
  for (auto& th : threads) th.join();

  ShardQueryReport report;
  for (size_t t = 0; t < sessions; ++t) {
    DEMA_RETURN_NOT_OK(replies[t].status());
    report.queries_sent += sent[t];
    for (const net::KeyedAnswer& a : replies[t]->answers) {
      if (a.found) ++report.keys_found;
    }
    report.final_replies.push_back(std::move(*replies[t]));
  }

  if (options.shutdown_root) {
    // Only after every session finished: an early shutdown would end the
    // root's linger while other sessions are still polling.
    const NodeId my_id = options.id + static_cast<NodeId>(sessions);
    DEMA_ASSIGN_OR_RETURN(auto transport,
                          sim::DialRoot(my_id, RootAddress(options), nullptr));
    net::Message bye;
    bye.type = net::MessageType::kShutdown;
    bye.src = my_id;
    bye.dst = 0;
    (void)transport->Send(std::move(bye));  // flushed by the destructor
  }
  return report;
}

}  // namespace dema::shard
