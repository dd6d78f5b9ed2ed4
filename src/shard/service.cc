#include "shard/service.h"

namespace dema::shard {

ShardedRootService::ShardedRootService(ShardedConfig config,
                                       transport::Transport* transport,
                                       const Clock* clock)
    : config_(std::move(config)),
      transport_(transport),
      init_status_(ValidateShardedConfig(config_)),
      owned_registry_(config_.registry == nullptr
                          ? std::make_unique<obs::Registry>()
                          : nullptr),
      registry_(config_.registry == nullptr ? owned_registry_.get()
                                            : config_.registry),
      executor_(exec::ExecutorOptions{
          .workers = init_status_.ok() ? config_.workers : 1,
          .registry = registry_}),
      store_(init_status_.ok() ? config_.num_shards : 1,
             init_status_.ok() ? config_.num_keys : 1, config_.quantiles) {
  c_queries_ = registry_->GetCounter("shard.queries");
  c_query_errors_ = registry_->GetCounter("shard.query_errors");
  c_bad_frame_ = registry_->GetCounter("shard.service.bad_frame");
  c_reply_send_failures_ =
      registry_->GetCounter("shard.reply_send_failures");
  if (!init_status_.ok()) return;

  shards_.reserve(config_.num_shards);
  strands_.reserve(config_.num_shards);
  for (uint32_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<RootShard>(
        s, config_, transport_, clock, registry_,
        [this, s](net::KeyId key, const sim::WindowOutput& out) {
          OnKeyedResult(s, key, out);
        }));
    strands_.push_back(std::make_unique<Strand>());
  }
}

ShardedRootService::~ShardedRootService() {
  // Strand tasks reference the shards; make sure none are queued or running
  // before members start destructing.
  (void)Quiesce();
}

void ShardedRootService::OnKeyedResult(uint32_t s, net::KeyId key,
                                       const sim::WindowOutput& out) {
  store_.Publish(s, key, out);
  if (on_result_) on_result_(key, out);
  if (callback_) callback_(out);
}

uint64_t ShardedRootService::windows_emitted() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->windows_emitted();
  return total;
}

void ShardedRootService::RecordError(const Status& st) {
  if (st.ok()) return;
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = st;
}

Status ShardedRootService::FirstError() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void ShardedRootService::Post(uint32_t s, std::function<Status()> fn) {
  Strand& strand = *strands_[s];
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(strand.mu);
    strand.tasks.push_back(std::move(fn));
    if (!strand.running) {
      strand.running = true;
      schedule = true;
    }
  }
  if (schedule) {
    executor_.Submit([this, s] { RunStrand(s); });
  }
}

void ShardedRootService::RunStrand(uint32_t s) {
  Strand& strand = *strands_[s];
  for (;;) {
    std::function<Status()> task;
    {
      std::lock_guard<std::mutex> lock(strand.mu);
      if (strand.tasks.empty()) {
        strand.running = false;
        strand.idle_cv.notify_all();
        return;
      }
      task = std::move(strand.tasks.front());
      strand.tasks.pop_front();
    }
    RecordError(task());
  }
}

Status ShardedRootService::Quiesce() {
  for (auto& strand_ptr : strands_) {
    Strand& strand = *strand_ptr;
    std::unique_lock<std::mutex> lock(strand.mu);
    strand.idle_cv.wait(
        lock, [&] { return strand.tasks.empty() && !strand.running; });
  }
  return FirstError();
}

bool ShardedRootService::idle() const {
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Strand& strand = *strands_[s];
    std::lock_guard<std::mutex> lock(strand.mu);
    if (!strand.tasks.empty() || strand.running) return false;
    // The strand lock orders this read after the strand's last task, so the
    // shard's state is safe to inspect here.
    if (!shards_[s]->idle()) return false;
  }
  return true;
}

Status ShardedRootService::Tick() {
  DEMA_RETURN_NOT_OK(init_status_);
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Post(s, [this, s] { return shards_[s]->Tick(); });
  }
  return FirstError();
}

void ShardedRootService::NoteWindowHorizon(net::WindowId last) {
  if (!init_status_.ok()) return;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Post(s, [this, s, last] {
      shards_[s]->NoteWindowHorizon(last);
      return Status::OK();
    });
  }
}

Status ShardedRootService::OnMessage(const net::Message& msg) {
  DEMA_RETURN_NOT_OK(init_status_);
  switch (msg.type) {
    case net::MessageType::kShardSynopsisBatch:
    case net::MessageType::kShardCandidateReply: {
      // Exactly-once applies to state-mutating aggregation traffic only.
      if (dedup_.IsDuplicate(msg.src, msg.seq)) return Status::OK();
      auto shard = net::KeyedBatchReader::PeekShard(msg.payload_bytes());
      if (!shard.ok() || *shard >= shards_.size()) {
        c_bad_frame_->Increment();
        return Status::OK();
      }
      const uint32_t s = *shard;
      Post(s, [this, s, m = msg]() { return shards_[s]->OnFrame(m); });
      return FirstError();
    }
    case net::MessageType::kShardQuery: {
      // Queries skip the dedup filter: they are idempotent reads correlated
      // by query_id, and a client that reconnects under the same node id
      // restarts its seq counter — the filter would swallow its first query.
      c_queries_->Increment();
      net::Reader r(msg.payload_bytes());
      auto query = net::KeyedQuery::Deserialize(&r);
      net::KeyedQueryReply reply;
      if (!query.ok()) {
        reply.error = query.status().message();
      } else {
        reply = store_.Query(*query);
      }
      if (!reply.error.empty()) c_query_errors_->Increment();
      net::Message frame = net::MakeMessage(
          net::MessageType::kShardQueryReply, msg.dst, msg.src, reply);
      Status sent = transport_->Send(std::move(frame));
      if (!sent.ok()) c_reply_send_failures_->Increment();
      return Status::OK();
    }
    case net::MessageType::kShutdown:
      // The hosting run loop decides when to stop; nothing to do here.
      return Status::OK();
    default:
      c_bad_frame_->Increment();
      return Status::OK();
  }
}

}  // namespace dema::shard
