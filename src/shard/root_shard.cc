#include "shard/root_shard.h"

#include "shard/key.h"

namespace dema::shard {

namespace {

core::DemaRootNodeOptions ShardRootOptions(uint32_t index,
                                           const ShardedConfig& config,
                                           obs::Registry* registry) {
  core::DemaRootNodeOptions opts;
  opts.id = 0;  // per-key traffic carries the service's node id
  opts.locals = ShardLocalIds(config);
  opts.quantiles = config.quantiles;
  opts.initial_gamma = config.gamma;
  opts.adaptive_gamma = config.adaptive_gamma;
  opts.recovery = config.recovery;
  opts.instrument_label = ShardLabel(index);
  opts.registry = registry;
  return opts;
}

}  // namespace

RootShard::RootShard(uint32_t index, const ShardedConfig& config,
                     transport::Transport* transport, const Clock* clock,
                     obs::Registry* registry, KeyedResultFn on_result)
    : index_(index),
      transport_(transport),
      on_result_(std::move(on_result)),
      core_(ShardRootOptions(index, config, registry), clock),
      slot_of_(config.num_keys, kNoSlot) {
  const std::string suffix = "{" + ShardLabel(index_) + "}";
  c_frames_ = registry->GetCounter("shard.frames" + suffix);
  c_wrong_shard_ = registry->GetCounter("shard.wrong_shard" + suffix);
  c_unknown_key_ = registry->GetCounter("shard.unknown_key" + suffix);
  c_bad_frame_ = registry->GetCounter("shard.bad_frame" + suffix);
  c_send_failures_ = registry->GetCounter("shard.send_failures" + suffix);

  for (net::KeyId key = 0; key < config.num_keys; ++key) {
    if (ShardOfKey(key, config.num_shards) != index_) continue;
    slot_of_[key] = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
  }
  streams_.reserve(keys_.size());
  for (size_t slot = 0; slot < keys_.size(); ++slot) {
    streams_.push_back(core_.NewStream());
  }
}

Status RootShard::SendRequest(NodeId dst, const core::CandidateRequest& req) {
  outbox_.Batch(dst, net::MessageType::kShardCandidateRequest, index_, dst)
      ->Add(current_key_, req);
  return Status::OK();
}

Status RootShard::SendGamma(NodeId dst, const core::GammaUpdate& update) {
  outbox_.Batch(dst, net::MessageType::kShardGammaUpdate, index_, dst)
      ->Add(current_key_, update);
  return Status::OK();
}

void RootShard::Emit(const sim::WindowOutput& out) {
  if (on_result_) on_result_(current_key_, out);
  // Counted after publication: a reader that sees the count sees the result.
  windows_emitted_.fetch_add(1, std::memory_order_release);
}

void RootShard::Flush() {
  outbox_.Flush(/*src=*/0, transport_, c_send_failures_);
}

Status RootShard::OnFrame(const net::Message& outer) {
  c_frames_->Increment();
  // Opening validates every entry header, so a truncated frame or one with
  // trailing bytes is dropped whole before any entry is applied.
  auto batch = net::KeyedBatchReader::Open(outer.payload_bytes());
  if (!batch.ok()) {
    c_bad_frame_->Increment();
    return Status::OK();
  }
  if (batch->shard() != index_) {
    c_wrong_shard_->Increment();
    return Status::OK();
  }
  auto inner_type = net::KeyedInnerType(outer.type);
  if (!inner_type.ok()) {
    c_bad_frame_->Increment();
    return Status::OK();
  }

  Status st;
  net::KeyedEntryView entry;
  while (st.ok() && batch->Next(&entry)) {
    const uint32_t slot =
        entry.key < slot_of_.size() ? slot_of_[entry.key] : kNoSlot;
    if (slot == kNoSlot) {
      c_unknown_key_->Increment();
      continue;
    }
    current_key_ = entry.key;
    st = core_.OnPayload(&streams_[slot], *inner_type, outer.src, entry.payload,
                         this);
  }
  Flush();
  return st;
}

Status RootShard::Tick() {
  DEMA_RETURN_NOT_OK(core_.init_status());
  if (!core_.BeginTick()) return Status::OK();
  Status st;
  for (size_t slot = 0; st.ok() && slot < keys_.size(); ++slot) {
    current_key_ = keys_[slot];
    st = core_.Tick(&streams_[slot], this);
  }
  Flush();
  return st;
}

void RootShard::NoteWindowHorizon(net::WindowId last) {
  for (core::RootStream& stream : streams_) {
    core_.NoteWindowHorizon(&stream, last);
  }
}

bool RootShard::idle() const {
  for (const core::RootStream& stream : streams_) {
    if (!stream.pending.empty()) return false;
  }
  return true;
}

}  // namespace dema::shard
