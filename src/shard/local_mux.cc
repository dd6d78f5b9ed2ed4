#include "shard/local_mux.h"

#include "shard/key.h"

namespace dema::shard {

KeyedLocalNode::KeyedLocalNode(KeyedLocalNodeOptions options,
                               transport::Transport* transport,
                               const Clock* clock)
    : options_(std::move(options)), transport_(transport) {
  if (options_.registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = options_.registry;
  }
  const std::string suffix = "{node=" + std::to_string(options_.id) + "}";
  c_frames_ = registry_->GetCounter("shard.local.frames" + suffix);
  c_bad_frame_ = registry_->GetCounter("shard.local.bad_frame" + suffix);
  c_unknown_key_ = registry_->GetCounter("shard.local.unknown_key" + suffix);
  c_send_failures_ =
      registry_->GetCounter("shard.local.send_failures" + suffix);

  core::DemaLocalNodeOptions opts;
  opts.id = options_.id;
  opts.root_id = options_.service_id;
  opts.window_len_us = options_.window_len_us;
  opts.initial_gamma = options_.initial_gamma;
  opts.sort_mode = options_.sort_mode;
  opts.reply_codec = options_.reply_codec;
  opts.registry = registry_;
  opts.executor = options_.executor;

  locals_.reserve(options_.num_keys);
  shard_of_.reserve(options_.num_keys);
  for (net::KeyId key = 0; key < options_.num_keys; ++key) {
    locals_.push_back(
        std::make_unique<core::DemaLocalNode>(opts, &key_transport_, clock));
    shard_of_.push_back(ShardOfKey(key, options_.num_shards));
  }
}

Status KeyedLocalNode::OnEvent(net::KeyId key, const Event& e) {
  if (key >= locals_.size()) {
    return Status::InvalidArgument("event for unknown key " +
                                   std::to_string(key));
  }
  current_key_ = key;
  DEMA_RETURN_NOT_OK(locals_[key]->OnEvent(e));
  // Ingest alone never closes a window, but stay defensive: anything the
  // per-key local did send must leave now, not with a later call's frames.
  return stashed_ > 0 ? Flush() : Status::OK();
}

Status KeyedLocalNode::OnWatermark(TimestampUs watermark_us) {
  for (net::KeyId key = 0; key < locals_.size(); ++key) {
    current_key_ = key;
    DEMA_RETURN_NOT_OK(locals_[key]->OnWatermark(watermark_us));
  }
  return Flush();
}

Status KeyedLocalNode::OnFinish(TimestampUs final_watermark_us) {
  for (net::KeyId key = 0; key < locals_.size(); ++key) {
    current_key_ = key;
    DEMA_RETURN_NOT_OK(locals_[key]->OnFinish(final_watermark_us));
  }
  return Flush();
}

Status KeyedLocalNode::Quiesce() {
  for (net::KeyId key = 0; key < locals_.size(); ++key) {
    current_key_ = key;
    DEMA_RETURN_NOT_OK(locals_[key]->Quiesce());
  }
  return Flush();
}

Status KeyedLocalNode::OnMessage(const net::Message& outer) {
  if (dedup_.IsDuplicate(outer.src, outer.seq)) return Status::OK();
  if (outer.type != net::MessageType::kShardCandidateRequest &&
      outer.type != net::MessageType::kShardGammaUpdate) {
    c_bad_frame_->Increment();
    return Status::OK();
  }
  c_frames_->Increment();
  // Opening validates every entry header, so a malformed frame is dropped
  // whole before any key sees an entry.
  auto batch = net::KeyedBatchReader::Open(outer.payload_bytes());
  if (!batch.ok()) {
    c_bad_frame_->Increment();
    return Status::OK();
  }
  auto inner_type = net::KeyedInnerType(outer.type);
  if (!inner_type.ok()) {
    c_bad_frame_->Increment();
    return Status::OK();
  }

  net::KeyedEntryView entry;
  while (batch->Next(&entry)) {
    if (entry.key >= locals_.size()) {
      c_unknown_key_->Increment();
      continue;
    }
    net::Message inner;
    inner.type = *inner_type;
    inner.src = outer.src;
    inner.dst = outer.dst;
    inner.seq = 0;  // the outer frame already passed dedup above
    inner.send_time_us = outer.send_time_us;
    // A view into the outer frame, sharing its arena pin when it has one
    // (the aliasing constructor allocates nothing); `outer` outlives the
    // call.
    inner.SetPayloadView(
        std::shared_ptr<const void>(outer.backing, entry.payload.data()),
        entry.payload.data(), entry.payload.size());
    current_key_ = entry.key;
    DEMA_RETURN_NOT_OK(locals_[entry.key]->OnMessage(inner));
  }
  return Flush();
}

Status KeyedLocalNode::Stash(const net::Message& m) {
  auto outer_type = net::KeyedOuterType(m.type);
  if (!outer_type.ok()) {
    // Per-key locals only send synopsis batches and candidate replies;
    // anything else (e.g. a gamma resync, which keyed runs never issue) is
    // a programming error worth failing loudly on.
    if (stash_error_.ok()) stash_error_ = outer_type.status();
    return Status::OK();
  }
  const uint32_t shard = shard_of_[current_key_];
  outbox_.Batch(shard, *outer_type, shard, options_.service_id)
      ->AddBytes(current_key_, m.payload_bytes(), m.event_count);
  ++stashed_;
  return Status::OK();
}

Status KeyedLocalNode::Flush() {
  Status st = std::move(stash_error_);
  stash_error_ = Status::OK();
  stashed_ = 0;
  if (!st.ok()) return st;
  outbox_.Flush(options_.id, transport_, c_send_failures_);
  return Status::OK();
}

}  // namespace dema::shard
