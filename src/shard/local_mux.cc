#include "shard/local_mux.h"

#include "shard/key.h"

namespace dema::shard {

KeyedLocalNode::KeyedLocalNode(const ShardedConfig& config, NodeId id,
                               transport::Transport* transport,
                               const Clock* clock)
    : id_(id),
      transport_(transport),
      core_({.id = id,
             .root_id = 0,
             .window_len_us = config.window_len_us,
             .initial_gamma = config.gamma,
             .reply_codec = config.wire_codec,
             .registry = config.registry},
            clock) {
  obs::Registry* registry = core_.registry();
  const std::string suffix = "{node=" + std::to_string(id) + "}";
  c_frames_ = registry->GetCounter("shard.local.frames" + suffix);
  c_bad_frame_ = registry->GetCounter("shard.local.bad_frame" + suffix);
  c_unknown_key_ = registry->GetCounter("shard.local.unknown_key" + suffix);
  c_send_failures_ =
      registry->GetCounter("shard.local.send_failures" + suffix);

  streams_.reserve(config.num_keys);
  shard_of_.reserve(config.num_keys);
  for (net::KeyId key = 0; key < config.num_keys; ++key) {
    streams_.emplace_back(core_.options());
    shard_of_.push_back(ShardOfKey(key, config.num_shards));
  }
}

Status KeyedLocalNode::OnEvent(net::KeyId key, const Event& e) {
  if (key >= streams_.size()) {
    return Status::InvalidArgument("event for unknown key " +
                                   std::to_string(key));
  }
  core_.OnEvent(&streams_[key], e);
  return Status::OK();
}

Status KeyedLocalNode::OnWatermark(TimestampUs watermark_us) {
  Status st;
  for (net::KeyId key = 0; st.ok() && key < streams_.size(); ++key) {
    current_key_ = key;
    st = core_.OnWatermark(&streams_[key], watermark_us, this);
  }
  Flush();
  return st;
}

Status KeyedLocalNode::OnMessage(const net::Message& outer) {
  if (dedup_.IsDuplicate(outer.src, outer.seq)) {
    core_.CountDuplicate();
    return Status::OK();
  }
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

  Status st;
  net::KeyedEntryView entry;
  while (st.ok() && batch->Next(&entry)) {
    if (entry.key >= streams_.size()) {
      c_unknown_key_->Increment();
      continue;
    }
    current_key_ = entry.key;
    st = core_.OnPayload(&streams_[entry.key], *inner_type, entry.payload,
                         this);
  }
  Flush();
  return st;
}

}  // namespace dema::shard
