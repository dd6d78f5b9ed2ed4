#include "baselines/tdigest_agg.h"

#include <algorithm>

namespace dema::baselines {

void SketchSummary::SerializeTo(net::Writer* w) const {
  w->PutU64(window_id);
  w->PutU32(node);
  w->PutU64(local_window_size);
  w->PutI64(close_time_us);
  w->PutU32(static_cast<uint32_t>(digest.size()));
  for (uint8_t b : digest) w->PutU8(b);
}

Result<SketchSummary> SketchSummary::Deserialize(net::Reader* r) {
  SketchSummary s;
  DEMA_RETURN_NOT_OK(r->GetU64(&s.window_id));
  DEMA_RETURN_NOT_OK(r->GetU32(&s.node));
  DEMA_RETURN_NOT_OK(r->GetU64(&s.local_window_size));
  DEMA_RETURN_NOT_OK(r->GetI64(&s.close_time_us));
  uint32_t n = 0;
  DEMA_RETURN_NOT_OK(r->GetU32(&n));
  if (n > r->remaining()) {
    return Status::SerializationError("digest length exceeds buffer");
  }
  s.digest.resize(n);
  for (uint32_t i = 0; i < n; ++i) DEMA_RETURN_NOT_OK(r->GetU8(&s.digest[i]));
  return s;
}

TDigestLocalNode::TDigestLocalNode(TDigestOptions options, transport::Transport* transport,
                                   const Clock* clock)
    : options_(std::move(options)),
      transport_(transport),
      clock_(clock),
      assigner_(options_.window_len_us) {}

Status TDigestLocalNode::OnEvent(const Event& e) {
  net::WindowId id = assigner_.AssignWindow(e.timestamp);
  auto it = open_.find(id);
  if (it == open_.end()) {
    it = open_
             .emplace(id, std::make_pair(sketch::TDigest(options_.compression),
                                         uint64_t{0}))
             .first;
  }
  it->second.first.Add(e.value);
  it->second.second += 1;
  return Status::OK();
}

Status TDigestLocalNode::EmitWindow(net::WindowId id) {
  SketchSummary summary;
  summary.window_id = id;
  summary.node = options_.id;
  summary.close_time_us = clock_->NowUs();
  auto it = open_.find(id);
  if (it != open_.end()) {
    summary.local_window_size = it->second.second;
    net::Writer w;
    it->second.first.SerializeTo(&w);
    summary.digest = w.TakeBuffer();
    open_.erase(it);
  }
  return transport_->Send(net::MakeMessage(net::MessageType::kSketchSummary,
                                         options_.id, options_.root_id, summary));
}

Status TDigestLocalNode::OnWatermark(TimestampUs watermark_us) {
  net::WindowId up_to =
      assigner_.AssignWindow(std::max<TimestampUs>(0, watermark_us));
  while (next_window_to_emit_ < up_to) {
    DEMA_RETURN_NOT_OK(EmitWindow(next_window_to_emit_++));
  }
  return Status::OK();
}

Status TDigestLocalNode::OnFinish(TimestampUs final_watermark_us) {
  return OnWatermark(final_watermark_us);
}

Status TDigestLocalNode::OnMessage(const net::Message& msg) {
  if (msg.type == net::MessageType::kShutdown) return Status::OK();
  return Status::Internal(std::string("tdigest local got unexpected ") +
                          net::MessageTypeToString(msg.type));
}

TDigestRootNode::TDigestRootNode(TDigestOptions options, transport::Transport* transport,
                                 const Clock* clock)
    : options_(std::move(options)), transport_(transport), clock_(clock) {
  (void)transport_;
}

Status TDigestRootNode::OnMessage(const net::Message& msg) {
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kEventBatch: {
      if (options_.mode != TDigestMode::kCentralized) {
        return Status::Internal("raw events in decentralized sketch mode");
      }
      // Lazy deserialization: the sketch only needs values, so stride over
      // the payload instead of materializing Event objects.
      DEMA_ASSIGN_OR_RETURN(net::WindowId wid,
                            net::EventBatch::PeekWindowId(msg.payload_bytes()));
      auto it = pending_.try_emplace(wid, options_.compression).first;
      sketch::TDigest& digest = it->second.digest;
      DEMA_ASSIGN_OR_RETURN(
          uint64_t count,
          net::EventBatch::ForEachValue(msg.payload_bytes(),
                                        [&digest](double v) { digest.Add(v); }));
      it->second.received_events += count;
      return MaybeFinalize(wid, &it->second);
    }
    case net::MessageType::kWindowEnd: {
      DEMA_ASSIGN_OR_RETURN(auto end, net::WindowEnd::Deserialize(&r));
      auto it = pending_.try_emplace(end.window_id, options_.compression).first;
      PendingWindow& w = it->second;
      ++w.ends_received;
      w.expected_events += end.local_window_size;
      w.last_close_time_us = std::max(w.last_close_time_us, end.close_time_us);
      return MaybeFinalize(end.window_id, &w);
    }
    case net::MessageType::kSketchSummary: {
      if (options_.mode != TDigestMode::kDecentralized) {
        return Status::Internal("sketch summary in centralized mode");
      }
      DEMA_ASSIGN_OR_RETURN(auto summary, SketchSummary::Deserialize(&r));
      auto it =
          pending_.try_emplace(summary.window_id, options_.compression).first;
      PendingWindow& w = it->second;
      if (!summary.digest.empty()) {
        net::Reader dr(summary.digest);
        DEMA_ASSIGN_OR_RETURN(auto digest, sketch::TDigest::Deserialize(&dr));
        w.digest.Merge(digest);
      }
      ++w.ends_received;
      w.expected_events += summary.local_window_size;
      w.received_events += summary.local_window_size;
      w.last_close_time_us = std::max(w.last_close_time_us, summary.close_time_us);
      return MaybeFinalize(summary.window_id, &w);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("tdigest root got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status TDigestRootNode::MaybeFinalize(net::WindowId id, PendingWindow* w) {
  if (w->ends_received < options_.locals.size()) return Status::OK();
  if (w->received_events < w->expected_events) return Status::OK();

  sim::WindowOutput out;
  out.window_id = id;
  out.global_size = w->expected_events;
  if (w->expected_events == 0) {
    out.values.assign(options_.quantiles.size(), 0.0);
  } else {
    for (double q : options_.quantiles) {
      DEMA_ASSIGN_OR_RETURN(double v, w->digest.Quantile(q));
      out.values.push_back(v);
    }
  }
  out.latency_us = clock_->NowUs() - w->last_close_time_us;
  pending_.erase(id);
  ++windows_emitted_;
  if (callback_) callback_(out);
  return Status::OK();
}

}  // namespace dema::baselines
