#include "baselines/qdigest_agg.h"

#include <algorithm>

#include "baselines/tdigest_agg.h"  // reuses the SketchSummary payload

namespace dema::baselines {

QDigestLocalNode::QDigestLocalNode(QDigestOptions options, transport::Transport* transport,
                                   const Clock* clock)
    : options_(std::move(options)),
      transport_(transport),
      clock_(clock),
      assigner_(options_.window_len_us) {}

Status QDigestLocalNode::OnEvent(const Event& e) {
  net::WindowId id = assigner_.AssignWindow(e.timestamp);
  auto it = open_.find(id);
  if (it == open_.end()) {
    sketch::QDigest digest(
        sketch::ValueQuantizer(options_.domain_lo, options_.domain_hi,
                               options_.universe_bits),
        options_.k);
    it = open_.emplace(id, std::make_pair(std::move(digest), uint64_t{0})).first;
  }
  it->second.first.Add(e.value);
  it->second.second += 1;
  return Status::OK();
}

Status QDigestLocalNode::EmitWindow(net::WindowId id) {
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

Status QDigestLocalNode::OnWatermark(TimestampUs watermark_us) {
  net::WindowId up_to =
      assigner_.AssignWindow(std::max<TimestampUs>(0, watermark_us));
  while (next_window_to_emit_ < up_to) {
    DEMA_RETURN_NOT_OK(EmitWindow(next_window_to_emit_++));
  }
  return Status::OK();
}

Status QDigestLocalNode::OnFinish(TimestampUs final_watermark_us) {
  return OnWatermark(final_watermark_us);
}

Status QDigestLocalNode::OnMessage(const net::Message& msg) {
  if (msg.type == net::MessageType::kShutdown) return Status::OK();
  return Status::Internal(std::string("qdigest local got unexpected ") +
                          net::MessageTypeToString(msg.type));
}

QDigestRootNode::QDigestRootNode(QDigestOptions options, transport::Transport* transport,
                                 const Clock* clock)
    : options_(std::move(options)), transport_(transport), clock_(clock) {
  (void)transport_;
}

Status QDigestRootNode::OnMessage(const net::Message& msg) {
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kSketchSummary: {
      DEMA_ASSIGN_OR_RETURN(auto summary, SketchSummary::Deserialize(&r));
      auto it = pending_.find(summary.window_id);
      if (it == pending_.end()) {
        it = pending_.emplace(summary.window_id, PendingWindow(options_)).first;
      }
      PendingWindow& w = it->second;
      if (!summary.digest.empty()) {
        net::Reader dr(summary.digest);
        DEMA_ASSIGN_OR_RETURN(auto digest, sketch::QDigest::Deserialize(&dr));
        DEMA_RETURN_NOT_OK(w.digest.Merge(digest));
      }
      ++w.summaries_received;
      w.expected_events += summary.local_window_size;
      w.last_close_time_us = std::max(w.last_close_time_us, summary.close_time_us);
      return MaybeFinalize(summary.window_id, &w);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("qdigest root got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status QDigestRootNode::MaybeFinalize(net::WindowId id, PendingWindow* w) {
  if (w->summaries_received < options_.locals.size()) return Status::OK();

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
