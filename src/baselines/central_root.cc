#include "baselines/central_root.h"

#include <algorithm>

#include "stream/merge.h"
#include "stream/quantile.h"

namespace dema::baselines {

namespace {

Status ValidateQuantiles(const std::vector<double>& quantiles) {
  if (quantiles.empty()) return Status::InvalidArgument("no quantiles configured");
  for (double q : quantiles) {
    if (!(q > 0.0) || q > 1.0) {
      return Status::InvalidArgument("quantile outside (0, 1]");
    }
  }
  return Status::OK();
}

}  // namespace

CentralExactRootNode::CentralExactRootNode(CollectingRootOptions options,
                                           transport::Transport* transport,
                                           const Clock* clock)
    : options_(std::move(options)), transport_(transport), clock_(clock) {
  (void)transport_;
}

Status CentralExactRootNode::OnMessage(const net::Message& msg) {
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kEventBatch: {
      DEMA_ASSIGN_OR_RETURN(auto batch, net::EventBatch::Deserialize(&r));
      PendingWindow& w = pending_[batch.window_id];
      w.events.insert(w.events.end(), batch.events.begin(), batch.events.end());
      return MaybeFinalize(batch.window_id, &w);
    }
    case net::MessageType::kWindowEnd: {
      DEMA_ASSIGN_OR_RETURN(auto end, net::WindowEnd::Deserialize(&r));
      PendingWindow& w = pending_[end.window_id];
      ++w.ends_received;
      w.expected_events += end.local_window_size;
      w.last_close_time_us = std::max(w.last_close_time_us, end.close_time_us);
      return MaybeFinalize(end.window_id, &w);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("central root got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status CentralExactRootNode::MaybeFinalize(net::WindowId id, PendingWindow* w) {
  if (w->ends_received < options_.locals.size()) return Status::OK();
  if (w->events.size() < w->expected_events) return Status::OK();
  if (w->events.size() > w->expected_events) {
    return Status::Internal("window " + std::to_string(id) + " received " +
                            std::to_string(w->events.size()) + " events, expected " +
                            std::to_string(w->expected_events));
  }
  DEMA_RETURN_NOT_OK(ValidateQuantiles(options_.quantiles));

  sim::WindowOutput out;
  out.window_id = id;
  out.global_size = w->events.size();
  if (w->events.empty()) {
    out.values.assign(options_.quantiles.size(), 0.0);
  } else {
    // The Scotty path: one big sort at the root, then direct rank reads.
    std::sort(w->events.begin(), w->events.end());
    for (double q : options_.quantiles) {
      uint64_t rank = stream::QuantileRank(q, w->events.size());
      out.values.push_back(w->events[rank - 1].value);
    }
  }
  out.latency_us = clock_->NowUs() - w->last_close_time_us;
  pending_.erase(id);
  ++windows_emitted_;
  if (callback_) callback_(out);
  return Status::OK();
}

DesisMergeRootNode::DesisMergeRootNode(CollectingRootOptions options,
                                       transport::Transport* transport, const Clock* clock)
    : options_(std::move(options)), transport_(transport), clock_(clock) {
  (void)transport_;
  for (size_t i = 0; i < options_.locals.size(); ++i) {
    local_index_[options_.locals[i]] = i;
  }
}

Status DesisMergeRootNode::OnMessage(const net::Message& msg) {
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kEventBatch: {
      DEMA_ASSIGN_OR_RETURN(auto batch, net::EventBatch::Deserialize(&r));
      auto idx = local_index_.find(msg.src);
      if (idx == local_index_.end()) {
        return Status::InvalidArgument("batch from unknown node");
      }
      if (!batch.sorted) {
        return Status::InvalidArgument("Desis root requires sorted runs");
      }
      PendingWindow& w = pending_[batch.window_id];
      if (w.runs.empty()) w.runs.resize(options_.locals.size());
      auto& run = w.runs[idx->second];
      run.insert(run.end(), batch.events.begin(), batch.events.end());
      w.received_events += batch.events.size();
      return MaybeFinalize(batch.window_id, &w);
    }
    case net::MessageType::kWindowEnd: {
      DEMA_ASSIGN_OR_RETURN(auto end, net::WindowEnd::Deserialize(&r));
      PendingWindow& w = pending_[end.window_id];
      if (w.runs.empty()) w.runs.resize(options_.locals.size());
      ++w.ends_received;
      w.expected_events += end.local_window_size;
      w.last_close_time_us = std::max(w.last_close_time_us, end.close_time_us);
      return MaybeFinalize(end.window_id, &w);
    }
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("Desis root got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status DesisMergeRootNode::MaybeFinalize(net::WindowId id, PendingWindow* w) {
  if (w->ends_received < options_.locals.size()) return Status::OK();
  if (w->received_events < w->expected_events) return Status::OK();
  if (w->received_events > w->expected_events) {
    return Status::Internal("window received more events than announced");
  }
  DEMA_RETURN_NOT_OK(ValidateQuantiles(options_.quantiles));

  sim::WindowOutput out;
  out.window_id = id;
  out.global_size = w->expected_events;
  if (w->expected_events == 0) {
    out.values.assign(options_.quantiles.size(), 0.0);
  } else {
    // Ranks in ascending order; merge only as far as the largest one.
    std::vector<std::pair<uint64_t, size_t>> ranks;  // (rank, quantile idx)
    for (size_t i = 0; i < options_.quantiles.size(); ++i) {
      ranks.emplace_back(
          stream::QuantileRank(options_.quantiles[i], w->expected_events), i);
    }
    std::sort(ranks.begin(), ranks.end());
    out.values.assign(options_.quantiles.size(), 0.0);
    stream::LoserTreeMerger merger(std::move(w->runs));
    uint64_t produced = 0;
    size_t next_rank = 0;
    while (next_rank < ranks.size() && merger.HasNext()) {
      Event e = merger.Next();
      ++produced;
      while (next_rank < ranks.size() && ranks[next_rank].first == produced) {
        out.values[ranks[next_rank].second] = e.value;
        ++next_rank;
      }
    }
  }
  out.latency_us = clock_->NowUs() - w->last_close_time_us;
  pending_.erase(id);
  ++windows_emitted_;
  if (callback_) callback_(out);
  return Status::OK();
}

}  // namespace dema::baselines
