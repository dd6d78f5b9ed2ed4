#include "dema/relay_node.h"

#include <algorithm>

#include "stream/merge.h"

namespace dema::core {

DemaRelayNode::DemaRelayNode(DemaRelayNodeOptions options, transport::Transport* transport,
                             const Clock* clock)
    : options_(std::move(options)), transport_(transport), clock_(clock) {
  for (size_t i = 0; i < options_.children.size(); ++i) {
    child_index_[options_.children[i]] = i;
  }
}

Status DemaRelayNode::OnMessage(const net::Message& msg) {
  // A retransmitted message carries its original sequence number; absorb it
  // before it reaches the per-window state.
  if (dedup_.IsDuplicate(msg.src, msg.seq)) return Status::OK();
  net::Reader r(msg.payload_bytes());
  switch (msg.type) {
    case net::MessageType::kSynopsisBatch: {
      DEMA_ASSIGN_OR_RETURN(auto batch, SynopsisBatch::Deserialize(&r));
      return HandleChildSynopsis(batch);
    }
    case net::MessageType::kCandidateRequest: {
      DEMA_ASSIGN_OR_RETURN(auto request, CandidateRequest::Deserialize(&r));
      return HandleParentRequest(request);
    }
    case net::MessageType::kCandidateReply: {
      DEMA_ASSIGN_OR_RETURN(auto reply, CandidateReply::Deserialize(&r));
      return HandleChildReply(reply);
    }
    case net::MessageType::kGammaUpdate:
      return HandleGammaUpdate(msg);
    case net::MessageType::kShutdown:
      return Status::OK();
    default:
      return Status::Internal(std::string("relay got unexpected ") +
                              net::MessageTypeToString(msg.type));
  }
}

Status DemaRelayNode::HandleChildSynopsis(const SynopsisBatch& batch) {
  auto idx_it = child_index_.find(batch.node);
  if (idx_it == child_index_.end()) {
    return Status::InvalidArgument("synopsis from unknown child " +
                                   std::to_string(batch.node));
  }
  PendingUp& w = pending_up_[batch.window_id];
  if (w.child_reported.empty()) {
    w.child_reported.assign(options_.children.size(), false);
  }
  if (w.child_reported[idx_it->second]) {
    return Status::AlreadyExists("duplicate child synopsis");
  }
  w.child_reported[idx_it->second] = true;
  ++w.children_received;
  w.combined_size += batch.local_window_size;
  w.last_close_time_us = std::max(w.last_close_time_us, batch.close_time_us);
  if (w.gamma_used == 0) w.gamma_used = batch.gamma_used;
  for (const SliceSynopsis& s : batch.slices) {
    SliceSynopsis rewritten = s;
    rewritten.node = options_.id;
    rewritten.index = static_cast<uint32_t>(w.slices.size());
    w.slices.push_back(rewritten);
    w.origin.emplace_back(batch.node, s.index);
  }
  if (w.children_received < options_.children.size()) return Status::OK();

  // All children in: forward one combined batch upward and remember the
  // slice origins until the parent's candidate request arrives.
  SynopsisBatch combined;
  combined.window_id = batch.window_id;
  combined.node = options_.id;
  combined.local_window_size = w.combined_size;
  combined.gamma_used = w.gamma_used;
  combined.close_time_us = w.last_close_time_us;
  combined.slices = std::move(w.slices);
  if (!combined.slices.empty()) {
    forwarded_.emplace(batch.window_id, std::move(w.origin));
  }
  pending_up_.erase(batch.window_id);
  return transport_->Send(net::MakeMessage(net::MessageType::kSynopsisBatch,
                                         options_.id, options_.parent, combined));
}

Status DemaRelayNode::HandleParentRequest(const CandidateRequest& request) {
  auto it = forwarded_.find(request.window_id);
  if (it == forwarded_.end()) {
    if (request.slice_indices.empty()) return Status::OK();  // release of nothing
    return Status::NotFound("candidate request for unknown window " +
                            std::to_string(request.window_id));
  }
  const auto& origin = it->second;

  // Split the parent's request by owning child; untouched children with
  // retained windows get empty (release) requests.
  std::map<NodeId, std::vector<uint32_t>> per_child;
  for (uint32_t relay_index : request.slice_indices) {
    if (relay_index >= origin.size()) {
      return Status::OutOfRange("relay slice index out of range");
    }
    auto [child, child_index] = origin[relay_index];
    per_child[child].push_back(child_index);
  }
  // Children that contributed slices this window (they retain events).
  std::map<NodeId, bool> contributed;
  for (const auto& [child, child_index] : origin) {
    (void)child_index;
    contributed[child] = true;
  }

  PendingDown down;
  for (const auto& [child, has] : contributed) {
    (void)has;
    CandidateRequest child_request;
    child_request.window_id = request.window_id;
    auto pc = per_child.find(child);
    if (pc != per_child.end()) {
      // Child slice indices ascend because the parent's indices ascend and
      // re-indexing preserved per-child order — but sort defensively.
      std::sort(pc->second.begin(), pc->second.end());
      child_request.slice_indices = pc->second;
      ++down.expected_replies;
    }
    DEMA_RETURN_NOT_OK(transport_->Send(net::MakeMessage(
        net::MessageType::kCandidateRequest, options_.id, child, child_request)));
  }
  forwarded_.erase(it);
  if (down.expected_replies > 0) {
    pending_down_.emplace(request.window_id, std::move(down));
  }
  return Status::OK();
}

Status DemaRelayNode::HandleChildReply(const CandidateReply& reply) {
  auto it = pending_down_.find(reply.window_id);
  if (it == pending_down_.end()) {
    return Status::NotFound("child reply for unknown window " +
                            std::to_string(reply.window_id));
  }
  PendingDown& down = it->second;
  down.runs.push_back(reply.events);
  if (down.runs.size() < down.expected_replies) return Status::OK();

  // Children's replies are sorted runs over disjoint event sets; merge them
  // so the upward reply is one sorted run, as the parent expects.
  CandidateReply combined;
  combined.window_id = reply.window_id;
  combined.node = options_.id;
  combined.events = stream::MergeSortedRuns(std::move(down.runs));
  pending_down_.erase(it);
  return transport_->Send(net::MakeMessage(net::MessageType::kCandidateReply,
                                         options_.id, options_.parent, combined));
}

Status DemaRelayNode::HandleGammaUpdate(const net::Message& msg) {
  for (NodeId child : options_.children) {
    net::Message forward = msg;
    forward.src = options_.id;
    forward.dst = child;
    DEMA_RETURN_NOT_OK(transport_->Send(std::move(forward)));
  }
  return Status::OK();
}

}  // namespace dema::core
