#include "dema/root_node.h"

namespace dema::core {

Status DemaRootNode::TransportSink::SendRequest(NodeId dst,
                                                const CandidateRequest& req) {
  return transport_->Send(
      net::MakeMessage(net::MessageType::kCandidateRequest, id_, dst, req));
}

Status DemaRootNode::TransportSink::SendGamma(NodeId dst,
                                              const GammaUpdate& update) {
  return transport_->Send(
      net::MakeMessage(net::MessageType::kGammaUpdate, id_, dst, update));
}

Status DemaRootNode::TransportSink::SendSynopsis(NodeId dst,
                                                 const SynopsisBatch& batch) {
  return transport_->Send(
      net::MakeMessage(net::MessageType::kSynopsisBatch, id_, dst, batch));
}

Status DemaRootNode::TransportSink::SendReply(NodeId dst,
                                              const CandidateReply& reply) {
  return transport_->Send(
      net::MakeMessage(net::MessageType::kCandidateReply, id_, dst, reply));
}

DemaRootNode::DemaRootNode(DemaRootNodeOptions options,
                           transport::Transport* transport, const Clock* clock)
    : core_(std::move(options), clock),
      stream_(core_.NewStream()),
      sink_(core_.options().id, transport) {}

Status DemaRootNode::OnMessage(const net::Message& msg) {
  if (!core_.init_status().ok()) return core_.init_status();
  if (dedup_.IsDuplicate(msg.src, msg.seq)) {
    // Transport-level retransmission (same sequence number): absorb it
    // before it reaches the protocol handlers at all.
    core_.CountDuplicate();
    return Status::OK();
  }
  return core_.OnPayload(&stream_, msg.type, msg.src, msg.payload_bytes(),
                         &sink_);
}

Status DemaRootNode::Tick() {
  if (!core_.init_status().ok()) return core_.init_status();
  if (!core_.BeginTick()) return Status::OK();
  return core_.Tick(&stream_, &sink_);
}

void DemaRootNode::NoteWindowHorizon(net::WindowId last) {
  core_.NoteWindowHorizon(&stream_, last);
}

}  // namespace dema::core
