#pragma once

#include "dema/local_core.h"
#include "net/dedup.h"
#include "sim/node.h"
#include "transport/transport.h"

namespace dema::core {

/// \brief Dema's edge-side node (Sections 3.1, 3.3).
///
/// A thin adapter: the protocol lives in `LocalCore`, run here on one
/// stream, with transport-level dedup, decode and a sink that frames each
/// payload as its own message to the root.
class DemaLocalNode final : public sim::LocalNodeLogic, private LocalSink {
 public:
  /// \p transport and \p clock must outlive the node.
  DemaLocalNode(DemaLocalNodeOptions options, transport::Transport* transport,
                const Clock* clock)
      : transport_(transport), core_(options, clock), stream_(core_.options()) {}

  Status OnEvent(const Event& e) override {
    core_.OnEvent(&stream_, e);
    return Status::OK();
  }
  Status OnWatermark(TimestampUs watermark_us) override {
    return core_.OnWatermark(&stream_, watermark_us, this);
  }
  Status OnFinish(TimestampUs final_watermark_us) override {
    return OnWatermark(final_watermark_us);
  }
  Status OnMessage(const net::Message& msg) override {
    if (dedup_.IsDuplicate(msg.src, msg.seq)) {
      // Transport-level retransmission (same sequence number): absorb it
      // before it reaches the protocol handlers. Root-driven retries use
      // fresh sequence numbers and pass through.
      core_.CountDuplicate();
      return Status::OK();
    }
    return core_.OnPayload(&stream_, msg.type, msg.payload_bytes(), this);
  }

  // The `LocalCore` calls and accessors, on this node's one stream.
  Status ResyncGamma() { return core_.ResyncGamma(this); }
  uint64_t GammaForWindow(net::WindowId id) const {
    return core_.GammaForWindow(stream_, id);
  }
  void Checkpoint(net::Writer* w) const { core_.Checkpoint(stream_, w); }
  Status Restore(net::Reader* r) { return core_.Restore(&stream_, r); }
  size_t retained_windows() const { return stream_.retained_windows(); }
  uint64_t events_ingested() const { return core_.events_ingested(); }
  obs::Registry* registry() const { return core_.registry(); }

 private:
  // LocalSink: each payload leaves as its own message to the root.
  Status SendSynopsis(const SynopsisBatch& batch) override {
    return Send(net::MessageType::kSynopsisBatch, batch);
  }
  Status SendReply(const CandidateReply& reply) override {
    return Send(net::MessageType::kCandidateReply, reply);
  }
  Status SendGammaSync(const GammaSyncRequest& sync) override {
    return Send(net::MessageType::kGammaSyncRequest, sync);
  }
  template <typename Payload>
  Status Send(net::MessageType type, const Payload& payload) {
    return transport_->Send(net::MakeMessage(type, core_.options().id,
                                             core_.options().root_id, payload));
  }

  transport::Transport* transport_;
  LocalCore core_;
  LocalStream stream_;
  /// Transport-level duplicate suppression over message sequence numbers.
  net::SeqDedup dedup_;
};

}  // namespace dema::core
