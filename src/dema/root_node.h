#pragma once

#include <cstdint>
#include <utility>

#include "dema/root_core.h"
#include "net/dedup.h"
#include "sim/node.h"
#include "transport/transport.h"

namespace dema::core {

/// \brief Dema's root node: runs the identification and calculation steps
/// (Section 3.1) and the adaptive-γ loop (Section 3.3).
///
/// Per global window: collects one synopsis batch from every local node,
/// runs window-cut to pick candidate slices, requests exactly those slices'
/// events, merges the pre-sorted replies with a loser tree, and emits the
/// exact quantile event(s). Windows complete independently, so several can
/// be in flight.
///
/// With `DemaRootNodeOptions::parent` set the node is a relay, the middle
/// tier of a tree (Lee et al.'s multi-hop setting): its "locals" are its
/// children, it speaks the local protocol to its parent, and it keeps the
/// root's dedup, validation and `dema.*` instruments. Relays nest.
///
/// A thin adapter: the protocol lives in `RootCore`, run here on one
/// stream, with transport-level dedup, decode and a transport sink around it.
class DemaRootNode final : public sim::RootNodeLogic {
 public:
  /// \p transport and \p clock must outlive the node.
  DemaRootNode(DemaRootNodeOptions options, transport::Transport* transport,
               const Clock* clock);

  Status OnMessage(const net::Message& msg) override;
  void SetResultCallback(sim::ResultCallback cb) override {
    sink_.callback = std::move(cb);
  }
  uint64_t windows_emitted() const override { return core_.windows_emitted(); }
  bool idle() const override { return stream_.pending.empty(); }

  /// Deadline tick (no-op unless `recovery.deadline_ticks` > 0): checks every
  /// pending window for progress, retries candidate requests with
  /// exponential backoff, and degrades windows whose retry budget ran out — a
  /// faulty run always terminates with no window pending, never a silent
  /// stall.
  Status Tick() override;

  /// Tells the deadline machinery that windows up to \p last exist, even if
  /// no synopsis for them ever arrives (a driver knows the workload horizon;
  /// the root alone cannot distinguish "stream ended" from "everything was
  /// dropped"). No-op unless deadlines are enabled.
  void NoteWindowHorizon(net::WindowId last);

  /// Construction-time option validation result; every OnMessage returns
  /// this error while it is not OK.
  const Status& init_status() const { return core_.init_status(); }

  /// The registry this node records into (the options-provided one, or the
  /// node's own private registry).
  obs::Registry* registry() const { return core_.registry(); }

  /// The slice factor the global controller currently prescribes.
  uint64_t current_gamma() const { return stream_.gamma.current(); }

  /// The per-node slice factor currently prescribed for \p node (falls back
  /// to the global factor when per-node mode is off or unobserved).
  uint64_t current_gamma_for(NodeId node) const {
    return core_.CurrentGammaFor(stream_, node);
  }

 private:
  /// Frames the core's traffic as messages on the transport and hands
  /// results to the result callback.
  class TransportSink final : public RootSink {
   public:
    TransportSink(NodeId id, transport::Transport* transport)
        : id_(id), transport_(transport) {}
    Status SendRequest(NodeId dst, const CandidateRequest& req) override;
    Status SendGamma(NodeId dst, const GammaUpdate& update) override;
    Status SendSynopsis(NodeId dst, const SynopsisBatch& batch) override;
    Status SendReply(NodeId dst, const CandidateReply& reply) override;
    void Emit(const sim::WindowOutput& out) override {
      if (callback) callback(out);
    }

    sim::ResultCallback callback;

   private:
    NodeId id_;
    transport::Transport* transport_;
  };

  RootCore core_;
  RootStream stream_;
  /// Transport-level duplicate suppression over message sequence numbers.
  net::SeqDedup dedup_;
  TransportSink sink_;
};

}  // namespace dema::core
