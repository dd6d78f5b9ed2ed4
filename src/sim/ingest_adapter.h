#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/message.h"
#include "sim/node.h"

namespace dema::sim {

/// \brief Turns any `LocalNodeLogic` into a network-fed edge node.
///
/// In the tiered topology (paper Figure 1), local nodes receive raw events
/// from their data-stream nodes over the network instead of from an
/// in-process generator. The adapter:
///
///  * unpacks `EventBatch` messages from registered stream-node children and
///    feeds each event to the wrapped logic's `OnEvent`;
///  * tracks each child's `TimeAdvance` progress and forwards the *minimum*
///    across children as the wrapped logic's watermark — the standard
///    multi-source watermark rule, which keeps windows correct even when
///    sensors drift apart in event time;
///  * applies each child's batches and time advances in the child's send
///    order (the per-link `seq`), holding early arrivals back and dropping
///    duplicates, so a reordering fabric cannot advance the watermark past
///    events still in flight. Unsequenced messages (seq 0) apply on arrival;
///    the sensor link is assumed lossless, as over TCP;
///  * passes every other message (candidate requests, γ updates, ...)
///    straight through to the wrapped logic.
///
/// Driver-side `OnEvent`/`OnWatermark` calls are forwarded unchanged, so an
/// adapted node still works in the flat (generator-fed) setup. A sensor-fed
/// edge must take its clock only from its sensors: a driver watermark would
/// close a window before the queued batches are applied, dropping them as
/// late.
class IngestAdapter final : public LocalNodeLogic {
 public:
  /// Wraps \p inner; \p children are the stream-node ids feeding this edge.
  IngestAdapter(std::unique_ptr<LocalNodeLogic> inner,
                std::vector<NodeId> children);

  Status OnEvent(const Event& e) override { return inner_->OnEvent(e); }
  Status OnWatermark(TimestampUs watermark_us) override {
    return inner_->OnWatermark(watermark_us);
  }
  Status OnFinish(TimestampUs final_watermark_us) override;
  Status OnMessage(const net::Message& msg) override;

  /// Events ingested from stream-node batches.
  uint64_t events_ingested() const { return events_ingested_; }
  /// The wrapped logic (tests).
  LocalNodeLogic* inner() { return inner_.get(); }

 private:
  /// Per-child ingest state.
  struct Child {
    TimestampUs watermark = 0;
    /// Sequence number of the next message to apply.
    uint32_t next_seq = 1;
    /// Messages that arrived ahead of `next_seq`, keyed by sequence number.
    std::map<uint32_t, net::Message> held;
  };

  /// Applies one batch or time advance of \p child.
  Status Apply(Child* child, const net::Message& msg);

  /// Minimum watermark across children (0 until every child reported).
  TimestampUs MinChildWatermark() const;

  std::unique_ptr<LocalNodeLogic> inner_;
  std::map<NodeId, Child> children_;
  uint64_t events_ingested_ = 0;
};

}  // namespace dema::sim
