#include "net/network.h"

#include "common/crc32c.h"
#include "net/keyed.h"
#include "net/serializer.h"

namespace dema::net {

Network::Network(const Clock* clock) : Network(clock, Options()) {}

Network::Network(const Clock* clock, Options options)
    : clock_(clock),
      options_(options),
      owned_registry_(options.registry == nullptr ? new obs::Registry() : nullptr),
      registry_(options.registry == nullptr ? owned_registry_.get()
                                            : options.registry),
      sent_(registry_, "transport.sent"),
      dup_sent_(registry_, "net.duplicates"),
      c_dropped_(registry_->GetCounter("net.dropped")),
      c_delayed_(registry_->GetCounter("net.delayed")),
      c_corrupted_(registry_->GetCounter("net.corrupted")),
      c_corrupted_frame_(registry_->GetCounter("net.corrupted{layer=frame}")),
      c_corrupted_payload_(
          registry_->GetCounter("net.corrupted{layer=payload}")),
      c_sim_ticks_(registry_->GetCounter("sim.ticks")),
      c_sim_events_(registry_->GetCounter("sim.events")),
      fault_rng_(options.fault_seed) {}

Status Network::RegisterNode(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = inboxes_.emplace(id, std::make_unique<Channel>());
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("node " + std::to_string(id) +
                                 " already registered");
  }
  order_.push_back(id);
  return Status::OK();
}

Status Network::UnregisterNode(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inboxes_.find(id);
  if (it == inboxes_.end()) {
    return Status::NotFound("node " + std::to_string(id) + " not registered");
  }
  it->second->Close();
  inboxes_.erase(it);
  for (auto oit = order_.begin(); oit != order_.end(); ++oit) {
    if (*oit == id) {
      order_.erase(oit);
      break;
    }
  }
  return Status::OK();
}

Channel* Network::Inbox(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inboxes_.find(id);
  return it == inboxes_.end() ? nullptr : it->second.get();
}

void Network::ChargeLocked(const Message& m) {
  sent_.Charge(m.src, m.dst, m.type, m.WireBytes(), m.event_count);
  transfer_us_[MakeKey(m.src, m.dst)] +=
      options_.link_model.TransferTimeUs(m.WireBytes());
}

void Network::CountDropLocked(const char* cause) {
  c_dropped_->Increment();
  registry_->GetCounter(std::string("net.dropped{cause=") + cause + "}")
      ->Increment();
}

bool Network::CorruptFrameLocked(Message* m) {
  // The injectors mutate payload bytes in place; a borrowed arena view may
  // be shared with other in-flight messages, so force ownership first.
  m->EnsureOwnedPayload();
  // Reconstruct the bytes a framing sender would have written (the TCP
  // transport's header layout) and the CRC it would have framed, so the
  // drop decision below is a real checksum verification, not an assumption.
  Writer w;
  w.PutU16(static_cast<uint16_t>(m->type));
  w.PutU32(m->src);
  w.PutU32(m->dst);
  w.PutU32(m->seq);
  w.PutU32(static_cast<uint32_t>(m->payload.size()));
  std::vector<uint8_t> header = w.TakeBuffer();
  const uint32_t framed_crc =
      ExtendCrc32c(ExtendCrc32c(0, header.data(), header.size()),
                   m->payload.data(), m->payload.size());

  // Flip one random byte anywhere in the frame: header, payload, or the
  // 4-byte trailer itself.
  const size_t frame_size =
      header.size() + m->payload.size() + sizeof(uint32_t);
  const size_t at = static_cast<size_t>(
      fault_rng_.UniformInt(0, static_cast<int64_t>(frame_size - 1)));
  const uint8_t mask = static_cast<uint8_t>(fault_rng_.UniformInt(1, 255));
  uint32_t trailer_crc = framed_crc;
  if (at < header.size()) {
    header[at] ^= mask;
  } else if (at < header.size() + m->payload.size()) {
    m->payload[at - header.size()] ^= mask;
  } else {
    trailer_crc ^= static_cast<uint32_t>(mask)
                   << (8 * (at - header.size() - m->payload.size()));
  }
  const uint32_t recomputed =
      ExtendCrc32c(ExtendCrc32c(0, header.data(), header.size()),
                   m->payload.data(), m->payload.size());
  if (recomputed != trailer_crc) {
    c_corrupted_->Increment();
    c_corrupted_frame_->Increment();
    return true;  // receiver detects the flip and drops the frame
  }
  return false;  // unreachable for single-byte flips (CRC32C property)
}

void Network::MaybeTamperLocked(Message* m) {
  if (tampering_.empty() || !tampering_.count(m->src)) return;
  // A tampering local corrupts its own protocol reports; both payloads
  // carry the declared node id at offset 8 (after the u64 window id). Keyed
  // envelopes are tampered in their first entry's inner payload — exactly
  // one key's traffic — at the same inner offset, so per-shard validation
  // catches it entry-locally.
  size_t base = 0;
  if (m->type == MessageType::kShardSynopsisBatch ||
      m->type == MessageType::kShardCandidateReply) {
    base = kKeyedFirstPayloadOffset;
  } else if (m->type != MessageType::kSynopsisBatch &&
             m->type != MessageType::kCandidateReply) {
    return;
  }
  const size_t kNodeFieldOffset = base + sizeof(uint64_t);
  if (m->payload_size() < kNodeFieldOffset + sizeof(uint32_t)) return;
  if (options_.tamper_prob < 1.0 &&
      !fault_rng_.Bernoulli(options_.tamper_prob)) {
    return;
  }
  // Flip a bit of the declared node id. The message re-frames with a valid
  // CRC (the "sender" computes it over the tampered bytes), so nothing below
  // the root's validation pass can tell it apart from an honest message.
  m->EnsureOwnedPayload();
  m->payload[kNodeFieldOffset] ^= 0x01;
  c_corrupted_->Increment();
  c_corrupted_payload_->Increment();
}

std::vector<std::pair<Channel*, Message>> Network::CollectDueLocked(
    uint64_t horizon) {
  std::vector<std::pair<Channel*, Message>> out;
  while (!delayed_.empty() && delayed_.begin()->first <= horizon) {
    Message held = std::move(delayed_.begin()->second);
    delayed_.erase(delayed_.begin());
    // The link may have gone down while the message was in flight.
    if (down_.count(held.src) || down_.count(held.dst)) {
      CountDropLocked("node_down");
      continue;
    }
    if (partitions_.count(MakeKey(held.src, held.dst))) {
      CountDropLocked("partition");
      continue;
    }
    auto it = inboxes_.find(held.dst);
    if (it == inboxes_.end()) {
      // The destination was unregistered while the message was in flight: it
      // can never be delivered, which is a drop, not a silent vanish.
      CountDropLocked("unknown_dest");
      continue;
    }
    out.emplace_back(it->second.get(), std::move(held));
  }
  return out;
}

Status Network::Send(Message m) {
  // One stamping point for every path — inline, delayed, duplicated, or
  // event-queued — so latency accounting is consistent across them.
  m.send_time_us = clock_->NowUs();
  const bool event_mode = options_.delivery == DeliveryMode::kEvent;
  Channel* inbox = nullptr;
  bool duplicate = false;
  bool delayed = false;
  bool dropped = false;
  std::vector<std::pair<Channel*, Message>> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inboxes_.find(m.dst);
    if (it == inboxes_.end()) {
      return Status::NotFound("unknown destination node " + std::to_string(m.dst));
    }
    inbox = it->second.get();
    m.seq = ++next_seq_[MakeKey(m.src, m.dst)];
    if (!event_mode) {
      // Inline mode's virtual clock ticks once per send; in event mode it
      // follows the tick queue instead (sends between ticks are concurrent).
      virtual_now_us_ +=
          std::max<uint64_t>(1, options_.link_model.base_latency_us);
    }
    // A tampering sender corrupts its payload before the message ever
    // reaches the wire; the frame (and its checksum) is built over the
    // already-tampered bytes, so the loss/corruption pipeline below treats
    // it like any honest message.
    MaybeTamperLocked(&m);
    // Fault pipeline. Dropped messages return OK: a lost datagram looks like
    // a successful send. Loss is charged to the wire (the message travelled
    // before it was lost); partition/node-down drops never leave the sender.
    // The draw order is identical in both delivery modes, so a fault seed
    // replays the same schedule whether delivery is inline or event-driven.
    if (down_.count(m.src) || down_.count(m.dst)) {
      CountDropLocked("node_down");
      dropped = true;
    } else if (partitions_.count(MakeKey(m.src, m.dst))) {
      CountDropLocked("partition");
      dropped = true;
    } else if (options_.drop_prob > 0 &&
               fault_rng_.Bernoulli(options_.drop_prob)) {
      ChargeLocked(m);
      CountDropLocked("loss");
      dropped = true;
    } else if (options_.corrupt_prob > 0 &&
               fault_rng_.Bernoulli(options_.corrupt_prob) &&
               CorruptFrameLocked(&m)) {
      // Wire-level byte flip caught by the frame checksum: the receiver
      // drops the frame, so from the protocol's view this is loss — the
      // deadline/retry machinery recovers it like any other drop.
      ChargeLocked(m);
      CountDropLocked("corrupt");
      dropped = true;
    } else {
      ChargeLocked(m);
      if (options_.duplicate_prob > 0 &&
          fault_rng_.Bernoulli(options_.duplicate_prob)) {
        // Retransmission: the wire carries the message again.
        ChargeLocked(m);
        dup_sent_.Charge(m.src, m.dst, m.type, m.WireBytes(), m.event_count);
        duplicate = true;
      }
      uint64_t extra = 0;
      if (options_.delay_us_max > 0 &&
          fault_rng_.Bernoulli(options_.delay_prob)) {
        // Hold the original back; an immediate duplicate (if any) overtakes
        // it, which is exactly the reorder at-least-once transports exhibit.
        extra = static_cast<uint64_t>(fault_rng_.UniformInt(
            1, static_cast<int64_t>(options_.delay_us_max)));
        c_delayed_->Increment();
        delayed = true;
      }
      if (event_mode) {
        // The duplicate ships undelayed, so it overtakes a delayed original
        // on the queue; with equal due times FIFO keeps it first, matching
        // inline-mode delivery order.
        if (duplicate) EnqueueEventLocked(m, 0);
        EnqueueEventLocked(std::move(m), extra);
      } else if (delayed) {
        delayed_.emplace(virtual_now_us_ + extra, m);
      }
    }
    if (!event_mode) due = CollectDueLocked(virtual_now_us_);
  }
  if (event_mode) return Status::OK();
  // Push outside the lock, so concurrent senders hold the fabric mutex only
  // for the bookkeeping above. A closed inbox fails only its own delivery — the rest of the due batch
  // still reaches its healthy destinations before the error is reported.
  Status push_error = Status::OK();
  auto push = [&push_error](Channel* ch, Message&& msg) {
    if (!ch->Push(std::move(msg)) && push_error.ok()) {
      push_error = Status::NetworkError("inbox of node closed");
    }
  };
  for (auto& [ch, held] : due) push(ch, std::move(held));
  if (duplicate) {
    Message copy = m;
    push(inbox, std::move(copy));
  }
  if (!dropped && !delayed) push(inbox, std::move(m));
  return push_error;
}

void Network::Partition(NodeId src, NodeId dst) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.insert(MakeKey(src, dst));
}

void Network::Heal(NodeId src, NodeId dst) {
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.erase(MakeKey(src, dst));
}

void Network::SetNodeDown(NodeId id, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  if (down) {
    down_.insert(id);
  } else {
    down_.erase(id);
  }
}

void Network::SetNodeTamper(NodeId id, bool tampering) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tampering) {
    tampering_.insert(id);
  } else {
    tampering_.erase(id);
  }
}

void Network::EnqueueEventLocked(Message m, uint64_t extra_delay_us) {
  HopEvent ev;
  // An injected delay is queueing before the first hop starts, not wire time.
  ev.hop_start_us = virtual_now_us_ + extra_delay_us;
  uint64_t first_hop_us = 0;
  if (options_.topology != nullptr) {
    Status st = options_.topology->Route(m.src, m.dst, &ev.path);
    if (!st.ok() || ev.path.empty()) {
      // A registered node outside the topology's endpoint range has no
      // route; the message can never arrive anywhere.
      CountDropLocked("no_route");
      return;
    }
    first_hop_us =
        options_.topology->link(ev.path[0]).spec.HopTimeUs(m.WireBytes());
  } else {
    first_hop_us = options_.link_model.HopTimeUs(m.WireBytes());
  }
  ev.msg = std::move(m);
  events_.Push(ev.hop_start_us + first_hop_us, std::move(ev));
}

obs::Histogram* Network::HopHistogramLocked(tick::LinkTier tier) {
  obs::Histogram*& slot = hop_latency_[static_cast<size_t>(tier)];
  if (slot == nullptr) {
    slot = registry_->GetHistogram(std::string("sim.hop_latency_us{tier=") +
                                   tick::LinkTierName(tier) + "}");
  }
  return slot;
}

uint64_t Network::AdvanceEvents() {
  std::vector<std::pair<Channel*, Message>> deliver;
  uint64_t processed = 0;
  uint64_t closed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.empty()) return 0;
    const uint64_t now = events_.NextDue();
    if (now > virtual_now_us_) virtual_now_us_ = now;
    c_sim_ticks_->Increment();
    while (!events_.empty() && events_.NextDue() == now) {
      HopEvent ev = events_.Pop();
      ++processed;
      c_sim_events_->Increment();
      if (!ev.path.empty()) {
        const tick::Link& crossed =
            options_.topology->link(ev.path[ev.next_hop]);
        HopHistogramLocked(crossed.tier)->Record(now - ev.hop_start_us);
        if (ev.next_hop + 1 < ev.path.size()) {
          // Switch hop: forward on the next link. Transfer times are >= 1us,
          // so the re-enqueued event lands strictly after this tick and the
          // batch loop terminates.
          ++ev.next_hop;
          ev.hop_start_us = now;
          uint64_t t = options_.topology->link(ev.path[ev.next_hop])
                           .spec.HopTimeUs(ev.msg.WireBytes());
          events_.Push(now + t, std::move(ev));
          continue;
        }
      }
      // Final hop: the *delivery-time* fault state decides, exactly like the
      // inline path's delayed-redelivery checks.
      Message& m = ev.msg;
      if (down_.count(m.src) || down_.count(m.dst)) {
        CountDropLocked("node_down");
        continue;
      }
      if (partitions_.count(MakeKey(m.src, m.dst))) {
        CountDropLocked("partition");
        continue;
      }
      auto it = inboxes_.find(m.dst);
      if (it == inboxes_.end()) {
        CountDropLocked("unknown_dest");
        continue;
      }
      deliver.emplace_back(it->second.get(), std::move(m));
    }
  }
  // Push outside the lock, mirroring the inline path.
  for (auto& [ch, msg] : deliver) {
    if (!ch->Push(std::move(msg))) ++closed;
  }
  if (closed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t i = 0; i < closed; ++i) CountDropLocked("closed_inbox");
  }
  return processed;
}

size_t Network::pending_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t Network::virtual_now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_us_;
}

uint64_t Network::event_queue_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.peak_size();
}

uint64_t Network::FlushDelayed() {
  std::vector<std::pair<Channel*, Message>> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    due = CollectDueLocked(UINT64_MAX);
  }
  uint64_t delivered = 0;
  for (auto& [ch, held] : due) {
    if (ch->Push(std::move(held))) ++delivered;
  }
  return delivered;
}

size_t Network::delayed_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delayed_.size();
}

uint64_t Network::duplicates_injected() const {
  uint64_t total = 0;
  for (const auto& [type, counters] : dup_sent_.ByType()) {
    total += counters.messages;
  }
  return total;
}

Network::LinkStats Network::GetLinkStats(NodeId src, NodeId dst) const {
  auto links = sent_.Links();
  auto it = links.find(MakeKey(src, dst));
  LinkStats out;
  if (it != links.end()) out.counters = it->second;
  std::lock_guard<std::mutex> lock(mu_);
  auto tit = transfer_us_.find(MakeKey(src, dst));
  if (tit != transfer_us_.end()) out.simulated_transfer_us = tit->second;
  return out;
}

std::map<std::pair<NodeId, NodeId>, Network::LinkStats> Network::AllLinks() const {
  std::map<std::pair<NodeId, NodeId>, LinkStats> out;
  for (const auto& [key, counters] : sent_.Links()) out[key].counters = counters;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, us] : transfer_us_) out[key].simulated_transfer_us = us;
  return out;
}

transport::LinkTrafficMap Network::LinkTraffic() const { return sent_.Links(); }

Network::LinkStats Network::TotalStats() const {
  LinkStats total;
  for (const auto& [key, stats] : AllLinks()) {
    (void)key;
    total.counters += stats.counters;
    total.simulated_transfer_us += stats.simulated_transfer_us;
  }
  return total;
}

std::map<MessageType, TrafficCounters> Network::StatsByType() const {
  return sent_.ByType();
}

void Network::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, inbox] : inboxes_) {
    (void)id;
    inbox->Close();
  }
}

std::vector<NodeId> Network::nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

}  // namespace dema::net
