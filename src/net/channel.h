#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "common/time.h"
#include "net/message.h"

namespace dema::net {

/// \brief Cumulative traffic counters for a channel or link.
struct TrafficCounters {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  /// Raw events carried inside EventBatch/CandidateReply payloads (the
  /// paper's event-count network-cost metric).
  uint64_t events = 0;

  TrafficCounters& operator+=(const TrafficCounters& o) {
    messages += o.messages;
    bytes += o.bytes;
    events += o.events;
    return *this;
  }
};

/// \brief Thread-safe MPSC message queue with traffic accounting.
///
/// One channel per receiving node ("inbox"). Multiple producers call
/// `Push`; the owning node's run loop calls `Pop`/`TryPop`. A bounded
/// capacity (in messages) provides backpressure: `Push` blocks until space is
/// available. A TCP transport can bound its inboxes (`inbox_capacity`); the
/// in-process fabric's are unbounded.
class Channel {
 public:
  /// Creates a channel; \p capacity 0 means unbounded.
  explicit Channel(size_t capacity = 0) : capacity_(capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues \p m, blocking while the channel is full. Returns false when
  /// the channel was closed (the message is dropped).
  bool Push(Message m);

  /// Enqueues \p m if space is available; never blocks.
  bool TryPush(Message m);

  /// Outcome of a bounded-wait push (`PushFor`).
  enum class PushResult {
    kPushed,  ///< enqueued; *m was consumed
    kFull,    ///< still full after the timeout; *m left intact
    kClosed,  ///< channel closed; *m left intact
  };

  /// Enqueues \p *m, waiting up to \p timeout_us for space. Unlike `Push`,
  /// the wait is bounded — callers that must stay responsive to external
  /// shutdown (e.g. the TCP transport's `Send` watching for a dead I/O
  /// loop) poll in timeout-sized slices. On `kFull`/`kClosed` the message
  /// is left in \p *m so the caller can retry or report it.
  PushResult PushFor(Message* m, DurationUs timeout_us);

  /// Dequeues the next message, blocking until one is available or the
  /// channel is closed-and-drained (returns nullopt then).
  std::optional<Message> Pop();

  /// Dequeues the next message if one is immediately available.
  std::optional<Message> TryPop();

  /// Dequeues with a timeout; returns nullopt on timeout or close-and-drain.
  std::optional<Message> PopFor(DurationUs timeout_us);

  /// Closes the channel: producers fail, consumers drain remaining messages.
  void Close();

  /// True once closed (messages may still be draining).
  bool closed() const;

  /// Messages currently queued.
  size_t size() const;

  /// Total traffic that has passed through (pushed into) this channel.
  TrafficCounters counters() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_push_;
  std::condition_variable cv_pop_;
  std::deque<Message> queue_;
  TrafficCounters counters_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace dema::net
