#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/event.h"
#include "net/codec.h"
#include "net/serializer.h"
#include "stream/window.h"

namespace dema::stream {

/// \brief A closed window's contents, as emitted by `WindowManager`: its
/// events in arrival order. The consumer orders them — a Dema local with
/// `OrderSlices`, the Desis-mode forwarder with `SortEvents`.
struct ClosedWindow {
  WindowId id = 0;
  std::vector<Event> events;
};

/// \brief Event-time window state machine for one node (tumbling or
/// sliding).
///
/// Appends events to per-window vectors — one per covering window when
/// windows overlap — and closes windows when the event-time watermark passes
/// their end. Late events — event time below the current watermark — are
/// counted and dropped, matching the paper's in-order evaluation setup while
/// keeping the accounting visible.
class WindowManager {
 public:
  /// Creates a manager for tumbling windows of \p window_len_us.
  explicit WindowManager(DurationUs window_len_us)
      : WindowManager(WindowSpec{window_len_us, 0}) {}

  /// Creates a manager for the given window shape.
  explicit WindowManager(WindowSpec spec)
      : assigner_(spec), tumbling_(spec.IsTumbling()) {}

  // A move carries the open windows' map nodes, and with them the cached
  // hot window; a copy would leave that pointer in the source's map. A
  // moved-from manager may only be destroyed or assigned to.
  WindowManager(const WindowManager&) = delete;
  WindowManager& operator=(const WindowManager&) = delete;
  WindowManager(WindowManager&&) = default;
  WindowManager& operator=(WindowManager&&) = default;

  /// Routes one event into its window. Returns false iff the event was late
  /// (its window already closed) and therefore dropped. With tumbling
  /// windows, an event for the same window as the previous one goes
  /// straight to that window's vector, inline: two compares and an append.
  bool OnEvent(const Event& e) {
    if (e.timestamp >= hot_lo_us_ && e.timestamp < hot_end_us_) {
      Append(hot_, e);
      return true;
    }
    return OnEventSlow(e);
  }

  /// Advances the event-time watermark to \p watermark_us and returns every
  /// window whose end is <= the watermark, in window order, with events in
  /// arrival order. The watermark never moves backwards; a final watermark
  /// at the end of the stream closes every window.
  std::vector<ClosedWindow> AdvanceWatermark(TimestampUs watermark_us);

  /// Current event-time watermark.
  TimestampUs watermark_us() const { return watermark_us_; }

  /// Number of late (dropped) events so far.
  uint64_t late_events() const { return late_events_; }

  /// Number of currently open windows.
  size_t open_windows() const { return open_.size(); }

  /// Events buffered across all open windows.
  uint64_t buffered_events() const;

  /// The window assigner in use.
  const SlidingWindowAssigner& assigner() const { return assigner_; }

  /// Serializes the watermark, late-event counter, and every open window's
  /// events in arrival order (checkpointing support).
  void SerializeTo(net::Writer* w) const;

  /// Replaces this manager's state with a `SerializeTo` snapshot. The window
  /// shape must match the snapshot producer's configuration.
  Status RestoreFrom(net::Reader* r);

 private:
  /// `OnEvent` for an event outside the hot range: the late check, the
  /// window lookup, and a new hot range.
  bool OnEventSlow(const Event& e);
  /// Appends \p e to \p window. An append into spare capacity is small
  /// enough to inline into the ingest path; growth stays out of line.
  static void Append(std::vector<Event>* window, const Event& e) {
    if (window->size() < window->capacity()) [[likely]] {
      // What the test above proved, in the terms `push_back` tests, so its
      // growth path and the registers that path saves drop out.
      if (window->end() == window->begin() + window->capacity()) {
        __builtin_unreachable();
      }
      window->push_back(e);
    } else {
      Grow(window, e);
    }
  }
  /// `Append` when \p window is full.
  static void Grow(std::vector<Event>* window, const Event& e);
  /// Unsets the hot window; its range becomes empty.
  void ClearHot() {
    hot_ = nullptr;
    hot_lo_us_ = std::numeric_limits<TimestampUs>::max();
    hot_end_us_ = std::numeric_limits<TimestampUs>::min();
  }

  SlidingWindowAssigner assigner_;
  bool tumbling_;
  std::map<WindowId, std::vector<Event>> open_;
  std::vector<WindowId> assign_scratch_;
  /// Tumbling windows only: the open window the last event went to, and the
  /// range [lo, end) of timestamps that go straight to it. `lo` is the
  /// later of the window's start and the watermark, which can sit inside
  /// the window, so an event in the range is never late. Null with an empty
  /// range when unset; reset whenever `open_` drops entries or the
  /// watermark moves, so it never dangles.
  std::vector<Event>* hot_ = nullptr;
  TimestampUs hot_lo_us_ = std::numeric_limits<TimestampUs>::max();
  TimestampUs hot_end_us_ = std::numeric_limits<TimestampUs>::min();
  /// Events in the last window closed; a new window reserves this many.
  size_t last_closed_size_ = 0;
  TimestampUs watermark_us_ = 0;
  uint64_t late_events_ = 0;
};

}  // namespace dema::stream
