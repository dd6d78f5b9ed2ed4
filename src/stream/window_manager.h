#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/event.h"
#include "net/codec.h"
#include "net/serializer.h"
#include "stream/sorted_buffer.h"
#include "stream/window.h"

namespace dema::stream {

/// \brief A closed window's contents, as emitted by `WindowManager`.
///
/// `sorted_events` obeys the global event order unless the manager runs in
/// defer-sort mode, in which case `is_sorted` is false and the consumer owns
/// the sort (typically on an executor worker).
struct ClosedWindow {
  WindowId id = 0;
  std::vector<Event> sorted_events;
  bool is_sorted = true;
};

/// \brief Event-time window state machine for one node (tumbling or
/// sliding).
///
/// Routes events into per-window sorted buffers — one buffer per covering
/// window when windows overlap — and closes windows when the event-time
/// watermark passes their end. Late events — event time below the current
/// watermark — are counted and dropped, matching the paper's in-order
/// evaluation setup while keeping the accounting visible.
class WindowManager {
 public:
  /// Creates a manager for tumbling windows of \p window_len_us.
  explicit WindowManager(DurationUs window_len_us,
                         SortMode sort_mode = SortMode::kSortOnClose)
      : WindowManager(WindowSpec{window_len_us, 0}, sort_mode) {}

  /// Creates a manager for the given window shape.
  explicit WindowManager(WindowSpec spec,
                         SortMode sort_mode = SortMode::kSortOnClose)
      : assigner_(spec), tumbling_(spec.IsTumbling()), sort_mode_(sort_mode) {}

  // A move carries the open buffers' map nodes, and with them the cached
  // hot buffer; a copy would leave that pointer in the source's map. A
  // moved-from manager may only be destroyed or assigned to.
  WindowManager(const WindowManager&) = delete;
  WindowManager& operator=(const WindowManager&) = delete;
  WindowManager(WindowManager&&) = default;
  WindowManager& operator=(WindowManager&&) = default;

  /// Routes one event into its window. Returns false iff the event was late
  /// (its window already closed) and therefore dropped. With tumbling
  /// windows, an event for the same window as the previous one goes
  /// straight to that window's buffer, inline: two compares and an append.
  bool OnEvent(const Event& e) {
    if (e.timestamp >= hot_lo_us_ && e.timestamp < hot_end_us_) {
      hot_->Add(e);
      return true;
    }
    return OnEventSlow(e);
  }

  /// Advances the event-time watermark to \p watermark_us and returns every
  /// window whose end is <= the watermark, in window order, with events
  /// sorted. The watermark never moves backwards.
  std::vector<ClosedWindow> AdvanceWatermark(TimestampUs watermark_us);

  /// Closes and returns all remaining windows (end of stream).
  std::vector<ClosedWindow> Flush();

  /// Defer-sort mode: closed windows come back in raw buffer order with
  /// `ClosedWindow::is_sorted` telling the consumer whether a sort is still
  /// owed. Lets an executor-backed node move the close-time sort off the
  /// ingest thread. Off by default (windows come back sorted).
  void set_defer_sort(bool defer) { defer_sort_ = defer; }

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
  /// buffered events (checkpointing support).
  void SerializeTo(net::Writer* w) const;

  /// Replaces this manager's state with a `SerializeTo` snapshot. The window
  /// shape and sort mode must match the snapshot producer's configuration.
  Status RestoreFrom(net::Reader* r);

 private:
  /// `OnEvent` for an event outside the hot range: the late check, the
  /// window lookup, and a new hot range.
  bool OnEventSlow(const Event& e);
  /// Unsets the hot buffer; its range becomes empty.
  void ClearHot() {
    hot_ = nullptr;
    hot_lo_us_ = std::numeric_limits<TimestampUs>::max();
    hot_end_us_ = std::numeric_limits<TimestampUs>::min();
  }
  /// Closes one buffer honoring the defer-sort mode.
  ClosedWindow CloseBuffer(WindowId id, SortedWindowBuffer* buf);

  SlidingWindowAssigner assigner_;
  bool tumbling_;
  SortMode sort_mode_;
  bool defer_sort_ = false;
  std::map<WindowId, SortedWindowBuffer> open_;
  std::vector<WindowId> assign_scratch_;
  /// Tumbling windows only: the open buffer the last event went to, and the
  /// range [lo, end) of timestamps that go straight to it. `lo` is the
  /// later of the window's start and the watermark, which can sit inside
  /// the window, so an event in the range is never late. Null with an empty
  /// range when unset; reset whenever `open_` drops entries or the
  /// watermark moves, so it never dangles.
  SortedWindowBuffer* hot_ = nullptr;
  TimestampUs hot_lo_us_ = std::numeric_limits<TimestampUs>::max();
  TimestampUs hot_end_us_ = std::numeric_limits<TimestampUs>::min();
  /// Events in the last window closed; a new buffer reserves this many.
  size_t last_closed_size_ = 0;
  TimestampUs watermark_us_ = 0;
  uint64_t late_events_ = 0;
};

}  // namespace dema::stream
