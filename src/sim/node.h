#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "net/message.h"

namespace dema::sim {

/// \brief One emitted global-window result (all queried quantiles).
struct WindowOutput {
  net::WindowId window_id = 0;
  /// Global window size l_G.
  uint64_t global_size = 0;
  /// Exact (or, for sketch systems, approximate) quantile values, parallel
  /// to the system's configured quantiles.
  std::vector<double> values;
  /// Latency from the last local-window close to result emission.
  DurationUs latency_us = 0;
  /// True when recovery was exhausted and the root emitted a best-effort
  /// result from the data it held instead of the exact quantile.
  bool degraded = false;
  /// Why the window degraded (e.g. "replies_lost"); empty for exact windows.
  std::string degrade_cause;
  /// Degraded windows only: upper bound on how many ranks each emitted value
  /// may be off by, relative to the events the root actually received.
  uint64_t rank_error_bound = 0;
};

/// \brief Sink receiving every global-window result at the root.
using ResultCallback = std::function<void(const WindowOutput&)>;

/// \brief Message handler shared by all simulated nodes.
class NodeLogic {
 public:
  virtual ~NodeLogic() = default;

  /// Handles one message from this node's inbox.
  virtual Status OnMessage(const net::Message& msg) = 0;

  /// The sharded root service's strand barrier: blocks until its shard
  /// strands are idle, so what they sent is on the transport. A no-op for
  /// every other node. The in-process pump calls it after each drain of the
  /// node's inbox.
  virtual Status Quiesce() { return Status::OK(); }
};

/// \brief Edge-side logic: ingests a colocated event stream and talks to the
/// root. Implemented by Dema's local node and every baseline's local side.
class LocalNodeLogic : public NodeLogic {
 public:
  /// Ingests one event from the colocated data-stream generator. Events of
  /// one node arrive in event-time order.
  virtual Status OnEvent(const Event& e) = 0;

  /// Advances the event-time watermark; closes and ships windows whose end
  /// passed. Never moves backwards.
  virtual Status OnWatermark(TimestampUs watermark_us) = 0;

  /// Ends the stream at \p final_watermark_us: every window up to that
  /// instant is closed and shipped (including empty ones, so the root can
  /// align all locals).
  virtual Status OnFinish(TimestampUs final_watermark_us) = 0;
};

/// \brief Root-side logic: aggregates local contributions into global
/// results and reports completion to the driver.
class RootNodeLogic : public NodeLogic {
 public:
  /// Registers the sink for emitted window results.
  virtual void SetResultCallback(ResultCallback cb) = 0;

  /// Number of global windows emitted so far.
  virtual uint64_t windows_emitted() const = 0;

  /// True when no window is partially aggregated (all state resolved).
  virtual bool idle() const = 0;

  /// Deadline tick: drivers call this at deterministic points (sim window
  /// boundaries, run-loop timeouts) so the root can notice stalled windows,
  /// retry candidate requests, and eventually degrade instead of waiting
  /// forever. Default: no deadline machinery.
  virtual Status Tick() { return Status::OK(); }
};

}  // namespace dema::sim
