#pragma once

#include <cstdint>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "net/codec.h"
#include "transport/transport.h"

namespace dema::sim {

/// \brief Configuration of one data-stream (sensor) node — the innermost
/// tier of the paper's Figure 1 topology.
struct StreamNodeOptions {
  /// This sensor's node id.
  NodeId id = 0;
  /// The local (edge) node this sensor reports to.
  NodeId parent = 0;
  /// Events per EventBatch message on the sensor -> edge link. Sensors are
  /// weak devices with small buffers; the default keeps framing overhead
  /// around 1% without batching whole windows.
  size_t batch_size = 256;
  /// Wire encoding for the sensor's event batches.
  net::EventCodec codec = net::EventCodec::kFixed;
};

/// \brief A data-stream node: ships raw sensor events to its parent local
/// node over the network (Section 2.3, tier (i)).
///
/// Events travel in small `EventBatch` messages; a `TimeAdvance` marker
/// follows each shipped interval so the edge can advance its watermark (the
/// minimum across its sensors). The driver generates each sensor's readings
/// and ships them interval by interval.
class StreamNode {
 public:
  /// \p transport must outlive the node.
  StreamNode(StreamNodeOptions options, transport::Transport* transport);

  /// Ships \p events — one interval's readings, in event-time order — in
  /// batches, then a TimeAdvance(\p watermark_us) marker.
  Status Ship(const std::vector<Event>& events, TimestampUs watermark_us);

  /// Ships the final TimeAdvance marker (end of stream).
  Status Finish(TimestampUs final_watermark_us);

  /// This node's id.
  NodeId id() const { return options_.id; }

 private:
  Status SendTimeAdvance(TimestampUs watermark_us, bool final_marker);

  StreamNodeOptions options_;
  transport::Transport* transport_;
};

}  // namespace dema::sim
