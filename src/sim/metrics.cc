#include "sim/metrics.h"

#include "common/json.h"

namespace dema::sim {

std::string RunMetricsToJson(const RunMetrics& metrics) {
  JsonWriter network;
  network.Field("messages", metrics.network_total.messages)
      .Field("bytes", metrics.network_total.bytes)
      .Field("events", metrics.network_total.events)
      .Field("simulated_transfer_us", metrics.simulated_transfer_us);

  JsonWriter root;
  root.Field("events_ingested", metrics.events_ingested)
      .Field("windows_emitted", metrics.windows_emitted)
      .Field("wall_seconds", metrics.wall_seconds)
      .Field("throughput_eps", metrics.throughput_eps)
      .Field("sim_throughput_eps", metrics.sim_throughput_eps)
      .Field("root_busy_seconds", metrics.root_busy_seconds)
      .Field("max_local_busy_seconds", metrics.max_local_busy_seconds)
      .Field("bottleneck", metrics.bottleneck)
      .RawField("network", network.Finish());
  if (metrics.registry != nullptr) {
    root.RawField("registry", metrics.registry->ToJson());
  }
  return root.Finish();
}

}  // namespace dema::sim
