#include "shard/config.h"

namespace dema::shard {

Status ValidateShardedConfig(const ShardedConfig& config) {
  if (config.num_locals == 0) {
    return Status::InvalidArgument("need at least one keyed local node");
  }
  if (config.num_shards == 0) {
    return Status::InvalidArgument(
        "shard count must be at least 1 (0 is not a silent fallback to an "
        "unsharded topology)");
  }
  if (config.num_keys == 0) {
    return Status::InvalidArgument("key count must be at least 1");
  }
  if (config.workers == 0) {
    return Status::InvalidArgument(
        "worker count must be at least 1 (shards run on the executor pool; "
        "0 would silently clamp to 1 inside exec::ExecutorOptions)");
  }
  if (config.window_len_us <= 0) {
    return Status::InvalidArgument("window length must be positive");
  }
  if (config.quantiles.empty()) {
    return Status::InvalidArgument("need at least one quantile");
  }
  for (double q : config.quantiles) {
    if (!(q > 0.0) || q > 1.0) {
      return Status::InvalidArgument("quantile " + std::to_string(q) +
                                     " outside (0, 1]");
    }
  }
  return Status::OK();
}

std::vector<NodeId> ShardLocalIds(const ShardedConfig& config) {
  std::vector<NodeId> ids;
  ids.reserve(config.num_locals);
  for (size_t i = 0; i < config.num_locals; ++i) {
    ids.push_back(static_cast<NodeId>(i + 1));
  }
  return ids;
}

std::string ShardLabel(uint32_t s) { return "shard=" + std::to_string(s); }

}  // namespace dema::shard
