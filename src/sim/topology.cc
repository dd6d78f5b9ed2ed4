#include "sim/topology.h"

#include "baselines/central_root.h"
#include "baselines/forwarding_local.h"
#include "baselines/qdigest_agg.h"
#include "baselines/tdigest_agg.h"
#include "dema/local_node.h"
#include "dema/root_node.h"

namespace dema::sim {

const char* SystemKindToString(SystemKind kind) {
  switch (kind) {
    case SystemKind::kDema:
      return "Dema";
    case SystemKind::kCentralExact:
      return "Scotty";
    case SystemKind::kDesisMerge:
      return "Desis";
    case SystemKind::kTDigestCentral:
      return "Tdigest";
    case SystemKind::kTDigestDecentral:
      return "Tdigest-dec";
    case SystemKind::kQDigest:
      return "Qdigest";
  }
  return "?";
}

Status ValidateSystemConfig(const SystemConfig& config) {
  if (config.num_locals == 0) {
    return Status::InvalidArgument("need at least one local node");
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
  stream::WindowSpec spec{config.window_len_us, config.window_slide_us};
  if (!spec.IsTumbling() && config.kind != SystemKind::kDema) {
    return Status::NotImplemented(
        "sliding windows are only supported by the Dema system");
  }
  return Status::OK();
}

std::vector<NodeId> LocalIds(const SystemConfig& config) {
  std::vector<NodeId> ids;
  ids.reserve(config.num_locals);
  for (size_t i = 0; i < config.num_locals; ++i) {
    ids.push_back(static_cast<NodeId>(i + 1));
  }
  return ids;
}

Result<std::unique_ptr<RootNodeLogic>> BuildRootLogic(
    const SystemConfig& config, transport::Transport* transport,
    const Clock* clock) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));
  const NodeId root_id = 0;
  const std::vector<NodeId> locals = LocalIds(config);
  switch (config.kind) {
    case SystemKind::kDema: {
      core::DemaRootNodeOptions opts;
      opts.id = root_id;
      opts.locals = locals;
      opts.quantiles = config.quantiles;
      opts.initial_gamma = config.gamma;
      opts.adaptive_gamma = config.adaptive_gamma;
      opts.per_node_gamma = config.per_node_gamma;
      opts.use_naive_selection = config.naive_selection;
      opts.recovery = config.recovery;
      opts.registry = config.registry;
      opts.tracer = config.tracer;
      return std::unique_ptr<RootNodeLogic>(
          std::make_unique<core::DemaRootNode>(opts, transport, clock));
    }
    case SystemKind::kCentralExact:
    case SystemKind::kDesisMerge: {
      baselines::CollectingRootOptions opts;
      opts.id = root_id;
      opts.locals = locals;
      opts.quantiles = config.quantiles;
      if (config.kind == SystemKind::kCentralExact) {
        return std::unique_ptr<RootNodeLogic>(
            std::make_unique<baselines::CentralExactRootNode>(opts, transport,
                                                              clock));
      }
      return std::unique_ptr<RootNodeLogic>(
          std::make_unique<baselines::DesisMergeRootNode>(opts, transport,
                                                          clock));
    }
    case SystemKind::kTDigestCentral:
    case SystemKind::kTDigestDecentral: {
      baselines::TDigestOptions opts;
      opts.id = root_id;
      opts.root_id = root_id;
      opts.locals = locals;
      opts.quantiles = config.quantiles;
      opts.window_len_us = config.window_len_us;
      opts.compression = config.tdigest_compression;
      opts.mode = config.kind == SystemKind::kTDigestCentral
                      ? baselines::TDigestMode::kCentralized
                      : baselines::TDigestMode::kDecentralized;
      return std::unique_ptr<RootNodeLogic>(
          std::make_unique<baselines::TDigestRootNode>(opts, transport, clock));
    }
    case SystemKind::kQDigest: {
      baselines::QDigestOptions opts;
      opts.id = root_id;
      opts.root_id = root_id;
      opts.locals = locals;
      opts.quantiles = config.quantiles;
      opts.window_len_us = config.window_len_us;
      opts.domain_lo = config.qdigest_lo;
      opts.domain_hi = config.qdigest_hi;
      opts.universe_bits = config.qdigest_bits;
      opts.k = config.qdigest_k;
      return std::unique_ptr<RootNodeLogic>(
          std::make_unique<baselines::QDigestRootNode>(opts, transport, clock));
    }
  }
  return Status::InvalidArgument("unknown system kind");
}

Result<std::unique_ptr<LocalNodeLogic>> BuildLocalLogic(
    const SystemConfig& config, NodeId id, transport::Transport* transport,
    const Clock* clock) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));
  const NodeId root_id = 0;
  if (id == root_id || id > config.num_locals) {
    return Status::InvalidArgument("local node id " + std::to_string(id) +
                                   " out of range 1.." +
                                   std::to_string(config.num_locals));
  }
  switch (config.kind) {
    case SystemKind::kDema: {
      core::DemaLocalNodeOptions opts;
      opts.id = id;
      opts.root_id = root_id;
      opts.window_len_us = config.window_len_us;
      opts.window_slide_us = config.window_slide_us;
      opts.initial_gamma = config.gamma;
      opts.reply_codec = config.wire_codec;
      opts.registry = config.registry;
      return std::unique_ptr<LocalNodeLogic>(
          std::make_unique<core::DemaLocalNode>(opts, transport, clock));
    }
    case SystemKind::kCentralExact:
    case SystemKind::kDesisMerge:
    case SystemKind::kTDigestCentral: {
      baselines::ForwardingLocalNodeOptions opts;
      opts.id = id;
      opts.root_id = root_id;
      opts.window_len_us = config.window_len_us;
      opts.batch_size = config.batch_size;
      opts.sort_locally = config.kind == SystemKind::kDesisMerge;
      opts.codec = config.wire_codec;
      return std::unique_ptr<LocalNodeLogic>(
          std::make_unique<baselines::ForwardingLocalNode>(opts, transport,
                                                           clock));
    }
    case SystemKind::kTDigestDecentral: {
      baselines::TDigestOptions opts;
      opts.id = id;
      opts.root_id = root_id;
      opts.locals = LocalIds(config);
      opts.quantiles = config.quantiles;
      opts.window_len_us = config.window_len_us;
      opts.compression = config.tdigest_compression;
      opts.mode = baselines::TDigestMode::kDecentralized;
      return std::unique_ptr<LocalNodeLogic>(
          std::make_unique<baselines::TDigestLocalNode>(opts, transport, clock));
    }
    case SystemKind::kQDigest: {
      baselines::QDigestOptions opts;
      opts.id = id;
      opts.root_id = root_id;
      opts.locals = LocalIds(config);
      opts.quantiles = config.quantiles;
      opts.window_len_us = config.window_len_us;
      opts.domain_lo = config.qdigest_lo;
      opts.domain_hi = config.qdigest_hi;
      opts.universe_bits = config.qdigest_bits;
      opts.k = config.qdigest_k;
      return std::unique_ptr<LocalNodeLogic>(
          std::make_unique<baselines::QDigestLocalNode>(opts, transport, clock));
    }
  }
  return Status::InvalidArgument("unknown system kind");
}

Result<System> BuildSystem(const SystemConfig& config, net::Network* network,
                           const Clock* clock) {
  DEMA_RETURN_NOT_OK(ValidateSystemConfig(config));

  System system;
  system.root_id = 0;
  system.local_ids = LocalIds(config);
  DEMA_RETURN_NOT_OK(network->RegisterNode(system.root_id));
  for (NodeId id : system.local_ids) {
    DEMA_RETURN_NOT_OK(network->RegisterNode(id));
  }

  DEMA_ASSIGN_OR_RETURN(system.root, BuildRootLogic(config, network, clock));
  for (NodeId id : system.local_ids) {
    DEMA_ASSIGN_OR_RETURN(auto local,
                          BuildLocalLogic(config, id, network, clock));
    system.locals.push_back(std::move(local));
  }
  return system;
}

}  // namespace dema::sim
