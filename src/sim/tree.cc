#include "sim/tree.h"

#include "sim/pump.h"

namespace dema::sim {

Result<TreeSystem> BuildTreeSystem(const TreeConfig& config, net::Network* network,
                                   const Clock* clock) {
  if (config.num_relays == 0 || config.locals_per_relay == 0) {
    return Status::InvalidArgument("tree needs at least one relay and one leaf");
  }
  TreeSystem tree;
  tree.root_id = 0;
  DEMA_RETURN_NOT_OK(network->RegisterNode(tree.root_id));

  NodeId next_leaf = static_cast<NodeId>(config.num_relays + 1);
  for (size_t r = 0; r < config.num_relays; ++r) {
    NodeId relay_id = static_cast<NodeId>(r + 1);
    tree.relay_ids.push_back(relay_id);
    DEMA_RETURN_NOT_OK(network->RegisterNode(relay_id));

    std::vector<NodeId> children;
    for (size_t l = 0; l < config.locals_per_relay; ++l) {
      NodeId leaf_id = next_leaf++;
      children.push_back(leaf_id);
      tree.local_ids.push_back(leaf_id);
      DEMA_RETURN_NOT_OK(network->RegisterNode(leaf_id));

      core::DemaLocalNodeOptions leaf_opts;
      leaf_opts.id = leaf_id;
      leaf_opts.root_id = relay_id;  // the leaf's "root" is its relay
      leaf_opts.window_len_us = config.window_len_us;
      leaf_opts.initial_gamma = config.gamma;
      leaf_opts.registry = config.registry;
      tree.locals.push_back(
          std::make_unique<core::DemaLocalNode>(leaf_opts, network, clock));
    }

    core::DemaRelayNodeOptions relay_opts;
    relay_opts.id = relay_id;
    relay_opts.parent = tree.root_id;
    relay_opts.children = children;
    tree.relays.push_back(
        std::make_unique<core::DemaRelayNode>(relay_opts, network, clock));
  }

  core::DemaRootNodeOptions root_opts;
  root_opts.id = tree.root_id;
  root_opts.locals = tree.relay_ids;  // the root's "locals" are the relays
  // A relay's combined batch interleaves its children's γ-cuts, which the
  // strict flat-topology rules would (correctly, but falsely here) reject;
  // keep only the structural validation rules.
  root_opts.strict_validation = false;
  root_opts.quantiles = config.quantiles;
  root_opts.initial_gamma = config.gamma;
  root_opts.registry = config.registry;
  root_opts.tracer = config.tracer;
  tree.root = std::make_unique<core::DemaRootNode>(root_opts, network, clock);
  DEMA_RETURN_NOT_OK(tree.root->init_status());
  return tree;
}

TreeSyncDriver::TreeSyncDriver(TreeSystem* tree, net::Network* network)
    : tree_(tree), network_(network) {}

Status TreeSyncDriver::PumpMessages() {
  std::vector<PumpNode> nodes;
  nodes.push_back({tree_->root_id, tree_->root.get()});
  for (size_t i = 0; i < tree_->relays.size(); ++i) {
    nodes.push_back({tree_->relay_ids[i], tree_->relays[i].get()});
  }
  for (size_t i = 0; i < tree_->locals.size(); ++i) {
    nodes.push_back({tree_->local_ids[i], tree_->locals[i].get()});
  }
  return PumpToQuiescence(network_, nodes);
}

Status TreeSyncDriver::Run(const WorkloadConfig& workload) {
  if (workload.generators.size() != tree_->locals.size()) {
    return Status::InvalidArgument("generator count != leaf count");
  }
  std::vector<std::unique_ptr<gen::StreamGenerator>> gens;
  for (const auto& cfg : workload.generators) {
    DEMA_ASSIGN_OR_RETURN(auto g, gen::StreamGenerator::Create(cfg));
    gens.push_back(std::move(g));
  }
  tree_->root->SetResultCallback(
      [this](const WindowOutput& out) { outputs_.push_back(out); });

  for (uint64_t w = 0; w < workload.num_windows; ++w) {
    TimestampUs start = static_cast<TimestampUs>(w) * workload.window_len_us;
    TimestampUs end = start + workload.window_len_us;
    for (size_t i = 0; i < gens.size(); ++i) {
      for (const Event& e : gens[i]->GenerateWindow(start, workload.window_len_us)) {
        DEMA_RETURN_NOT_OK(tree_->locals[i]->OnEvent(e));
        ++events_ingested_;
      }
      DEMA_RETURN_NOT_OK(tree_->locals[i]->OnWatermark(end));
    }
    DEMA_RETURN_NOT_OK(PumpMessages());
  }
  TimestampUs final_ts =
      static_cast<TimestampUs>(workload.num_windows) * workload.window_len_us;
  for (auto& leaf : tree_->locals) {
    DEMA_RETURN_NOT_OK(leaf->OnFinish(final_ts));
  }
  DEMA_RETURN_NOT_OK(PumpMessages());

  if (tree_->root->windows_emitted() != workload.num_windows) {
    return Status::Internal(
        "root emitted " + std::to_string(tree_->root->windows_emitted()) +
        " windows, expected " + std::to_string(workload.num_windows));
  }
  if (!tree_->root->idle()) {
    return Status::Internal("root still has pending windows");
  }
  for (const auto& relay : tree_->relays) {
    if (relay->pending_windows() != 0) {
      return Status::Internal("relay still has pending windows");
    }
  }
  return Status::OK();
}

}  // namespace dema::sim
