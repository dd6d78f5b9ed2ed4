#include "sim/tree.h"

#include "dema/local_node.h"
#include "dema/root_node.h"

namespace dema::sim {

Result<System> BuildTreeSystem(const TreeConfig& config, net::Network* network,
                               const Clock* clock) {
  if (config.num_relays == 0 || config.locals_per_relay == 0) {
    return Status::InvalidArgument("tree needs at least one relay and one leaf");
  }
  System tree;
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

    core::DemaRootNodeOptions relay_opts;
    relay_opts.id = relay_id;
    relay_opts.parent = tree.root_id;
    relay_opts.locals = children;  // a relay's "locals" are its leaves
    relay_opts.initial_gamma = config.gamma;
    relay_opts.instrument_label = "node=" + std::to_string(relay_id);
    relay_opts.registry = config.registry;
    tree.relays.push_back(
        std::make_unique<core::DemaRootNode>(relay_opts, network, clock));
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
  auto root = std::make_unique<core::DemaRootNode>(root_opts, network, clock);
  DEMA_RETURN_NOT_OK(root->init_status());
  tree.root = std::move(root);
  return tree;
}

}  // namespace dema::sim
