#include "sim/pump.h"

#include <algorithm>

namespace dema::sim {

std::vector<PumpNode> SystemPumpNodes(const System& system,
                                      double* root_busy_us,
                                      std::vector<double>* local_busy_us) {
  std::vector<PumpNode> nodes;
  nodes.reserve(1 + system.relays.size() + system.locals.size());
  nodes.push_back({system.root_id, system.root.get(), root_busy_us});
  for (size_t i = 0; i < system.relays.size(); ++i) {
    nodes.push_back({system.relay_ids[i], system.relays[i].get()});
  }
  for (size_t i = 0; i < system.locals.size(); ++i) {
    nodes.push_back({system.local_ids[i], system.locals[i].get(),
                     local_busy_us ? &(*local_busy_us)[i] : nullptr});
  }
  return nodes;
}

Status PumpToQuiescence(net::Network* network,
                        const std::vector<PumpNode>& nodes) {
  while (true) {
    bool delivered = false;
    for (const PumpNode& node : nodes) {
      if (node.logic == nullptr) continue;
      net::Channel* inbox = network->Inbox(node.id);
      while (auto msg = inbox->TryPop()) {
        if (node.busy_us != nullptr) {
          Status st;
          *node.busy_us +=
              TimedUs([&] { return node.logic->OnMessage(*msg); }, &st);
          DEMA_RETURN_NOT_OK(st);
        } else {
          DEMA_RETURN_NOT_OK(node.logic->OnMessage(*msg));
        }
        delivered = true;
      }
      DEMA_RETURN_NOT_OK(node.logic->Quiesce());
    }
    if (delivered) continue;
    // A node's Quiesce may have sent to a node drained earlier in the round.
    if (std::any_of(nodes.begin(), nodes.end(), [&](const PumpNode& node) {
          return node.logic != nullptr && network->Inbox(node.id)->size() > 0;
        })) {
      continue;
    }
    if (network->pending_events() > 0) {
      if (network->AdvanceEvents() > 0) continue;
    } else if (network->delayed_in_flight() > 0) {
      if (network->FlushDelayed() > 0) continue;
    }
    return Status::OK();
  }
}

}  // namespace dema::sim
