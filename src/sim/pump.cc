#include "sim/pump.h"

namespace dema::sim {

std::vector<PumpNode> SystemPumpNodes(const System& system,
                                      double* root_busy_us,
                                      std::vector<double>* local_busy_us) {
  std::vector<PumpNode> nodes;
  nodes.reserve(system.locals.size() + 1);
  nodes.push_back({system.root_id, system.root.get(), root_busy_us});
  for (size_t i = 0; i < system.locals.size(); ++i) {
    nodes.push_back({system.local_ids[i], system.locals[i].get(),
                     local_busy_us ? &(*local_busy_us)[i] : nullptr});
  }
  return nodes;
}

Status PumpToQuiescence(net::Network* network,
                        const std::vector<PumpNode>& nodes) {
  bool progress = true;
  while (progress) {
    progress = false;
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
        progress = true;
      }
    }
    if (!progress) {
      if (network->pending_events() > 0) {
        progress = network->AdvanceEvents() > 0;
      } else if (network->delayed_in_flight() > 0) {
        progress = network->FlushDelayed() > 0;
      }
    }
  }
  return Status::OK();
}

}  // namespace dema::sim
