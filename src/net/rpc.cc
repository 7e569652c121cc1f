#include "net/rpc.h"

#include <algorithm>

#include "net/fabric.h"

namespace dfi::net {

SimTime RpcPath::HopNs(NodeId from, NodeId to, SimTime at,
                       uint32_t payload_bytes) const {
  if (fabric_ == nullptr) return 0;
  const SimConfig& cfg = fabric_->config();
  const FaultPlan& plan = fabric_->fault_plan();
  // Wire time at the slower of the two endpoint links (a degraded NIC on
  // either side throttles the whole path).
  double gbps = cfg.link_gbps;
  if (plan.active()) {
    const double f =
        std::min(plan.LinkRateFactor(from, at, cfg.link_gbps),
                 plan.LinkRateFactor(to, at, cfg.link_gbps));
    gbps *= std::max(f, 1e-6);
  }
  const SimTime wire_ns =
      static_cast<SimTime>(payload_bytes * 8.0 / gbps);  // bits / (Gb/s) = ns
  return cfg.propagation_ns + cfg.nic_process_ns + wire_ns;
}

}  // namespace dfi::net
