#ifndef DFI_NET_RPC_H_
#define DFI_NET_RPC_H_

#include <cstdint>

#include "common/sim_time.h"

namespace dfi::net {

class Fabric;
using NodeId = uint32_t;  // mirrors fault_plan.h (no include cycle)

/// Virtual-time cost model for small control-plane messages over the
/// emulated fabric. Every answer is a pure function of (fabric config,
/// fault plan, virtual times, payload sizes) — no hidden state, no RNG —
/// so the same fault plan yields the same hop costs on every run; the
/// registry service checks the fault plan itself at each hop's time.
///
/// A null fabric gives the zero-cost loopback used by in-process tests and
/// the default DfiRuntime: no delay.
class RpcPath {
 public:
  explicit RpcPath(const Fabric* fabric) : fabric_(fabric) {}

  /// One-way latency of a `payload_bytes` message from `from` to `to` at
  /// virtual time `at`: propagation + NIC processing + wire serialization,
  /// stretched by any fault-plan link degradation on either endpoint.
  SimTime HopNs(NodeId from, NodeId to, SimTime at,
                uint32_t payload_bytes) const;

  /// True when the loopback model is active (no fabric bound).
  bool loopback() const { return fabric_ == nullptr; }

 private:
  const Fabric* const fabric_;
};

}  // namespace dfi::net

#endif  // DFI_NET_RPC_H_
