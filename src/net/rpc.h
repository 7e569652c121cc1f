#ifndef DFI_NET_RPC_H_
#define DFI_NET_RPC_H_

#include <cstdint>

#include "common/sim_time.h"
#include "common/status.h"

namespace dfi::net {

class Fabric;
using NodeId = uint32_t;  // mirrors fault_plan.h (no include cycle)

/// Outcome of one deterministic virtual-time request/reply exchange.
struct RpcOutcome {
  /// The request reached the server node (alive and reachable on arrival).
  bool delivered = false;
  /// The reply reached the client (the server survived service + send).
  bool replied = false;
  /// Virtual time the request arrives at the server (valid if delivered).
  SimTime request_arrive = 0;
  /// Virtual time the exchange resolves at the client: reply arrival on
  /// success, or the failure-observation time (probe round trip) when the
  /// server was dead, unreachable, or died mid-service.
  SimTime complete_at = 0;
  /// Why the exchange failed (kUnavailable: dead/unreachable/mid-service
  /// crash — the client cannot distinguish these, it only sees silence).
  Status error = Status::OK();
};

/// Virtual-time cost and failure model for small control-plane RPCs over
/// the emulated fabric. Every answer is a pure function of (fabric config,
/// fault plan, virtual times, payload sizes) — no hidden state, no RNG —
/// so the same fault plan yields the same RPC outcomes on every run.
///
/// A null fabric gives the zero-cost loopback used by in-process tests and
/// the default DfiRuntime: always delivered, always replied, no delay.
class RpcPath {
 public:
  explicit RpcPath(const Fabric* fabric) : fabric_(fabric) {}

  /// One-way latency of a `payload_bytes` message from `from` to `to` at
  /// virtual time `at`: propagation + NIC processing + wire serialization,
  /// stretched by any fault-plan link degradation on either endpoint.
  SimTime HopNs(NodeId from, NodeId to, SimTime at,
                uint32_t payload_bytes) const;

  /// Full request/reply exchange: request of `request_bytes` sent at
  /// `start`, `serve_ns` of service time at the server, reply of
  /// `reply_bytes`. Checks the fault plan at every virtual step: request
  /// arrival (dead or partitioned server → silence), service completion
  /// (mid-service crash → silence), reply arrival. On silence the client
  /// observes failure at `start + 2 * hop` — the cost of the probe round
  /// trip that discovered it; retry/backoff policy is the caller's.
  RpcOutcome RoundTrip(NodeId from, NodeId to, SimTime start,
                       SimTime serve_ns, uint32_t request_bytes,
                       uint32_t reply_bytes) const;

  /// True when the loopback model is active (no fabric bound).
  bool loopback() const { return fabric_ == nullptr; }

 private:
  const Fabric* const fabric_;
};

}  // namespace dfi::net

#endif  // DFI_NET_RPC_H_
