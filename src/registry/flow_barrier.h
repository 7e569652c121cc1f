#ifndef DFI_REGISTRY_FLOW_BARRIER_H_
#define DFI_REGISTRY_FLOW_BARRIER_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dfi::reg {

class RegistryClient;

/// Reusable distributed barrier over the control plane — the registry-side
/// equivalent of the paper's deployment-wide "all participants ready"
/// synchronization before flow traffic starts.
///
/// `expected` participants each construct a FlowBarrier on the same name
/// against their own RegistryClient (distinct client_ids) and call Wait().
/// The barrier releases when all have entered; each waiter's virtual clock
/// joins the release time (the latest arrival), so participants leave the
/// barrier at the same virtual instant plus their own reply hop. The
/// barrier is generational: after a release the next Wait() enters the next
/// generation, so one instance serves phase loops.
///
/// Barrier state lives in the owning shard and is replicated/deduplicated
/// like every other registry op, so a primary crash between arrivals
/// neither loses entries nor double-counts a retried one.
class FlowBarrier {
 public:
  /// Does not take ownership of `client`.
  FlowBarrier(RegistryClient* client, std::string name, uint32_t expected);

  FlowBarrier(const FlowBarrier&) = delete;
  FlowBarrier& operator=(const FlowBarrier&) = delete;

  /// Enters the current generation and parks the calling engine task until
  /// the release; the timeout is virtual time. Errors:
  /// kDeadlineExceeded (timeout), kInvalidArgument (participant-count
  /// mismatch), kPeerFailed / kDeadlineExceeded from the transport when the
  /// owning shard is gone.
  Status Wait(std::chrono::milliseconds timeout =
                  std::chrono::milliseconds(10000));

  /// Generations completed by this participant (== Wait() successes).
  uint64_t generation() const { return generation_; }
  const std::string& name() const { return name_; }

 private:
  RegistryClient* const client_;
  const std::string name_;
  const uint32_t expected_;
  uint64_t generation_ = 0;
};

}  // namespace dfi::reg

#endif  // DFI_REGISTRY_FLOW_BARRIER_H_
