#ifndef DFI_REGISTRY_FLOW_REGISTRY_H_
#define DFI_REGISTRY_FLOW_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "common/sim_time.h"
#include "common/status.h"

namespace dfi {

/// Opaque base for per-flow state published in the registry. The core
/// library derives its flow-state objects from this.
class FlowStateBase {
 public:
  virtual ~FlowStateBase() = default;

  /// Tears the flow down (fault handling): implementations poison their
  /// channels so every participant's next operation fails with `cause`.
  /// Default is a no-op for states with nothing to tear down.
  virtual void Abort(const Status& cause) { (void)cause; }
};

/// Single-node flow-metadata store (the paper's "central registry, e.g. a
/// master node": flow metadata is published on initialization and retrieved
/// by sources/targets before use).
///
/// In a distributed deployment the published metadata would be QP numbers,
/// rkeys and buffer addresses exchanged over the wire; in this in-process
/// emulation it is the flow-state object itself. The API shape (publish /
/// retrieve by unique flow name) matches the paper's model.
///
/// Since the control-plane PR this class is also the storage engine of one
/// shard *replica* inside reg::RegistryService — the sharded, replicated
/// control plane that fronts it for million-flow deployments. Use
/// reg::RegistryClient for anything beyond a single-process test.
///
/// Race semantics (deterministic in virtual time): RenewLease carries the
/// renewer's virtual `now`; a renewal at or past the current expiry fails
/// the flow exactly as MarkExpired(now) would, so renew-vs-scrub in the
/// same virtual tick resolves identically in either call order. Every
/// mutation bumps the engine's progress epoch, so tasks polling the
/// control plane from an IdleWait loop wake up.
class FlowRegistry {
 public:
  FlowRegistry() = default;

  FlowRegistry(const FlowRegistry&) = delete;
  FlowRegistry& operator=(const FlowRegistry&) = delete;

  /// Publishes a flow. Fails with AlreadyExists on duplicate names.
  Status Publish(const std::string& name,
                 std::shared_ptr<FlowStateBase> state);

  /// Publishes a flow with a liveness lease: the publisher promises to
  /// renew before `lease_expiry` (virtual time). Once the lease lapses —
  /// established by MarkExpired(now) or a too-late RenewLease — the flow
  /// counts as failed and retrievals return kPeerFailed. `lease_expiry ==
  /// 0` means no lease (same as Publish).
  Status PublishWithLease(const std::string& name,
                          std::shared_ptr<FlowStateBase> state,
                          SimTime lease_expiry);

  /// Extends a leased flow's expiry (heartbeat) at virtual time `now`.
  /// NotFound if absent; FailedPrecondition if the flow was already marked
  /// failed, or if `now >=` the current expiry — a too-late heartbeat does
  /// not resurrect a lapsed lease, it fails the flow (the same outcome a
  /// MarkExpired(now) in the same virtual tick would have produced, no
  /// matter which call ran first).
  Status RenewLease(const std::string& name, SimTime now, SimTime new_expiry);

  /// Marks a flow's publisher as failed (crash detection, e.g. by a fault
  /// plan or an operator) and aborts the flow state so blocked
  /// participants unwind. Subsequent retrievals fail with `cause`.
  Status MarkFailed(const std::string& name, const Status& cause);

  /// Fails every leased flow whose lease expired at or before `now`
  /// (virtual time); returns how many flows were newly failed. The
  /// emulation's stand-in for the registry's background lease scrubber.
  size_t MarkExpired(SimTime now);

  /// Retrieves a flow's state; NotFound if absent, kPeerFailed (the
  /// MarkFailed cause) if its publisher failed. The overload also reports
  /// the flow's lease expiry (0 = unleased) so callers that cache the
  /// result can fence it client-side.
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(
      const std::string& name) const;
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(
      const std::string& name, SimTime* lease_expiry) const;

  /// Removes a flow from the registry.
  Status Remove(const std::string& name);

  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<FlowStateBase> state;
    SimTime lease_expiry = 0;  // 0 = no lease
    bool failed = false;
    Status fail_cause;
  };

  /// Marks `entry` failed and aborts its state.
  static void FailEntry(Entry* entry, const Status& cause);

  std::unordered_map<std::string, Entry> flows_;
};

}  // namespace dfi

#endif  // DFI_REGISTRY_FLOW_REGISTRY_H_
