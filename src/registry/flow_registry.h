#ifndef DFI_REGISTRY_FLOW_REGISTRY_H_
#define DFI_REGISTRY_FLOW_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/exec/engine.h"
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
/// retrieve by unique flow name, blocking retrieve for races between
/// initializer and users) matches the paper's model.
///
/// Since the control-plane PR this class is also the storage engine of one
/// shard *replica* inside reg::RegistryService — the sharded, replicated
/// control plane that fronts it for million-flow deployments. Use
/// reg::RegistryClient for anything beyond a single-process test.
///
/// Race semantics (all deterministic in virtual time):
///   - RenewLease carries the renewer's virtual `now`: a renewal at or past
///     the current expiry fails the flow exactly as MarkExpired(now) would,
///     so renew-vs-scrub in the same virtual tick resolves identically in
///     either call order.
///   - Remove hands the removed entry off to retrievers already blocked in
///     RetrieveBlocking: a publish/remove pair can never starve a retriever
///     that was waiting when the pair landed. Retrievers that arrive after
///     the Remove wait for a fresh publish as usual.
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
  /// established by MarkExpired(now) or any PublisherAlive(name, now) probe
  /// past the expiry — the flow counts as failed and retrievals return
  /// kPeerFailed. `lease_expiry == 0` means no lease (same as Publish).
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

  /// True while the flow is published and not failed, and (when leased) the
  /// lease covers `now`. A probe past the expiry fails the flow as a side
  /// effect, so liveness answers are monotonic.
  bool PublisherAlive(const std::string& name, SimTime now);

  /// Retrieves a flow's state; NotFound if absent, kPeerFailed (the
  /// MarkFailed cause) if its publisher failed. The overload also reports
  /// the flow's lease expiry (0 = unleased) so callers that cache the
  /// result can fence it client-side.
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(
      const std::string& name) const;
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(
      const std::string& name, SimTime* lease_expiry) const;

  /// Blocking retrieve: waits until the flow is published. Fails with
  /// kDeadlineExceeded once the timeout elapses (the caller's bounded
  /// retrieve deadline, not a transient unavailability).
  ///
  /// The calling engine task parks; the timeout is *virtual* time measured
  /// from `clock->now()` (0 if no clock), so an idle fleet jumps straight
  /// to the deadline instead of burning wall clock, and the deadline is
  /// charged to `clock` on expiry.
  StatusOr<std::shared_ptr<FlowStateBase>> RetrieveBlocking(
      const std::string& name,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000),
      VirtualClock* clock = nullptr);

  /// Removes a flow from the registry. Retrievers already blocked on the
  /// name receive the removed entry (publish/remove handoff, see class
  /// comment) instead of waiting out their full timeout.
  Status Remove(const std::string& name);

  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<FlowStateBase> state;
    SimTime lease_expiry = 0;  // 0 = no lease
    bool failed = false;
    Status fail_cause;
  };

  /// Blocked-retriever bookkeeping for one name. `handoff` retains the
  /// entry of a Remove that landed while retrievers with a ticket below
  /// `handoff_ticket_limit` were already waiting.
  struct PendingWait {
    uint32_t waiters = 0;
    bool has_handoff = false;
    uint64_t handoff_ticket_limit = 0;
    Entry handoff;
  };

  /// Marks `entry` failed and aborts its state. Caller holds mu_.
  static void FailLocked(Entry* entry, const Status& cause);

  /// Bumps the change version and wakes parked waiters. Call *after*
  /// releasing mu_.
  void NotifyChanged();

  mutable std::mutex mu_;
  std::atomic<uint64_t> version_{0};
  mutable exec::WaitPoint wp_;
  uint64_t next_ticket_ = 0;
  std::unordered_map<std::string, Entry> flows_;
  std::unordered_map<std::string, PendingWait> pending_;
};

}  // namespace dfi

#endif  // DFI_REGISTRY_FLOW_REGISTRY_H_
