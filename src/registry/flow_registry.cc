#include "registry/flow_registry.h"

#include <utility>

#include "common/logging.h"

namespace dfi {

void FlowRegistry::NotifyChanged() {
  version_.fetch_add(1, std::memory_order_seq_cst);
  wp_.WakeAll();
  exec::BumpProgress();
}

Status FlowRegistry::Publish(const std::string& name,
                             std::shared_ptr<FlowStateBase> state) {
  return PublishWithLease(name, std::move(state), /*lease_expiry=*/0);
}

Status FlowRegistry::PublishWithLease(const std::string& name,
                                      std::shared_ptr<FlowStateBase> state,
                                      SimTime lease_expiry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flows_.count(name) != 0) {
      return Status::AlreadyExists("flow '" + name + "'");
    }
    Entry entry;
    entry.state = std::move(state);
    entry.lease_expiry = lease_expiry;
    flows_.emplace(name, std::move(entry));
  }
  NotifyChanged();
  return Status::OK();
}

void FlowRegistry::FailLocked(Entry* entry, const Status& cause) {
  entry->failed = true;
  entry->fail_cause =
      cause.ok() ? Status::PeerFailed("flow publisher failed") : cause;
  // Unwind blocked participants. Abort is idempotent and takes no registry
  // locks, so calling it under mu_ is safe.
  if (entry->state != nullptr) entry->state->Abort(entry->fail_cause);
}

Status FlowRegistry::RenewLease(const std::string& name, SimTime now,
                                SimTime new_expiry) {
  bool lapsed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flows_.find(name);
    if (it == flows_.end()) {
      return Status::NotFound("flow '" + name + "'");
    }
    Entry& entry = it->second;
    if (entry.failed) {
      return Status::FailedPrecondition("flow '" + name +
                                        "' already marked failed");
    }
    if (entry.lease_expiry != 0 && now >= entry.lease_expiry) {
      // The heartbeat arrived at or past the expiry: the lease lapsed in
      // this very tick. Fail the flow here so the outcome is identical
      // whether the scrubber's MarkExpired(now) ran before or after us.
      FailLocked(&entry,
                 Status::PeerFailed("flow '" + name + "' lease expired at " +
                                    std::to_string(entry.lease_expiry) +
                                    "ns"));
      lapsed = true;
    } else {
      entry.lease_expiry = new_expiry;
    }
  }
  if (lapsed) {
    NotifyChanged();
    return Status::FailedPrecondition("flow '" + name +
                                      "' lease lapsed before renewal");
  }
  return Status::OK();
}

Status FlowRegistry::MarkFailed(const std::string& name,
                                const Status& cause) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flows_.find(name);
    if (it == flows_.end()) {
      return Status::NotFound("flow '" + name + "'");
    }
    if (!it->second.failed) FailLocked(&it->second, cause);
  }
  NotifyChanged();
  return Status::OK();
}

size_t FlowRegistry::MarkExpired(SimTime now) {
  size_t newly_failed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, entry] : flows_) {
      if (entry.failed || entry.lease_expiry == 0 ||
          now < entry.lease_expiry) {
        continue;
      }
      FailLocked(&entry,
                 Status::PeerFailed("flow '" + name + "' lease expired at " +
                                    std::to_string(entry.lease_expiry) +
                                    "ns"));
      ++newly_failed;
    }
  }
  if (newly_failed > 0) NotifyChanged();
  return newly_failed;
}

bool FlowRegistry::PublisherAlive(const std::string& name, SimTime now) {
  bool fail_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flows_.find(name);
    if (it == flows_.end()) return false;
    Entry& entry = it->second;
    if (entry.failed) return false;
    if (entry.lease_expiry == 0 || now < entry.lease_expiry) return true;
    FailLocked(&entry,
               Status::PeerFailed("flow '" + name + "' lease expired at " +
                                  std::to_string(entry.lease_expiry) +
                                  "ns"));
    fail_now = true;
  }
  if (fail_now) NotifyChanged();
  return false;
}

StatusOr<std::shared_ptr<FlowStateBase>> FlowRegistry::Retrieve(
    const std::string& name) const {
  return Retrieve(name, nullptr);
}

StatusOr<std::shared_ptr<FlowStateBase>> FlowRegistry::Retrieve(
    const std::string& name, SimTime* lease_expiry) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = flows_.find(name);
  if (it == flows_.end()) {
    return Status::NotFound("flow '" + name + "'");
  }
  if (it->second.failed) return it->second.fail_cause;
  if (lease_expiry != nullptr) *lease_expiry = it->second.lease_expiry;
  return it->second.state;
}

StatusOr<std::shared_ptr<FlowStateBase>> FlowRegistry::RetrieveBlocking(
    const std::string& name, std::chrono::milliseconds timeout,
    VirtualClock* clock) {
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ticket = next_ticket_++;
    ++pending_[name].waiters;
  }
  // Deregisters this waiter on every exit path; the last waiter out drops
  // the per-name bookkeeping (and any handoff entry retained for it).
  struct WaiterGuard {
    FlowRegistry* reg;
    const std::string& name;
    ~WaiterGuard() {
      std::lock_guard<std::mutex> lock(reg->mu_);
      auto it = reg->pending_.find(name);
      if (it != reg->pending_.end() && --it->second.waiters == 0) {
        reg->pending_.erase(it);
      }
    }
  } guard{this, name};

  // Checks for a satisfied wait under mu_: a live entry wins; otherwise a
  // handoff from a Remove that happened after this waiter registered.
  auto check = [&](StatusOr<std::shared_ptr<FlowStateBase>>* out) {
    auto it = flows_.find(name);
    const Entry* entry = nullptr;
    if (it != flows_.end()) {
      entry = &it->second;
    } else {
      auto pit = pending_.find(name);
      if (pit != pending_.end() && pit->second.has_handoff &&
          ticket < pit->second.handoff_ticket_limit) {
        entry = &pit->second.handoff;
      }
    }
    if (entry == nullptr) return false;
    *out = entry->failed
               ? StatusOr<std::shared_ptr<FlowStateBase>>(entry->fail_cause)
               : StatusOr<std::shared_ptr<FlowStateBase>>(entry->state);
    return true;
  };

  StatusOr<std::shared_ptr<FlowStateBase>> result =
      Status::DeadlineExceeded("flow '" + name + "' not published in time");

  // The timeout is virtual time from the caller's clock. Park until the
  // registry changes or the engine floor reaches the deadline; the expired
  // deadline is committed to the clock so a timed-out retrieve costs
  // exactly its budget, deterministically.
  const SimTime base = clock != nullptr ? clock->now() : 0;
  const SimTime deadline_vt =
      base + static_cast<SimTime>(timeout.count()) * 1'000'000;
  for (;;) {
    uint64_t seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (check(&result)) return result;
      seen = version_.load(std::memory_order_seq_cst);
    }
    const exec::WakeCause cause = exec::Engine::Park(
        &wp_, [&] { return version_.load(std::memory_order_seq_cst) != seen; },
        clock != nullptr ? clock->now() : SimTime(-1), deadline_vt);
    if (cause == exec::WakeCause::kTimer) {
      std::lock_guard<std::mutex> lock(mu_);
      if (check(&result)) return result;
      if (clock != nullptr) clock->AdvanceTo(deadline_vt);
      return Status::DeadlineExceeded("flow '" + name +
                                      "' not published in time");
    }
  }
}

Status FlowRegistry::Remove(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flows_.find(name);
    if (it == flows_.end()) {
      return Status::NotFound("flow '" + name + "'");
    }
    auto pit = pending_.find(name);
    if (pit != pending_.end() && pit->second.waiters > 0) {
      // Hand the entry off to retrievers that were already blocked: the
      // publish they were waiting for must not vanish out from under them.
      pit->second.has_handoff = true;
      pit->second.handoff_ticket_limit = next_ticket_;
      pit->second.handoff = it->second;
    }
    flows_.erase(it);
  }
  NotifyChanged();
  return Status::OK();
}

size_t FlowRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flows_.size();
}

}  // namespace dfi
