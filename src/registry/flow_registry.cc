#include "registry/flow_registry.h"

#include <utility>

#include "common/exec/engine.h"

namespace dfi {

Status FlowRegistry::Publish(const std::string& name,
                             std::shared_ptr<FlowStateBase> state) {
  return PublishWithLease(name, std::move(state), /*lease_expiry=*/0);
}

Status FlowRegistry::PublishWithLease(const std::string& name,
                                      std::shared_ptr<FlowStateBase> state,
                                      SimTime lease_expiry) {
  if (flows_.count(name) != 0) {
    return Status::AlreadyExists("flow '" + name + "'");
  }
  Entry entry;
  entry.state = std::move(state);
  entry.lease_expiry = lease_expiry;
  flows_.emplace(name, std::move(entry));
  exec::BumpProgress();
  return Status::OK();
}

void FlowRegistry::FailEntry(Entry* entry, const Status& cause) {
  entry->failed = true;
  entry->fail_cause =
      cause.ok() ? Status::PeerFailed("flow publisher failed") : cause;
  // Unwind blocked participants. Abort is idempotent.
  if (entry->state != nullptr) entry->state->Abort(entry->fail_cause);
}

Status FlowRegistry::RenewLease(const std::string& name, SimTime now,
                                SimTime new_expiry) {
  bool lapsed = false;
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
    FailEntry(&entry,
               Status::PeerFailed("flow '" + name + "' lease expired at " +
                                  std::to_string(entry.lease_expiry) +
                                  "ns"));
    lapsed = true;
  } else {
    entry.lease_expiry = new_expiry;
  }
  if (lapsed) {
    exec::BumpProgress();
    return Status::FailedPrecondition("flow '" + name +
                                      "' lease lapsed before renewal");
  }
  return Status::OK();
}

Status FlowRegistry::MarkFailed(const std::string& name,
                                const Status& cause) {
  auto it = flows_.find(name);
  if (it == flows_.end()) {
    return Status::NotFound("flow '" + name + "'");
  }
  if (!it->second.failed) FailEntry(&it->second, cause);
  exec::BumpProgress();
  return Status::OK();
}

size_t FlowRegistry::MarkExpired(SimTime now) {
  size_t newly_failed = 0;
  for (auto& [name, entry] : flows_) {
    if (entry.failed || entry.lease_expiry == 0 ||
        now < entry.lease_expiry) {
      continue;
    }
    FailEntry(&entry,
               Status::PeerFailed("flow '" + name + "' lease expired at " +
                                  std::to_string(entry.lease_expiry) +
                                  "ns"));
    ++newly_failed;
  }
  if (newly_failed > 0) exec::BumpProgress();
  return newly_failed;
}

StatusOr<std::shared_ptr<FlowStateBase>> FlowRegistry::Retrieve(
    const std::string& name) const {
  return Retrieve(name, nullptr);
}

StatusOr<std::shared_ptr<FlowStateBase>> FlowRegistry::Retrieve(
    const std::string& name, SimTime* lease_expiry) const {
  auto it = flows_.find(name);
  if (it == flows_.end()) {
    return Status::NotFound("flow '" + name + "'");
  }
  if (it->second.failed) return it->second.fail_cause;
  if (lease_expiry != nullptr) *lease_expiry = it->second.lease_expiry;
  return it->second.state;
}

Status FlowRegistry::Remove(const std::string& name) {
  auto it = flows_.find(name);
  if (it == flows_.end()) {
    return Status::NotFound("flow '" + name + "'");
  }
  flows_.erase(it);
  exec::BumpProgress();
  return Status::OK();
}

size_t FlowRegistry::size() const { return flows_.size(); }

}  // namespace dfi
