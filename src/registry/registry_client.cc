#include "registry/registry_client.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/units.h"

namespace dfi::reg {
namespace {

/// Capped exponential backoff between retries after observed silence.
constexpr SimTime kBackoffInitialNs = 2 * kMicrosecond;
constexpr SimTime kBackoffCapNs = 1 * kMillisecond;

Op MakeOp(OpKind kind, const std::string& name,
          std::shared_ptr<FlowStateBase> state = nullptr) {
  Op op;
  op.kind = kind;
  op.name = name;
  op.state = std::move(state);
  return op;
}

std::vector<Op> NamedOps(OpKind kind, const std::vector<std::string>& names) {
  std::vector<Op> ops;
  ops.reserve(names.size());
  for (const std::string& name : names) ops.push_back(MakeOp(kind, name));
  return ops;
}

}  // namespace

RegistryClient::RegistryClient(RegistryService* service,
                               RegistryClientOptions options,
                               VirtualClock* clock)
    : service_(service), options_(options), clock_(clock) {
  DFI_CHECK(service_ != nullptr);
  const uint32_t shards = service_->options().num_shards;
  conns_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    conns_.push_back(std::make_unique<ShardConn>());
  }
}

void RegistryClient::SleepUntilVt(SimTime from, SimTime until) {
  if (until > from) {
    // Nobody ever wakes backoff_wp_, so this is a pure virtual-time sleep:
    // the park returns exactly when the scheduler reaches `until`.
    exec::Engine::Park(&backoff_wp_, [] { return false; }, from, until);
  }
  if (clock_) clock_->AdvanceTo(until);
}

Status RegistryClient::ExecuteShardBatch(ShardId shard, std::vector<Op> ops,
                                         std::vector<OpResult>* results) {
  results->clear();
  if (ops.empty()) return Status::OK();
  ShardConn& conn = *conns_[shard];

  BatchRequest req;
  req.client_id = options_.client_id;
  req.client_node = options_.node;
  req.shard = shard;
  req.base_seq = conn.next_seq;
  req.ops = std::move(ops);
  // Sequence numbers are consumed whether or not the batch lands: a later
  // batch after a give-up jumps the dedup window forward (the shards accept
  // forward jumps, they only reject re-use).
  conn.next_seq = req.base_seq + req.ops.size();

  SimTime now = NowVt();
  const SimTime deadline = now + kRetryDeadlineNs;
  SimTime backoff = kBackoffInitialNs;
  ShardView view = service_->ViewAt(shard, now);
  req.target_replica = view.primary;

  while (true) {
    if (!view.available) {
      if (clock_) clock_->AdvanceTo(now);
      return Status::PeerFailed("registry shard " + std::to_string(shard) +
                                ": every replica has crashed");
    }
    ++stats_.rpcs;
    // Moving to another replica is a failover, whether a redirect or the
    // view at a later virtual time moved this client.
    if (conn.last_replica >= 0 && conn.last_replica != req.target_replica) {
      ++stats_.failovers;
    }
    conn.last_replica = req.target_replica;
    BatchResult res = service_->Execute(req, now);
    if (res.transport.ok() && !res.wrong_primary) {
      if (clock_) clock_->AdvanceTo(res.complete_at);
      *results = std::move(res.results);
      return Status::OK();
    }
    if (res.wrong_primary) {
      // A live non-primary answered with a redirect: refresh the view and
      // retry at the primary immediately (the redirect already cost a
      // round trip; no backoff).
      now = std::max(now, res.complete_at);
      view = service_->ViewAt(shard, now);
      req.target_replica = view.primary;
      continue;
    }
    if (res.transport.code() != StatusCode::kUnavailable) {
      // Rejected before execution (invalid batch, whole shard gone):
      // terminal, retrying cannot help.
      if (clock_) clock_->AdvanceTo(std::max(now, res.complete_at));
      return res.transport;
    }
    // Silence: the target was dead, unreachable, or died mid-batch. Back
    // off (capped exponential) and retry at whoever is primary by then —
    // the dedup windows make the retry exactly-once.
    ++stats_.retries;
    const SimTime observed = std::max(now, res.complete_at);
    const SimTime wake = observed + backoff;
    backoff = std::min(backoff * 2, kBackoffCapNs);
    if (wake > deadline) {
      SleepUntilVt(now, observed);
      return Status::DeadlineExceeded(
          "registry batch to shard " + std::to_string(shard) +
          " exceeded its retry deadline (" +
          std::to_string(kRetryDeadlineNs) + "ns)");
    }
    SleepUntilVt(now, wake);
    now = wake;
    view = service_->ViewAt(shard, now);
    req.target_replica = view.primary;
  }
}

StatusOr<std::vector<OpResult>> RegistryClient::ExecuteOps(
    std::vector<Op> ops) {
  // Group per shard (ordered for determinism), one batched RPC each,
  // scatter per-op results back into input order. Shard-level transport
  // failures fold into the affected ops' statuses — partial success is a
  // result, not an exception.
  std::map<ShardId, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[service_->ShardOf(ops[i].name)].push_back(i);
  }
  std::vector<OpResult> out(ops.size());
  for (auto& [shard, idxs] : by_shard) {
    std::vector<Op> batch;
    batch.reserve(idxs.size());
    for (size_t i : idxs) batch.push_back(std::move(ops[i]));
    std::vector<OpResult> results;
    const Status s = ExecuteShardBatch(shard, std::move(batch), &results);
    if (!s.ok()) {
      for (size_t i : idxs) out[i].status = s;
      continue;
    }
    for (size_t k = 0; k < idxs.size(); ++k) {
      out[idxs[k]] = std::move(results[k]);
    }
  }
  return out;
}

StatusOr<OpResult> RegistryClient::ExecuteOne(Op op) {
  const ShardId shard = service_->ShardOf(op.name);
  std::vector<Op> ops;
  ops.push_back(std::move(op));
  std::vector<OpResult> results;
  DFI_RETURN_IF_ERROR(ExecuteShardBatch(shard, std::move(ops), &results));
  return std::move(results[0]);
}

Status RegistryClient::Publish(const std::string& name,
                               std::shared_ptr<FlowStateBase> state) {
  DFI_ASSIGN_OR_RETURN(
      OpResult r, ExecuteOne(MakeOp(OpKind::kPublish, name, std::move(state))));
  return r.status;
}

StatusOr<std::shared_ptr<FlowStateBase>> RegistryClient::Retrieve(
    const std::string& name) {
  DFI_ASSIGN_OR_RETURN(OpResult r, ExecuteOne(MakeOp(OpKind::kRetrieve, name)));
  if (!r.status.ok()) return r.status;
  return r.state;
}

Status RegistryClient::Close(const std::string& name) {
  DFI_ASSIGN_OR_RETURN(OpResult r, ExecuteOne(MakeOp(OpKind::kClose, name)));
  return r.status;
}

StatusOr<std::vector<OpResult>> RegistryClient::PublishBatch(
    const std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>>&
        flows) {
  std::vector<Op> ops;
  ops.reserve(flows.size());
  for (const auto& [name, state] : flows) {
    ops.push_back(MakeOp(OpKind::kPublish, name, state));
  }
  return ExecuteOps(std::move(ops));
}

StatusOr<std::vector<OpResult>> RegistryClient::RetrieveBatch(
    const std::vector<std::string>& names) {
  return ExecuteOps(NamedOps(OpKind::kRetrieve, names));
}

StatusOr<std::vector<OpResult>> RegistryClient::CloseBatch(
    const std::vector<std::string>& names) {
  return ExecuteOps(NamedOps(OpKind::kClose, names));
}

}  // namespace dfi::reg
