#include "registry/registry_service.h"

#include <algorithm>
#include <utility>

#include "common/exec/engine.h"
#include "common/hash.h"
#include "common/logging.h"
#include "net/fabric.h"

namespace dfi::reg {

char OpKindChar(OpKind kind) {
  switch (kind) {
    case OpKind::kPublish: return 'P';
    case OpKind::kRetrieve: return 'R';
    case OpKind::kClose: return 'C';
    case OpKind::kMarkFailed: return 'F';
    case OpKind::kRenewLease: return 'L';
    case OpKind::kBarrierEnter: return 'B';
    case OpKind::kBarrierPoll: return 'b';
  }
  return '?';
}

RegistryService::RegistryService(net::Fabric* fabric,
                                 RegistryServiceOptions options)
    : fabric_(fabric),
      options_(std::move(options)),
      path_(options_.replica_nodes.empty() ? nullptr : fabric) {
  DFI_CHECK_GE(options_.num_shards, 1u);
  DFI_CHECK_GE(options_.replication, 1u);
  if (!options_.replica_nodes.empty()) {
    DFI_CHECK(fabric_ != nullptr)
        << "fabric-placed registry replicas need a fabric";
    DFI_CHECK_EQ(options_.replica_nodes.size(),
                 static_cast<size_t>(options_.num_shards) *
                     options_.replication);
  }
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->replicas.reserve(options_.replication);
    for (uint32_t r = 0; r < options_.replication; ++r) {
      shard->replicas.push_back(std::make_unique<Replica>());
    }
    shards_.push_back(std::move(shard));
  }
}

ShardId RegistryService::ShardOf(const std::string& name) const {
  return static_cast<ShardId>(HashBytes(name.data(), name.size()) %
                              options_.num_shards);
}

net::NodeId RegistryService::ReplicaNode(ShardId shard,
                                         uint32_t replica) const {
  if (options_.replica_nodes.empty()) return kNoNode;
  return options_.replica_nodes[static_cast<size_t>(shard) *
                                    options_.replication +
                                replica];
}

bool RegistryService::NodeAliveAt(net::NodeId node, SimTime at) const {
  if (path_.loopback()) return true;
  const net::FaultPlan& plan = fabric_->fault_plan();
  return !plan.active() || plan.NodeAlive(node, at);
}

uint32_t RegistryService::PrimaryIndexAt(ShardId shard, SimTime at) const {
  if (path_.loopback()) return 0;
  for (uint32_t r = 0; r < options_.replication; ++r) {
    if (NodeAliveAt(ReplicaNode(shard, r), at)) return r;
  }
  return UINT32_MAX;
}

Epoch RegistryService::EpochAt(ShardId shard, SimTime at) const {
  if (path_.loopback()) return 1;
  const net::FaultPlan& plan = fabric_->fault_plan();
  Epoch epoch = 1;
  if (!plan.active()) return epoch;
  for (uint32_t r = 0; r < options_.replication; ++r) {
    if (plan.CrashTime(ReplicaNode(shard, r)) <= at) ++epoch;
  }
  return epoch;
}

ShardView RegistryService::ViewAt(ShardId shard, SimTime at) const {
  DFI_CHECK_LT(shard, options_.num_shards);
  ShardView view;
  view.epoch = EpochAt(shard, at);
  const uint32_t primary = PrimaryIndexAt(shard, at);
  view.available = primary != UINT32_MAX;
  view.primary = view.available ? primary : 0;
  view.primary_node = ReplicaNode(shard, view.primary);
  return view;
}

void RegistryService::RecordEvent(Shard* shard, ShardId shard_id,
                                  Epoch epoch, const Op& op,
                                  uint64_t client_id, uint64_t seq,
                                  StatusCode code, SimTime at) {
  // Order-insensitive accumulation: the commutative sum over per-event
  // hashes is identical however the scheduler interleaved the appends.
  uint64_t h = HashU64(static_cast<uint64_t>(at));
  h = HashU64(h ^ ((static_cast<uint64_t>(shard_id) << 32) ^ epoch));
  h = HashU64(h ^ HashBytes(op.name.data(), op.name.size()));
  h = HashU64(h ^ (client_id * 0x9e3779b97f4a7c15ull + seq));
  h = HashU64(h ^ ((static_cast<uint64_t>(OpKindChar(op.kind)) << 8) |
                   static_cast<uint64_t>(code)));
  trace_hash_.fetch_add(h, std::memory_order_relaxed);
  if (options_.record_trace) {
    RegistryEvent e;
    e.at = at;
    e.shard = shard_id;
    e.epoch = epoch;
    e.kind = op.kind;
    e.name = op.name;
    e.client_id = client_id;
    e.seq = seq;
    e.code = code;
    shard->events.push_back(std::move(e));
  }
}

OpResult RegistryService::ApplyOp(Replica* replica, const Op& op,
                                  uint64_t client_id, SimTime at) const {
  OpResult r;
  switch (op.kind) {
    case OpKind::kPublish:
      r.status = replica->store.PublishWithLease(op.name, op.state,
                                                 op.lease_expiry);
      break;
    case OpKind::kRetrieve: {
      SimTime lease = 0;
      auto s = replica->store.Retrieve(op.name, &lease);
      if (s.ok()) {
        r.state = *s;
        r.lease_expiry = lease;
      } else {
        r.status = s.status();
      }
      break;
    }
    case OpKind::kClose:
      r.status = replica->store.Remove(op.name);
      break;
    case OpKind::kMarkFailed:
      r.status = replica->store.MarkFailed(op.name, op.fail_cause);
      break;
    case OpKind::kRenewLease:
      r.status = replica->store.RenewLease(op.name, at, op.lease_expiry);
      break;
    case OpKind::kBarrierEnter: {
      BarrierState& b = replica->barriers[op.name];
      if (b.expected == 0) b.expected = op.barrier_expected;
      if (op.barrier_expected != b.expected) {
        r.status = Status::InvalidArgument(
            "barrier '" + op.name + "' expects " +
            std::to_string(b.expected) + " participants, not " +
            std::to_string(op.barrier_expected));
        break;
      }
      if (op.barrier_generation < b.generation) {
        // This generation already released (e.g. a duplicate enter whose
        // first apply released it).
        r.barrier_released = true;
        r.barrier_release_at = b.last_release_at;
        break;
      }
      if (op.barrier_generation > b.generation) {
        r.status = Status::FailedPrecondition(
            "barrier '" + op.name + "' generation " +
            std::to_string(op.barrier_generation) + " not yet open");
        break;
      }
      b.arrivals.emplace(client_id, at);
      if (b.arrivals.size() >= b.expected) {
        SimTime release = 0;
        for (const auto& [c, t] : b.arrivals) {
          release = std::max(release, t);
        }
        b.last_release_at = release;
        b.ever_released = true;
        ++b.generation;
        b.arrivals.clear();
        r.barrier_released = true;
        r.barrier_release_at = release;
      }
      break;
    }
    case OpKind::kBarrierPoll: {
      auto it = replica->barriers.find(op.name);
      if (it != replica->barriers.end() &&
          op.barrier_generation < it->second.generation) {
        r.barrier_released = true;
        r.barrier_release_at = it->second.last_release_at;
      }
      break;
    }
  }
  return r;
}

OpResult RegistryService::ApplyWithDedup(Shard* shard, ShardId shard_id,
                                         uint32_t primary_index,
                                         const BatchRequest& request,
                                         size_t op_index, SimTime at,
                                         Epoch epoch) {
  Replica& primary = *shard->replicas[primary_index];
  const uint64_t seq = request.base_seq + op_index;
  ClientWindow& window = primary.clients[request.client_id];
  if (seq < window.applied_through) {
    // A retry resent an op this shard already has (the crashed primary
    // replicated it before dying, or the reply was lost): return the
    // stored result, apply nothing — the exactly-once guarantee.
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    OpResult r;
    if (window.last_base == request.base_seq &&
        op_index < window.last_results.size()) {
      r = window.last_results[op_index];
    }
    r.duplicate = true;
    return r;
  }
  // seq >= applied_through: a fresh op. seq > applied_through is a forward
  // jump — the client abandoned an earlier batch at its retry deadline and
  // moved on; the window only has to reject *re-use*, so it jumps with it.
  // `prev` (the pre-apply watermark) rides along to the backups: a backup
  // whose watermark does not match missed an op while dead or partitioned
  // and must stay out forever rather than silently diverge.
  const uint64_t prev = window.applied_through;
  OpResult result = ApplyOp(&primary, request.ops[op_index],
                            request.client_id, at);
  if (window.last_base != request.base_seq) {
    window.last_base = request.base_seq;
    window.last_results.clear();
  }
  window.last_results.push_back(result);
  window.applied_through = seq + 1;
  applied_ops_.fetch_add(1, std::memory_order_relaxed);
  RecordEvent(shard, shard_id, epoch, request.ops[op_index],
              request.client_id, seq, result.status.code(), at);
  // Mutations bump the engine progress epoch so parked pollers re-check.
  // Reads (retrieve, barrier poll) must NOT bump: a poll loop that bumped
  // on its own poll would wake itself out of every park and spin the
  // worker forever instead of yielding (self-notification livelock).
  const OpKind kind = request.ops[op_index].kind;
  if (kind != OpKind::kRetrieve && kind != OpKind::kBarrierPoll) {
    exec::BumpProgress();
  }

  // Synchronous replication: every backup that is alive and reachable at
  // the virtual delivery time applies the same op. A backup that missed an
  // op (dead, or cut off by a partition) never applies later ones either —
  // its watermark stays put — so windows never develop silent gaps.
  const net::NodeId primary_node = ReplicaNode(shard_id, primary_index);
  for (uint32_t r = 0; r < options_.replication; ++r) {
    if (r == primary_index) continue;
    Replica& backup = *shard->replicas[r];
    if (!path_.loopback()) {
      const net::NodeId backup_node = ReplicaNode(shard_id, r);
      const SimTime deliver =
          at + path_.HopNs(primary_node, backup_node, at,
                           options_.op_wire_bytes);
      const net::FaultPlan& plan = fabric_->fault_plan();
      if (!NodeAliveAt(backup_node, deliver)) continue;
      if (plan.active() &&
          !plan.Reachable(primary_node, backup_node, at)) {
        continue;
      }
    }
    ClientWindow& bw = backup.clients[request.client_id];
    if (bw.applied_through != prev) continue;  // missed earlier ops: stay out
    OpResult br = ApplyOp(&backup, request.ops[op_index],
                          request.client_id, at);
    if (bw.last_base != request.base_seq) {
      bw.last_base = request.base_seq;
      bw.last_results.clear();
    }
    bw.last_results.push_back(std::move(br));
    bw.applied_through = seq + 1;
  }
  return result;
}

BatchResult RegistryService::Execute(const BatchRequest& request,
                                     SimTime start) {
  BatchResult out;
  out.complete_at = start;
  if (request.shard >= options_.num_shards ||
      request.target_replica >= options_.replication) {
    out.transport = Status::InvalidArgument("batch addresses shard " +
                                            std::to_string(request.shard) +
                                            " replica " +
                                            std::to_string(
                                                request.target_replica));
    return out;
  }
  for (const Op& op : request.ops) {
    if (ShardOf(op.name) != request.shard) {
      out.transport = Status::InvalidArgument(
          "op on '" + op.name + "' does not belong to shard " +
          std::to_string(request.shard));
      return out;
    }
  }

  Shard& shard = *shards_[request.shard];
  const bool loop = path_.loopback();
  const net::NodeId target_node =
      ReplicaNode(request.shard, request.target_replica);
  const uint32_t wire_bytes =
      options_.op_wire_bytes *
      static_cast<uint32_t>(std::max<size_t>(1, request.ops.size()));

  SimTime t_arrive = start;
  SimTime observe_silence = start;
  if (!loop) {
    const SimTime hop =
        path_.HopNs(request.client_node, target_node, start, wire_bytes);
    t_arrive = start + hop;
    observe_silence = start + 2 * hop;
    const net::FaultPlan& plan = fabric_->fault_plan();
    if (plan.active() &&
        (!plan.NodeAlive(target_node, t_arrive) ||
         (request.client_node != kNoNode &&
          !plan.Reachable(request.client_node, target_node, t_arrive)))) {
      out.transport = Status::Unavailable(
          "registry replica node " + std::to_string(target_node) +
          " dead or unreachable");
      out.complete_at = observe_silence;
      return out;
    }
  }

  const uint32_t primary = PrimaryIndexAt(request.shard, t_arrive);
  if (primary == UINT32_MAX) {
    out.transport = Status::PeerFailed(
        "every replica of registry shard " + std::to_string(request.shard) +
        " has crashed");
    out.complete_at = observe_silence;
    return out;
  }
  out.epoch = EpochAt(request.shard, t_arrive);

  const SimTime per_op = loop ? 0 : options_.op_serve_ns;
  if (request.target_replica != primary) {
    // Live non-primary: it answers with a redirect carrying the current
    // view; the client refreshes and retries at the primary.
    out.wrong_primary = true;
    const SimTime t_redirect = t_arrive + per_op;
    out.transport = Status::OK();
    out.complete_at =
        loop ? start
             : t_redirect + path_.HopNs(target_node, request.client_node,
                                        t_redirect, options_.op_wire_bytes);
    return out;
  }

  const SimTime crash_t =
      loop ? net::FaultPlan::kNever
           : fabric_->fault_plan().CrashTime(target_node);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.results.reserve(request.ops.size());
    for (size_t i = 0; i < request.ops.size(); ++i) {
      const SimTime t_i = t_arrive + per_op * static_cast<SimTime>(i + 1);
      if (crash_t <= t_i) {
        // The primary died mid-batch: the prefix it reached is applied and
        // replicated, the rest is lost, and no reply ever leaves the node.
        // The client observes silence and retries; the dedup windows turn
        // that retry into exactly-once.
        out.results.clear();
        out.transport = Status::Unavailable(
            "registry shard " + std::to_string(request.shard) +
            " primary crashed mid-batch");
        out.complete_at = std::max(observe_silence, crash_t);
        return out;
      }
      out.results.push_back(ApplyWithDedup(&shard, request.shard, primary,
                                           request, i, t_i, out.epoch));
    }
  }

  const SimTime t_done =
      t_arrive + per_op * static_cast<SimTime>(request.ops.size());
  if (!loop) {
    const net::FaultPlan& plan = fabric_->fault_plan();
    if (plan.active() && request.client_node != kNoNode &&
        !plan.Reachable(target_node, request.client_node, t_done)) {
      // Executed but the reply can't get back; the client will retry and
      // be absorbed by the dedup window.
      out.results.clear();
      out.transport =
          Status::Unavailable("registry reply path partitioned");
      out.complete_at = std::max(observe_silence, t_done);
      return out;
    }
    out.complete_at = t_done + path_.HopNs(target_node, request.client_node,
                                           t_done, wire_bytes);
  } else {
    out.complete_at = start;
  }
  out.transport = Status::OK();
  return out;
}

size_t RegistryService::MarkExpired(SimTime now) {
  size_t newly_failed = 0;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    const uint32_t primary = PrimaryIndexAt(s, now);
    for (uint32_t r = 0; r < options_.replication; ++r) {
      if (!NodeAliveAt(ReplicaNode(s, r), now)) continue;
      const size_t n = shard.replicas[r]->store.MarkExpired(now);
      if (r == primary) newly_failed += n;
    }
  }
  if (newly_failed > 0) {
    trace_hash_.fetch_add(
        HashU64(static_cast<uint64_t>(now) ^ (newly_failed << 17)),
        std::memory_order_relaxed);
  }
  return newly_failed;
}

size_t RegistryService::TotalFlows(SimTime at) const {
  size_t total = 0;
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const uint32_t primary = PrimaryIndexAt(s, at);
    if (primary == UINT32_MAX) continue;
    total += shards_[s]->replicas[primary]->store.size();
  }
  return total;
}

std::vector<RegistryEvent> RegistryService::Events() const {
  std::vector<RegistryEvent> all;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    all.insert(all.end(), shard->events.begin(), shard->events.end());
  }
  std::sort(all.begin(), all.end(),
            [](const RegistryEvent& a, const RegistryEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.client_id != b.client_id) return a.client_id < b.client_id;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.shard < b.shard;
            });
  return all;
}

std::string RegistryService::TraceString() const {
  std::string out;
  for (const RegistryEvent& e : Events()) {
    // Appended piece by piece: a chained operator+ here trips GCC 12's
    // -Wrestrict false positive at -O3.
    out += '@';
    out += std::to_string(e.at);
    out += "ns s";
    out += std::to_string(e.shard);
    out += " e";
    out += std::to_string(e.epoch);
    out += ' ';
    out += OpKindChar(e.kind);
    out += ' ';
    out += e.name;
    out += " c";
    out += std::to_string(e.client_id);
    out += '#';
    out += std::to_string(e.seq);
    out += ' ';
    out += StatusCodeToString(e.code);
    out += '\n';
  }
  return out;
}

}  // namespace dfi::reg
