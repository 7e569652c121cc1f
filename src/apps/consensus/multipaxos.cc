// Multi-Paxos on the four flows of the paper's Figure 3: an N:1 shuffle
// flow for client submissions, a replicate flow (multicast) for proposals,
// an N:1 shuffle flow for votes and a 1:N shuffle flow for replies.
//
// One implementation serves the failure-free run and leader failover. With
// ChaosConfig::crash_at_ns > 0 a FaultPlan fail-stops the term-1 leader
// (replica 0) mid-run. Every survivor observes the failure through
// poisoned channels, kPeerFailed fault-plan probes or block deadlines —
// never by hanging — and moves to a pre-published term-2 flow set led by
// replica 1 (the emulation stand-in for a pre-negotiated view change;
// electing a leader is Paxos' own business, not the data-flow
// interface's). Clients resubmit their in-flight requests on the term-2
// flows. With crash_at_ns == 0 only term 1 exists.

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"

namespace dfi::consensus {

using internal::ClientOutcome;
using internal::InitClientFlows;
using internal::RunLeaderClient;
using internal::SyncClocks;
using internal::TupleDrain;

namespace {

/// Publishes one term's four flows. `leader` is the term's leader replica;
/// `first_follower` the first replica acting as a follower (term 2
/// excludes the crashed replica 0 entirely).
Status InitTermFlows(DfiRuntime* dfi, const std::vector<std::string>& nodes,
                     const ConsensusConfig& cfg, const FlowOptions& lat,
                     const std::string& prefix, uint32_t leader,
                     uint32_t first_follower) {
  const Endpoint leader_ep{nodes[leader], 0};
  DFI_RETURN_IF_ERROR(InitClientFlows(dfi, nodes, cfg, lat, prefix, leader_ep));

  ReplicateFlowSpec propose;
  propose.name = prefix + ".propose";
  propose.sources.Append(leader_ep);
  for (uint32_t r = first_follower; r < cfg.num_replicas; ++r) {
    propose.targets.Append(Endpoint{nodes[r], 0});
  }
  propose.schema = Proposal::MakeSchema();
  propose.options = lat;
  propose.options.use_multicast = true;
  // Deep receive pools so every in-flight client request can have an
  // outstanding proposal without stalling the leader.
  propose.options.segments_per_ring = 256;
  DFI_RETURN_IF_ERROR(dfi->InitReplicateFlow(std::move(propose)));

  ShuffleFlowSpec vote;
  vote.name = prefix + ".vote";
  for (uint32_t r = first_follower; r < cfg.num_replicas; ++r) {
    vote.sources.Append(Endpoint{nodes[r], 0});
  }
  vote.targets.Append(leader_ep);
  vote.schema = Vote::MakeSchema();
  vote.options = lat;
  return dfi->InitShuffleFlow(std::move(vote));
}

/// The leader's four endpoints of one term.
struct LeaderFlows {
  std::unique_ptr<ShuffleTarget> submit;
  std::unique_ptr<ShuffleTarget> vote;
  std::unique_ptr<ReplicateSource> propose;
  std::unique_ptr<ShuffleSource> reply;

  /// Joins the four endpoint clocks (one logical timeline), no earlier
  /// than `floor`.
  SimTime Sync(SimTime floor = 0) {
    const SimTime t =
        std::max({floor, submit->clock().now(), vote->clock().now(),
                  propose->clock().now(), reply->clock().now()});
    submit->clock().AdvanceTo(t);
    vote->clock().AdvanceTo(t);
    propose->clock().AdvanceTo(t);
    reply->clock().AdvanceTo(t);
    return t;
  }
};

StatusOr<LeaderFlows> OpenLeader(DfiRuntime* dfi, const std::string& prefix) {
  LeaderFlows f;
  DFI_ASSIGN_OR_RETURN(f.submit,
                       dfi->CreateShuffleTarget(prefix + ".submit", 0));
  DFI_ASSIGN_OR_RETURN(f.vote, dfi->CreateShuffleTarget(prefix + ".vote", 0));
  DFI_ASSIGN_OR_RETURN(f.propose,
                       dfi->CreateReplicateSource(prefix + ".propose", 0));
  DFI_ASSIGN_OR_RETURN(f.reply, dfi->CreateShuffleSource(prefix + ".reply", 0));
  return f;
}

/// One term's leader loop: merges submits and votes, orders and proposes
/// each command, and answers its client once a majority voted. The term
/// ends once every client closed its submit source and every ordered
/// command was answered. Otherwise returns what ended it: a failed flow
/// call or, under a scripted crash, the fail-stop once the leader's own
/// clock reaches `crash_at`.
Status RunLeaderTerm(LeaderFlows& f, const net::SimConfig& sim,
                     uint32_t majority, uint32_t voters, SimTime crash_at,
                     KvStore* kv) {
  struct Pending {
    Command cmd;
    uint32_t votes = 1;  // the leader's own vote
    bool done = false;
  };
  std::unordered_map<uint64_t, Pending> pending;
  TupleDrain<Command> submits(f.submit.get());
  TupleDrain<Vote> votes(f.vote.get());
  uint64_t next_index = 0;
  uint64_t replied = 0;

  for (;;) {
    if (crash_at > 0 && f.Sync() >= crash_at) {
      return Status::PeerFailed("leader fail-stopped at its scripted crash");
    }
    if (submits.errored()) return f.submit->last_status();
    if (votes.errored()) return f.vote->last_status();
    // Epoch before the poll round: a delivery racing the scan bumps the
    // epoch, so the IdleWait below returns immediately instead of parking.
    const uint64_t epoch = exec::ProgressEpoch();
    bool progressed = false;
    Command cmd;
    if (submits.Next(&cmd)) {
      // Order the request, append it to the local log and forward it to
      // the followers over the replicate flow.
      f.Sync();
      f.submit->clock().Advance(sim.replica_logic_ns + sim.log_append_ns);
      const uint64_t index = next_index++;
      pending.emplace(index, Pending{cmd, 1, false});
      Proposal proposal{index, cmd};
      DFI_RETURN_IF_ERROR(f.propose->Push(&proposal));
      progressed = true;
    }
    Vote vote;
    while (votes.Next(&vote)) {
      f.Sync();
      f.vote->clock().Advance(sim.vote_tally_ns);
      auto it = pending.find(vote.log_index);
      if (it != pending.end()) {
        Pending& p = it->second;
        ++p.votes;
        if (!p.done && p.votes >= majority) {
          // Committed: execute on the state machine, answer the client.
          p.done = true;
          f.vote->clock().Advance(sim.kv_op_ns);
          Reply rep{};
          rep.client_id = p.cmd.client_id;
          rep.ok = 1;
          rep.req_id = p.cmd.req_id;
          rep.log_index = vote.log_index;
          Value v;
          if (p.cmd.is_write) {
            std::memcpy(v.data(), p.cmd.value, kValueBytes);
            kv->Put(p.cmd.key, v);
          } else {
            kv->Get(p.cmd.key, &v);
          }
          std::memcpy(rep.value, v.data(), kValueBytes);
          f.Sync();
          DFI_RETURN_IF_ERROR(f.reply->Push(&rep));
          ++replied;
        }
        if (p.votes == voters + 1) pending.erase(it);
      }
      progressed = true;
    }
    if (!progressed) {
      if (submits.ended() && replied == next_index) break;
      exec::IdleWait(epoch);
    }
  }
  DFI_RETURN_IF_ERROR(f.propose->Close());
  DFI_RETURN_IF_ERROR(f.reply->Close());
  votes.DrainToEnd();
  return votes.errored() ? f.vote->last_status() : Status::OK();
}

/// One term's follower loop: logs and votes for every proposal until the
/// leader ends the term, then closes the vote source. A failed consume or
/// vote push aborts the vote source and is returned.
Status RunFollowerTerm(ReplicateTarget* propose, ShuffleSource* vote,
                       const net::SimConfig& sim, uint32_t replica,
                       std::vector<Command>* log) {
  TupleView tuple;
  for (;;) {
    const ConsumeResult res = propose->Consume(&tuple);
    if (res == ConsumeResult::kFlowEnd) return vote->Close();
    Status failure;
    if (res != ConsumeResult::kOk) {
      failure = propose->last_status();  // the leader died
    } else {
      Proposal proposal;
      std::memcpy(&proposal, tuple.data(), sizeof(proposal));
      SyncClocks(propose->clock(), vote->clock());
      propose->clock().Advance(sim.replica_logic_ns + sim.log_append_ns);
      vote->clock().AdvanceTo(propose->clock().now());
      log->push_back(proposal.cmd);
      const Vote v{proposal.log_index, static_cast<uint16_t>(replica),
                   proposal.cmd.client_id, proposal.cmd.req_id};
      failure = vote->Push(&v);
    }
    if (!failure.ok()) {
      vote->Abort(failure);
      return failure;
    }
  }
}

/// Replica r >= 1: follows term 1; after a failover it leads term 2
/// (r == 1) or follows it.
Status RunReplica(DfiRuntime* dfi, const ChaosConfig& chaos, bool failover,
                  uint32_t r) {
  const ConsensusConfig& cfg = chaos.base;
  const net::SimConfig& sim = dfi->config();
  DFI_ASSIGN_OR_RETURN(auto propose,
                       dfi->CreateReplicateTarget("mpx.t1.propose", r - 1));
  DFI_ASSIGN_OR_RETURN(auto vote,
                       dfi->CreateShuffleSource("mpx.t1.vote", r - 1));
  std::vector<Command> log;
  const Status term1 = RunFollowerTerm(propose.get(), vote.get(), sim, r, &log);
  if (!failover) return term1;
  // A crash can only be *observed* after it happened: term 2 starts at the
  // later of this replica's local time and the crash time.
  SimTime t2_start = std::max(propose->clock().now(), vote->clock().now());
  if (!term1.ok()) t2_start = std::max(t2_start, chaos.crash_at_ns);

  if (r == 1) {
    DFI_ASSIGN_OR_RETURN(LeaderFlows leader, OpenLeader(dfi, "mpx.t2"));
    // Recovery work: replay the replicated log into the new leader's state
    // machine before serving — part of the measured recovery time.
    KvStore kv;
    for (const Command& cmd : log) {
      if (!cmd.is_write) continue;
      Value v;
      std::memcpy(v.data(), cmd.value, kValueBytes);
      kv.Put(cmd.key, v);
    }
    leader.Sync(t2_start +
                static_cast<SimTime>(log.size()) * sim.kv_op_ns);
    // Term 2 runs among the survivors only: replicas 2..n-1 vote, so a
    // majority of the surviving n-1 replicas commits.
    return RunLeaderTerm(leader, sim, (cfg.num_replicas - 1) / 2 + 1,
                         /*voters=*/cfg.num_replicas - 2, /*crash_at=*/0, &kv);
  }
  DFI_ASSIGN_OR_RETURN(auto propose2,
                       dfi->CreateReplicateTarget("mpx.t2.propose", r - 2));
  DFI_ASSIGN_OR_RETURN(auto vote2,
                       dfi->CreateShuffleSource("mpx.t2.vote", r - 2));
  propose2->clock().AdvanceTo(t2_start);
  vote2->clock().AdvanceTo(t2_start);
  return RunFollowerTerm(propose2.get(), vote2.get(), sim, r, &log);
}

/// Client c: opens its term-1 flows (and term-2 flows under a crash) and
/// runs the shared closed-loop driver over them.
Status RunClient(DfiRuntime* dfi, const ChaosConfig& chaos, bool failover,
                 uint32_t c, ClientOutcome* out) {
  DFI_ASSIGN_OR_RETURN(auto submit1,
                       dfi->CreateShuffleSource("mpx.t1.submit", c));
  DFI_ASSIGN_OR_RETURN(auto reply1,
                       dfi->CreateShuffleTarget("mpx.t1.reply", c));
  std::unique_ptr<ShuffleSource> submit2;
  std::unique_ptr<ShuffleTarget> reply2;
  if (failover) {
    DFI_ASSIGN_OR_RETURN(submit2, dfi->CreateShuffleSource("mpx.t2.submit", c));
    DFI_ASSIGN_OR_RETURN(reply2, dfi->CreateShuffleTarget("mpx.t2.reply", c));
  }
  DFI_ASSIGN_OR_RETURN(
      *out, RunLeaderClient(chaos.base, c, chaos.base.client_window,
                            {submit1.get(), reply1.get()},
                            {submit2.get(), reply2.get()}, chaos.crash_at_ns));
  return Status::OK();
}

}  // namespace

StatusOr<ChaosResult> RunMultiPaxosChaos(DfiRuntime* dfi,
                                         const std::vector<std::string>& nodes,
                                         const ChaosConfig& chaos) {
  const ConsensusConfig& cfg = chaos.base;
  if (nodes.size() != cfg.num_replicas + cfg.num_client_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (cfg.num_replicas < 3 || cfg.num_replicas % 2 == 0) {
    return Status::InvalidArgument("need an odd number >= 3 of replicas");
  }
  if (chaos.crash_at_ns < 0) {
    return Status::InvalidArgument("crash_at_ns must be >= 0 (0 = no crash)");
  }
  const bool failover = chaos.crash_at_ns > 0;

  // Script the fail-stop of the term-1 leader's node. Every layer consults
  // the plan at virtual operation times, so survivors can detect the death
  // even if the crashing leader's poison writes were lost.
  if (failover) {
    DFI_ASSIGN_OR_RETURN(const net::NodeId crashed,
                         dfi->fabric().ResolveAddress(nodes[0]));
    dfi->fabric().fault_plan().CrashNode(crashed, chaos.crash_at_ns);
  }

  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  lat.block_deadline_ns = chaos.block_deadline_ns;
  DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, "mpx.t1",
                                    /*leader=*/0, /*first_follower=*/1));
  if (failover) {
    DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, "mpx.t2",
                                      /*leader=*/1, /*first_follower=*/2));
  }

  internal::FirstError errors;
  std::vector<ClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  actors.Spawn(0, "mpx.t1.leader", [&] {
    auto leader = OpenLeader(dfi, "mpx.t1");
    if (!leader.ok()) {
      errors.Record(leader.status());
      return;
    }
    KvStore kv;
    const Status st = RunLeaderTerm(*leader, dfi->config(),
                                    cfg.num_replicas / 2 + 1,
                                    /*voters=*/cfg.num_replicas - 1,
                                    chaos.crash_at_ns, &kv);
    if (st.ok()) return;
    // Tear down every endpoint so no survivor blocks forever on this
    // replica. Under a scripted crash this is the fail-stop, not a failed
    // run: no clean Close — a crash does not say goodbye; the
    // poisoned-footer flag and the fault plan carry the news.
    leader->submit->Abort(st);
    leader->vote->Abort(st);
    leader->propose->Abort(st);
    leader->reply->Abort(st);
    if (!failover) errors.Record(st);
  });
  for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
    actors.Spawn(r, "mpx.replica." + std::to_string(r), [&, r] {
      errors.Record(RunReplica(dfi, chaos, failover, r));
    });
  }
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn(cfg.num_replicas + c % cfg.num_client_nodes,
                 "mpx.client." + std::to_string(c), [&, c] {
      errors.Record(RunClient(dfi, chaos, failover, c, &outcomes[c]));
    });
  }
  actors.Join();

  std::vector<std::string> flows;
  for (int term = 1; term <= (failover ? 2 : 1); ++term) {
    for (const char* kind : {".submit", ".propose", ".vote", ".reply"}) {
      flows.push_back("mpx.t" + std::to_string(term) + kind);
    }
  }
  DFI_RETURN_IF_ERROR(dfi->RemoveFlows(flows));
  DFI_RETURN_IF_ERROR(errors.Get());

  ChaosResult result;
  static_cast<ConsensusResult&>(result) = internal::Summarize(outcomes);
  result.crash_at_ns = chaos.crash_at_ns;
  result.fault_trace = dfi->fabric().fault_plan().TraceString();
  SimTime first_recovery = -1, last_recovery = -1;
  for (const auto& o : outcomes) {
    result.resubmitted += o.resubmitted;
    if (o.first_failover_reply < 0) continue;
    const SimTime rec =
        std::max<SimTime>(o.first_failover_reply - chaos.crash_at_ns, 0);
    first_recovery = first_recovery < 0 ? rec : std::min(first_recovery, rec);
    last_recovery = std::max(last_recovery, rec);
  }
  result.recovery_first_reply_ns = std::max<SimTime>(first_recovery, 0);
  result.recovery_all_clients_ns = std::max<SimTime>(last_recovery, 0);
  return result;
}

StatusOr<ConsensusResult> RunMultiPaxos(DfiRuntime* dfi,
                                        const std::vector<std::string>& nodes,
                                        const ConsensusConfig& cfg) {
  ChaosConfig run;
  run.base = cfg;
  run.crash_at_ns = 0;  // failure-free: one term
  DFI_ASSIGN_OR_RETURN(const ChaosResult result,
                       RunMultiPaxosChaos(dfi, nodes, run));
  return ConsensusResult(result);
}

}  // namespace dfi::consensus
