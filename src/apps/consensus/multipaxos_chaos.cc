// Multi-Paxos leader failover under a scripted fail-stop crash (robustness
// PR). Term 1 is the Figure-3 flow set led by replica 0; a FaultPlan crash
// fail-stops that leader mid-run. Every survivor observes the failure
// through the PR's machinery — poisoned channels, kPeerFailed fault-plan
// probes, block deadlines — *never* by hanging — and fails over to a
// pre-published term-2 flow set led by replica 1 (the emulation stand-in
// for a pre-negotiated view change; electing a leader is Paxos' own
// business, not the data-flow interface's). Clients resubmit their one
// in-flight request on the term-2 flows; the recovery metric is the
// virtual time from the crash to the first term-2 reply.

#include <atomic>
#include <thread>

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"

namespace dfi::consensus {

using internal::ClientEndpoint;
using internal::MakeCommand;
using internal::SyncClocks;
using internal::TupleDrain;

namespace {

constexpr const char* kFlows[] = {"mpx.t1.submit", "mpx.t1.propose",
                                  "mpx.t1.vote",   "mpx.t1.reply",
                                  "mpx.t2.submit", "mpx.t2.propose",
                                  "mpx.t2.vote",   "mpx.t2.reply"};

/// Per-client chaos outcome.
struct ChaosClientOutcome {
  LatencyRecorder latencies;
  SimTime finish = 0;
  uint64_t completed = 0;
  uint64_t resubmitted = 0;
  /// Virtual arrival of this client's first term-2 reply; -1 if the client
  /// finished entirely in term 1.
  SimTime first_t2_arrival = -1;
  bool failed = false;
};

/// Publishes one term's four flows (Figure 3). `leader` is the term's
/// leader replica; `first_follower` the first replica index acting as a
/// follower (term 2 excludes the crashed replica 0 entirely).
Status InitTermFlows(DfiRuntime* dfi, const std::vector<std::string>& nodes,
                     const ConsensusConfig& cfg, const FlowOptions& lat,
                     const std::string& prefix, uint32_t leader,
                     uint32_t first_follower) {
  const Endpoint leader_ep{nodes[leader], 0};

  ShuffleFlowSpec submit;
  submit.name = prefix + ".submit";
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    submit.sources.Append(ClientEndpoint(nodes, cfg, c));
  }
  submit.targets.Append(leader_ep);
  submit.schema = Command::MakeSchema();
  submit.options = lat;
  DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(submit)));

  ReplicateFlowSpec propose;
  propose.name = prefix + ".propose";
  propose.sources.Append(leader_ep);
  for (uint32_t r = first_follower; r < cfg.num_replicas; ++r) {
    propose.targets.Append(Endpoint{nodes[r], 0});
  }
  propose.schema = Proposal::MakeSchema();
  propose.options = lat;
  propose.options.use_multicast = true;
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
  DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(vote)));

  ShuffleFlowSpec reply;
  reply.name = prefix + ".reply";
  reply.sources.Append(leader_ep);
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    reply.targets.Append(ClientEndpoint(nodes, cfg, c));
  }
  reply.schema = Reply::MakeSchema();
  reply.options = lat;
  reply.routing = [](TupleView t, uint32_t m) {
    return t.Get<uint16_t>(0) % m;
  };
  return dfi->InitShuffleFlow(std::move(reply));
}

/// The generic leader loop shared by both terms: merge submits and votes in
/// virtual-arrival order, order+propose each command, reply on majority.
/// Returns false if the term ended by failure (term 1: the scripted crash —
/// detected when the leader's own virtual clock passes `crash_at`, or any
/// flow operation failing; term 2 must stay clean).
bool RunLeaderTerm(ShuffleTarget* submit_tgt, ShuffleTarget* vote_tgt,
                   ReplicateSource* propose_src, ShuffleSource* reply_src,
                   const ConsensusConfig& cfg, uint32_t majority,
                   uint32_t voters, SimTime crash_at, KvStore* kv) {
  auto sync_all = [&] {
    SimTime t = submit_tgt->clock().now();
    t = std::max(t, vote_tgt->clock().now());
    t = std::max(t, propose_src->clock().now());
    t = std::max(t, reply_src->clock().now());
    submit_tgt->clock().AdvanceTo(t);
    vote_tgt->clock().AdvanceTo(t);
    propose_src->clock().AdvanceTo(t);
    reply_src->clock().AdvanceTo(t);
    return t;
  };

  struct Pending {
    Command cmd;
    uint32_t votes = 1;  // the leader's own vote
    bool done = false;
  };
  std::unordered_map<uint64_t, Pending> pending;
  TupleDrain<Command> submits(submit_tgt);
  TupleDrain<Vote> votes(vote_tgt);
  uint64_t next_index = 0;
  uint64_t replied = 0;

  for (;;) {
    if (crash_at > 0 && sync_all() >= crash_at) return false;  // fail-stop
    if (submits.errored() || votes.errored()) return false;
    const uint64_t epoch = exec::ProgressEpoch();
    bool progressed = false;
    Command cmd;
    if (submits.Next(&cmd)) {
      sync_all();
      submit_tgt->clock().Advance(cfg.replica_logic_cost_ns +
                                  cfg.log_append_cost_ns);
      const uint64_t index = next_index++;
      pending.emplace(index, Pending{cmd, 1, false});
      Proposal proposal{index, cmd};
      if (!propose_src->Push(&proposal).ok()) return false;
      progressed = true;
    }
    Vote vote;
    while (votes.Next(&vote)) {
      sync_all();
      vote_tgt->clock().Advance(30);
      auto it = pending.find(vote.log_index);
      if (it != pending.end()) {
        Pending& p = it->second;
        ++p.votes;
        if (!p.done && p.votes >= majority) {
          p.done = true;
          vote_tgt->clock().Advance(cfg.kv_op_cost_ns);
          Reply rep{};
          rep.client_id = p.cmd.client_id;
          rep.ok = 1;
          rep.req_id = p.cmd.req_id;
          rep.log_index = vote.log_index;
          if (p.cmd.is_write) {
            Value v;
            std::memcpy(v.data(), p.cmd.value, kValueBytes);
            kv->Put(p.cmd.key, v);
            std::memcpy(rep.value, p.cmd.value, kValueBytes);
          } else {
            Value v;
            kv->Get(p.cmd.key, &v);
            std::memcpy(rep.value, v.data(), kValueBytes);
          }
          sync_all();
          if (!reply_src->Push(&rep).ok()) return false;
          ++replied;
        }
        if (p.votes == voters + 1) pending.erase(it);
      }
      progressed = true;
    }
    if (!progressed) {
      // The term is over once every client closed its submit source and
      // every ordered command was committed and answered. (Term 1 under a
      // crash never gets here — the fail-stop above fires first.)
      if (submits.ended() && replied == next_index) break;
      exec::IdleWait(epoch);
    }
  }
  if (!propose_src->Close().ok()) return false;
  if (!reply_src->Close().ok()) return false;
  votes.DrainToEnd();
  return !votes.errored();
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

  // Script the fail-stop of the term-1 leader's node. Every layer consults
  // the plan at virtual operation times, so survivors can detect the death
  // even if the crashing leader's poison writes were lost.
  if (chaos.crash_at_ns > 0) {
    DFI_ASSIGN_OR_RETURN(const net::NodeId crashed,
                         dfi->fabric().ResolveAddress(nodes[0]));
    dfi->fabric().fault_plan().CrashNode(crashed, chaos.crash_at_ns);
  }

  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  lat.block_deadline_ns = chaos.block_deadline_ns;
  DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, "mpx.t1",
                                    /*leader=*/0, /*first_follower=*/1));
  DFI_RETURN_IF_ERROR(InitTermFlows(dfi, nodes, cfg, lat, "mpx.t2",
                                    /*leader=*/1, /*first_follower=*/2));

  const uint32_t majority1 = cfg.num_replicas / 2 + 1;
  // Term 2 runs among the survivors only: replica 1 leads, replicas
  // 2..n-1 vote, so a majority of the surviving n-1 replicas commits.
  const uint32_t majority2 = (cfg.num_replicas - 1) / 2 + 1;
  std::atomic<bool> failed{false};
  std::vector<ChaosClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  // ---- Term-1 leader (replica 0, the crash victim) ------------------------
  actors.Spawn(0, "mpx.t1.leader", [&] {
    auto submit_tgt = dfi->CreateShuffleTarget("mpx.t1.submit", 0);
    auto vote_tgt = dfi->CreateShuffleTarget("mpx.t1.vote", 0);
    auto propose_src = dfi->CreateReplicateSource("mpx.t1.propose", 0);
    auto reply_src = dfi->CreateShuffleSource("mpx.t1.reply", 0);
    if (!submit_tgt.ok() || !vote_tgt.ok() || !propose_src.ok() ||
        !reply_src.ok()) {
      failed.store(true);
      return;
    }
    KvStore kv;
    if (!RunLeaderTerm(submit_tgt->get(), vote_tgt->get(), propose_src->get(),
                       reply_src->get(), cfg, majority1,
                       /*voters=*/cfg.num_replicas - 1, chaos.crash_at_ns,
                       &kv)) {
      // Fail-stop: tear down every endpoint so no survivor blocks forever
      // on this replica, then vanish. No clean Close — a crash does not say
      // goodbye; the poisoned-footer flag and the fault plan carry the news.
      const Status cause = Status::PeerFailed("term-1 leader fail-stopped");
      (*submit_tgt)->Abort(cause);
      (*vote_tgt)->Abort(cause);
      (*propose_src)->Abort(cause);
      (*reply_src)->Abort(cause);
    }
  });

  // ---- Followers (replicas 1..n-1): term 1, then their term-2 role --------
  for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
    actors.Spawn(r, "mpx.follower." + std::to_string(r), [&, r] {
      auto propose_tgt = dfi->CreateReplicateTarget("mpx.t1.propose", r - 1);
      auto vote_src = dfi->CreateShuffleSource("mpx.t1.vote", r - 1);
      if (!propose_tgt.ok() || !vote_src.ok()) {
        failed.store(true);
        return;
      }
      std::vector<Command> log;
      bool t1_down = false;
      TupleView tuple;
      for (;;) {
        const ConsumeResult res = (*propose_tgt)->Consume(&tuple);
        if (res == ConsumeResult::kFlowEnd) break;
        if (res != ConsumeResult::kOk) {
          t1_down = true;  // leader died: kError from poison/fault plan
          break;
        }
        Proposal proposal;
        std::memcpy(&proposal, tuple.data(), sizeof(proposal));
        SyncClocks((*propose_tgt)->clock(), (*vote_src)->clock());
        (*propose_tgt)->clock().Advance(cfg.replica_logic_cost_ns +
                                        cfg.log_append_cost_ns);
        (*vote_src)->clock().AdvanceTo((*propose_tgt)->clock().now());
        log.push_back(proposal.cmd);
        Vote vote{proposal.log_index, static_cast<uint16_t>(r),
                  proposal.cmd.client_id, proposal.cmd.req_id};
        if (!(*vote_src)->Push(&vote).ok()) {
          t1_down = true;  // vote ring at the dead leader
          break;
        }
      }
      if (t1_down) {
        (*vote_src)->Abort(Status::Aborted("follower left term 1"));
      } else if (!(*vote_src)->Close().ok()) {
        t1_down = true;
      }
      // A crash can only be *observed* after it happened: term 2 starts at
      // the later of this replica's local time and the crash time.
      SimTime t2_start =
          std::max((*propose_tgt)->clock().now(), (*vote_src)->clock().now());
      if (t1_down) t2_start = std::max(t2_start, chaos.crash_at_ns);

      if (r == 1) {
        // ---- Term-2 leader ------------------------------------------------
        auto submit2 = dfi->CreateShuffleTarget("mpx.t2.submit", 0);
        auto vote2 = dfi->CreateShuffleTarget("mpx.t2.vote", 0);
        auto propose2 = dfi->CreateReplicateSource("mpx.t2.propose", 0);
        auto reply2 = dfi->CreateShuffleSource("mpx.t2.reply", 0);
        if (!submit2.ok() || !vote2.ok() || !propose2.ok() || !reply2.ok()) {
          failed.store(true);
          return;
        }
        // Recovery work: replay the replicated log into the new leader's
        // state machine before serving — part of the measured recovery time.
        KvStore kv;
        for (const Command& cmd : log) {
          if (!cmd.is_write) continue;
          Value v;
          std::memcpy(v.data(), cmd.value, kValueBytes);
          kv.Put(cmd.key, v);
        }
        t2_start += static_cast<SimTime>(log.size()) * cfg.kv_op_cost_ns;
        (*submit2)->clock().AdvanceTo(t2_start);
        (*vote2)->clock().AdvanceTo(t2_start);
        (*propose2)->clock().AdvanceTo(t2_start);
        (*reply2)->clock().AdvanceTo(t2_start);
        if (!RunLeaderTerm(submit2->get(), vote2->get(), propose2->get(),
                           reply2->get(), cfg, majority2,
                           /*voters=*/cfg.num_replicas - 2,
                           /*crash_at=*/0, &kv)) {
          failed.store(true);  // term 2 must stay clean
        }
      } else {
        // ---- Term-2 follower ----------------------------------------------
        auto propose2 = dfi->CreateReplicateTarget("mpx.t2.propose", r - 2);
        auto vote2 = dfi->CreateShuffleSource("mpx.t2.vote", r - 2);
        if (!propose2.ok() || !vote2.ok()) {
          failed.store(true);
          return;
        }
        (*propose2)->clock().AdvanceTo(t2_start);
        (*vote2)->clock().AdvanceTo(t2_start);
        for (;;) {
          const ConsumeResult res = (*propose2)->Consume(&tuple);
          if (res == ConsumeResult::kFlowEnd) break;
          if (res != ConsumeResult::kOk) {
            failed.store(true);
            (*vote2)->Abort(Status::Aborted("term-2 follower failed"));
            return;
          }
          Proposal proposal;
          std::memcpy(&proposal, tuple.data(), sizeof(proposal));
          SyncClocks((*propose2)->clock(), (*vote2)->clock());
          (*propose2)->clock().Advance(cfg.replica_logic_cost_ns +
                                       cfg.log_append_cost_ns);
          (*vote2)->clock().AdvanceTo((*propose2)->clock().now());
          Vote vote{proposal.log_index, static_cast<uint16_t>(r),
                    proposal.cmd.client_id, proposal.cmd.req_id};
          if (!(*vote2)->Push(&vote).ok()) {
            failed.store(true);
            return;
          }
        }
        if (!(*vote2)->Close().ok()) failed.store(true);
      }
    });
  }

  // ---- Clients: window 1, resubmit the in-flight request on failover ------
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn(cfg.num_replicas + c % cfg.num_client_nodes,
                 "mpx.client." + std::to_string(c), [&, c] {
      auto submit1 = dfi->CreateShuffleSource("mpx.t1.submit", c);
      auto reply1 = dfi->CreateShuffleTarget("mpx.t1.reply", c);
      auto submit2 = dfi->CreateShuffleSource("mpx.t2.submit", c);
      auto reply2 = dfi->CreateShuffleTarget("mpx.t2.reply", c);
      if (!submit1.ok() || !reply1.ok() || !submit2.ok() || !reply2.ok()) {
        failed.store(true);
        return;
      }
      ChaosClientOutcome& out = outcomes[c];
      const auto requests = bench::GenerateYcsbRequests(
          cfg.requests_per_client, cfg.key_space, cfg.write_fraction,
          /*zipf_theta=*/0.0, cfg.seed + c);
      out.latencies.Reserve(cfg.requests_per_client);

      int term = 1;
      ShuffleSource* src = submit1->get();
      ShuffleTarget* tgt = reply1->get();
      auto fail_over = [&] {
        const Status cause = Status::Aborted("client failed over to term 2");
        (*submit1)->Abort(cause);
        (*reply1)->Abort(cause);
        const SimTime t = std::max(
            {src->clock().now(), tgt->clock().now(), chaos.crash_at_ns});
        term = 2;
        src = submit2->get();
        tgt = reply2->get();
        src->clock().AdvanceTo(t);
        tgt->clock().AdvanceTo(t);
      };

      uint32_t i = 0;
      bool resend = false;
      while (i < cfg.requests_per_client && !out.failed) {
        const bool is_resend = resend;
        resend = false;
        SyncClocks(src->clock(), tgt->clock());
        if (i > 0 && !is_resend) src->clock().Advance(cfg.think_time_ns);
        tgt->clock().AdvanceTo(src->clock().now());
        const Command cmd =
            MakeCommand(static_cast<uint16_t>(c), i, requests[i]);
        const SimTime send = src->clock().now();
        if (is_resend) ++out.resubmitted;
        if (!src->Push(&cmd).ok()) {
          if (term == 1) {
            fail_over();
            resend = true;
            continue;
          }
          out.failed = true;
          break;
        }
        // Window 1: wait for the reply to request i on the current term.
        for (;;) {
          SegmentView seg;
          const ConsumeResult r = tgt->ConsumeSegment(&seg);
          if (r == ConsumeResult::kOk) {
            Reply rep;
            std::memcpy(&rep, seg.payload, sizeof(rep));
            if (rep.req_id != i) continue;  // stale duplicate
            SyncClocks(src->clock(), tgt->clock());
            out.latencies.Record(std::max<SimTime>(seg.arrival - send, 0));
            if (term == 2 && out.first_t2_arrival < 0) {
              out.first_t2_arrival = seg.arrival;
            }
            ++out.completed;
            ++i;
            break;
          }
          if (r == ConsumeResult::kError && term == 1) {
            // The leader died with our request in flight: fail over and
            // resubmit it on the term-2 flows.
            fail_over();
            resend = true;
            break;
          }
          out.failed = true;  // term-2 error or premature flow end
          break;
        }
      }
      out.finish = tgt->clock().now();
      if (out.failed) return;

      if (term == 1) {
        // Never saw the crash (it happened after our last reply, if at
        // all). The term-1 teardown may still fail mid-drain — fine.
        (void)src->Close();
        SegmentView seg;
        for (;;) {
          const ConsumeResult r = (*reply1)->ConsumeSegment(&seg);
          if (r == ConsumeResult::kFlowEnd || r == ConsumeResult::kError) {
            break;
          }
        }
        const SimTime t = std::max(src->clock().now(), tgt->clock().now());
        (*submit2)->clock().AdvanceTo(t);
        (*reply2)->clock().AdvanceTo(t);
      }
      // Every client closes its term-2 submit — the term-2 leader ends its
      // term on that — and drains term-2 replies so its Close never blocks.
      if (!(*submit2)->Close().ok()) {
        failed.store(true);
        return;
      }
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*reply2)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        if (r == ConsumeResult::kError) {
          failed.store(true);
          return;
        }
      }
    });
  }

  actors.Join();
  DFI_RETURN_IF_ERROR(
      dfi->RemoveFlows({std::begin(kFlows), std::end(kFlows)}));
  for (const auto& o : outcomes) {
    if (o.failed) failed.store(true);
  }
  if (failed.load()) return Status::Internal("chaos multi-paxos worker failed");

  ChaosResult result;
  result.crash_at_ns = chaos.crash_at_ns;
  result.fault_trace = dfi->fabric().fault_plan().TraceString();
  SimTime finish = 0;
  SimTime first_recovery = -1, last_recovery = -1;
  for (auto& o : outcomes) {
    result.completed += o.completed;
    result.resubmitted += o.resubmitted;
    finish = std::max(finish, o.finish);
    if (o.first_t2_arrival >= 0) {
      const SimTime rec =
          std::max<SimTime>(o.first_t2_arrival - chaos.crash_at_ns, 0);
      first_recovery =
          first_recovery < 0 ? rec : std::min(first_recovery, rec);
      last_recovery = std::max(last_recovery, rec);
    }
  }
  result.recovery_first_reply_ns = std::max<SimTime>(first_recovery, 0);
  result.recovery_all_clients_ns = std::max<SimTime>(last_recovery, 0);
  result.throughput_rps = static_cast<double>(result.completed) * 1e9 /
                          std::max<SimTime>(finish, 1);
  return result;
}

}  // namespace dfi::consensus
