#include <atomic>
#include <thread>

#include "apps/consensus/internal.h"
#include "common/exec/engine.h"

namespace dfi::consensus {

using internal::ClientEndpoint;
using internal::ClientOutcome;
using internal::MakeCommand;
using internal::RunLeaderClient;
using internal::SyncClocks;
using internal::TupleDrain;

StatusOr<ConsensusResult> RunMultiPaxos(DfiRuntime* dfi,
                                        const std::vector<std::string>& nodes,
                                        const ConsensusConfig& cfg) {
  if (nodes.size() != cfg.num_replicas + cfg.num_client_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (cfg.num_replicas < 3 || cfg.num_replicas % 2 == 0) {
    return Status::InvalidArgument("need an odd number >= 3 of replicas");
  }
  const uint32_t majority = cfg.num_replicas / 2 + 1;
  const Endpoint leader_ep{nodes[0], 0};

  // ---- The four flows of paper Figure 3 ----------------------------------
  FlowOptions lat;
  lat.optimization = FlowOptimization::kLatency;
  {
    ShuffleFlowSpec submit;
    submit.name = "mp.submit";
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      submit.sources.Append(ClientEndpoint(nodes, cfg, c));
    }
    submit.targets.Append(leader_ep);
    submit.schema = Command::MakeSchema();
    submit.options = lat;
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(submit)));

    ReplicateFlowSpec propose;
    propose.name = "mp.propose";
    propose.sources.Append(leader_ep);
    for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
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
    vote.name = "mp.vote";
    for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
      vote.sources.Append(Endpoint{nodes[r], 0});
    }
    vote.targets.Append(leader_ep);
    vote.schema = Vote::MakeSchema();
    vote.options = lat;
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(vote)));

    ShuffleFlowSpec reply;
    reply.name = "mp.reply";
    reply.sources.Append(leader_ep);
    for (uint32_t c = 0; c < cfg.num_clients; ++c) {
      reply.targets.Append(ClientEndpoint(nodes, cfg, c));
    }
    reply.schema = Reply::MakeSchema();
    reply.options = lat;
    // Route replies by the client id carried in the tuple.
    reply.routing = [](TupleView t, uint32_t m) {
      return t.Get<uint16_t>(0) % m;
    };
    DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(reply)));
  }

  const uint64_t total_requests =
      static_cast<uint64_t>(cfg.num_clients) * cfg.requests_per_client;
  std::atomic<bool> failed{false};
  std::vector<ClientOutcome> outcomes(cfg.num_clients);
  exec::ActorGroup actors;

  // ---- Leader -------------------------------------------------------------
  actors.Spawn(0, "mp.leader", [&] {
    auto submit_tgt = dfi->CreateShuffleTarget("mp.submit", 0);
    auto vote_tgt = dfi->CreateShuffleTarget("mp.vote", 0);
    auto propose_src = dfi->CreateReplicateSource("mp.propose", 0);
    auto reply_src = dfi->CreateShuffleSource("mp.reply", 0);
    if (!submit_tgt.ok() || !vote_tgt.ok() || !propose_src.ok() ||
        !reply_src.ok()) {
      failed.store(true);
      return;
    }
    auto sync_all = [&] {
      SimTime t = (*submit_tgt)->clock().now();
      t = std::max(t, (*vote_tgt)->clock().now());
      t = std::max(t, (*propose_src)->clock().now());
      t = std::max(t, (*reply_src)->clock().now());
      (*submit_tgt)->clock().AdvanceTo(t);
      (*vote_tgt)->clock().AdvanceTo(t);
      (*propose_src)->clock().AdvanceTo(t);
      (*reply_src)->clock().AdvanceTo(t);
      return t;
    };

    KvStore kv;
    struct Pending {
      Command cmd;
      uint32_t votes = 1;  // the leader's own vote
      bool done = false;
    };
    std::unordered_map<uint64_t, Pending> pending;
    TupleDrain<Command> submits(submit_tgt->get());
    TupleDrain<Vote> votes(vote_tgt->get());
    uint64_t next_index = 0;
    uint64_t replied = 0;

    while (replied < total_requests) {
      // Epoch before the poll round: a delivery racing the scan bumps the
      // epoch, so the IdleWait below returns immediately instead of parking.
      const uint64_t epoch = exec::ProgressEpoch();
      bool progressed = false;
      Command cmd;
      if (submits.Next(&cmd)) {
        // Order the request, append it to the local log and forward it to
        // the followers over the replicate flow.
        sync_all();
        (*submit_tgt)->clock().Advance(cfg.replica_logic_cost_ns +
                                       cfg.log_append_cost_ns);
        const uint64_t index = next_index++;
        pending.emplace(index, Pending{cmd, 1, false});
        Proposal proposal{index, cmd};
        DFI_CHECK_OK((*propose_src)->Push(&proposal));
        progressed = true;
      }
      Vote vote;
      while (votes.Next(&vote)) {
        sync_all();
        (*vote_tgt)->clock().Advance(30);  // tallying one vote is a counter
        auto it = pending.find(vote.log_index);
        if (it != pending.end()) {
          Pending& p = it->second;
          ++p.votes;
          if (!p.done && p.votes >= majority) {
            // Committed: execute on the state machine, answer the client.
            p.done = true;
            (*vote_tgt)->clock().Advance(cfg.kv_op_cost_ns);
            Reply rep{};
            rep.client_id = p.cmd.client_id;
            rep.ok = 1;
            rep.req_id = p.cmd.req_id;
            rep.log_index = vote.log_index;
            if (p.cmd.is_write) {
              Value v;
              std::memcpy(v.data(), p.cmd.value, kValueBytes);
              kv.Put(p.cmd.key, v);
              std::memcpy(rep.value, p.cmd.value, kValueBytes);
            } else {
              Value v;
              kv.Get(p.cmd.key, &v);
              std::memcpy(rep.value, v.data(), kValueBytes);
            }
            sync_all();
            DFI_CHECK_OK((*reply_src)->Push(&rep));
            ++replied;
          }
          if (p.votes == cfg.num_replicas) pending.erase(it);
        }
        progressed = true;
      }
      if (!progressed) exec::IdleWait(epoch);
    }
    DFI_CHECK_OK((*propose_src)->Close());
    DFI_CHECK_OK((*reply_src)->Close());
    votes.DrainToEnd();
    submits.DrainToEnd();
  });

  // ---- Followers ----------------------------------------------------------
  for (uint32_t r = 1; r < cfg.num_replicas; ++r) {
    actors.Spawn(r, "mp.follower." + std::to_string(r), [&, r] {
      auto propose_tgt = dfi->CreateReplicateTarget("mp.propose", r - 1);
      auto vote_src = dfi->CreateShuffleSource("mp.vote", r - 1);
      if (!propose_tgt.ok() || !vote_src.ok()) {
        failed.store(true);
        return;
      }
      std::vector<Command> log;
      TupleView tuple;
      while ((*propose_tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        Proposal proposal;
        std::memcpy(&proposal, tuple.data(), sizeof(proposal));
        SyncClocks((*propose_tgt)->clock(), (*vote_src)->clock());
        (*propose_tgt)->clock().Advance(cfg.replica_logic_cost_ns +
                                        cfg.log_append_cost_ns);
        (*vote_src)->clock().AdvanceTo((*propose_tgt)->clock().now());
        log.push_back(proposal.cmd);
        Vote vote{proposal.log_index, static_cast<uint16_t>(r),
                  proposal.cmd.client_id, proposal.cmd.req_id};
        DFI_CHECK_OK((*vote_src)->Push(&vote));
      }
      DFI_CHECK_OK((*vote_src)->Close());
    });
  }

  // ---- Clients ------------------------------------------------------------
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    actors.Spawn(cfg.num_replicas + c % cfg.num_client_nodes,
                 "mp.client." + std::to_string(c), [&, c] {
      auto submit_src = dfi->CreateShuffleSource("mp.submit", c);
      auto reply_tgt = dfi->CreateShuffleTarget("mp.reply", c);
      if (!submit_src.ok() || !reply_tgt.ok()) {
        failed.store(true);
        return;
      }
      outcomes[c] = RunLeaderClient(submit_src->get(), reply_tgt->get(), cfg,
                                    c, cfg.client_window);
    });
  }

  actors.Join();
  DFI_RETURN_IF_ERROR(
      dfi->RemoveFlows({"mp.submit", "mp.propose", "mp.vote", "mp.reply"}));
  if (failed.load()) return Status::Internal("multi-paxos worker failed");

  ConsensusResult result;
  LatencyRecorder all;
  SimTime finish = 0;
  for (auto& o : outcomes) {
    result.completed += o.completed;
    all.Merge(o.latencies);
    finish = std::max(finish, o.finish);
  }
  result.throughput_rps =
      static_cast<double>(result.completed) * 1e9 / std::max<SimTime>(finish, 1);
  result.median_latency_ns = all.Median();
  result.p95_latency_ns = all.Quantile(0.95);
  return result;
}

}  // namespace dfi::consensus
