#include "apps/consensus/consensus.h"

#include <gtest/gtest.h>

#include "apps/consensus/kv_store.h"
#include "apps/consensus/messages.h"
#include "common/exec/engine.h"

namespace dfi::consensus {
namespace {

TEST(KvStoreTest, PutGet) {
  KvStore kv;
  Value v;
  v.fill(9);
  kv.Put(42, v);
  Value out;
  EXPECT_TRUE(kv.Get(42, &out));
  EXPECT_EQ(out, v);
  EXPECT_FALSE(kv.Get(43, &out));
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(MessagesTest, SchemasMatchStructLayouts) {
  EXPECT_EQ(Command::MakeSchema().tuple_size(), sizeof(Command));
  EXPECT_EQ(Reply::MakeSchema().tuple_size(), sizeof(Reply));
  EXPECT_EQ(Proposal::MakeSchema().tuple_size(), sizeof(Proposal));
  EXPECT_EQ(Vote::MakeSchema().tuple_size(), sizeof(Vote));
  EXPECT_EQ(sizeof(Command), 64u) << "paper: 64-byte requests";
}

class ConsensusTest : public ::testing::Test {
 protected:
  ConsensusConfig SmallConfig() {
    ConsensusConfig cfg;
    cfg.requests_per_client = 300;
    return cfg;
  }

  std::vector<std::string> SetUpNodes(net::Fabric* fabric,
                                      const ConsensusConfig& cfg) {
    std::vector<std::string> addrs;
    for (net::NodeId id :
         fabric->AddNodes(cfg.num_replicas + cfg.num_client_nodes)) {
      addrs.push_back(fabric->node(id).address());
    }
    return addrs;
  }

  /// Runs `app` as the root task of a one-worker engine; the app spawns
  /// its actors on the calling task's engine.
  template <typename Fn>
  static auto OnEngine(Fn app) {
    decltype(app()) result = Status::Internal("not run");
    exec::Engine engine;
    engine.Spawn(0, "root", [&] { result = app(); });
    engine.Run();
    return result;
  }
};

TEST_F(ConsensusTest, MultiPaxosCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
  EXPECT_GT(result->throughput_rps, 0);
  EXPECT_GT(result->median_latency_ns, 0);
  EXPECT_GE(result->p95_latency_ns, result->median_latency_ns);
}

TEST_F(ConsensusTest, NoPaxosCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunNoPaxos(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
  EXPECT_GT(result->median_latency_ns, 0);
}

TEST_F(ConsensusTest, DareCompletesAllRequests) {
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunDare(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed,
            uint64_t{cfg.num_clients} * cfg.requests_per_client);
}

TEST_F(ConsensusTest, DfiSystemsOutperformDare) {
  // The headline of Figure 15: both DFI-based implementations consistently
  // beat DARE in throughput (sequential clients + serializing write
  // protocol cap DARE).
  const ConsensusConfig cfg = SmallConfig();
  double dare_rps, paxos_rps, nopaxos_rps;
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunDare(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    dare_rps = r->throughput_rps;
  }
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    paxos_rps = r->throughput_rps;
  }
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg);
    DfiRuntime dfi(&f);
    auto r = OnEngine([&] { return RunNoPaxos(&dfi, addrs, cfg); });
    ASSERT_TRUE(r.ok());
    nopaxos_rps = r->throughput_rps;
  }
  EXPECT_GT(paxos_rps, dare_rps);
  EXPECT_GT(nopaxos_rps, dare_rps);
}

TEST_F(ConsensusTest, ProtocolsChargeTheirSimConfigCosts) {
  // Every protocol reads its costs from the fabric's SimConfig: doubling
  // any one cost a protocol charges lowers its throughput.
  using Cost = SimTime net::SimConfig::*;
  using RunFn = StatusOr<ConsensusResult> (*)(
      DfiRuntime*, const std::vector<std::string>&, const ConsensusConfig&);
  struct NamedCost {
    const char* name;
    Cost cost;
  };
  const NamedCost kv_op{"kv_op_ns", &net::SimConfig::kv_op_ns};
  const NamedCost log_append{"log_append_ns", &net::SimConfig::log_append_ns};
  const NamedCost replica_logic{"replica_logic_ns",
                                &net::SimConfig::replica_logic_ns};
  const NamedCost vote{"vote_tally_ns", &net::SimConfig::vote_tally_ns};
  const NamedCost dare_write{"dare_write_overhead_ns",
                             &net::SimConfig::dare_write_overhead_ns};
  const NamedCost dare_request{"dare_request_overhead_ns",
                               &net::SimConfig::dare_request_overhead_ns};
  struct Case {
    const char* name;
    RunFn run;
    std::vector<NamedCost> costs;
  };
  const Case cases[] = {
      {"multi-paxos", &RunMultiPaxos, {kv_op, log_append, replica_logic, vote}},
      {"nopaxos", &RunNoPaxos, {kv_op, log_append, replica_logic}},
      {"dare", &RunDare, {kv_op, log_append, dare_write, dare_request}},
  };
  const ConsensusConfig cfg = SmallConfig();
  auto run_with = [&](RunFn run, const net::SimConfig& sim) {
    net::Fabric fabric(sim);
    auto addrs = SetUpNodes(&fabric, cfg);
    DfiRuntime dfi(&fabric);
    return OnEngine([&] { return run(&dfi, addrs, cfg); });
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto base = run_with(c.run, net::SimConfig());
    ASSERT_TRUE(base.ok()) << base.status();
    for (const NamedCost& nc : c.costs) {
      SCOPED_TRACE(nc.name);
      net::SimConfig sim;
      sim.*nc.cost *= 2;
      auto doubled = run_with(c.run, sim);
      ASSERT_TRUE(doubled.ok()) << doubled.status();
      EXPECT_EQ(doubled->completed, base->completed);
      EXPECT_LT(doubled->throughput_rps, base->throughput_rps);
    }
  }
}

TEST_F(ConsensusTest, LeaderCrashCompletesEveryRequest) {
  // The term-1 leader fail-stops at 100 us, while every client still has
  // requests outstanding.
  for (uint32_t window : {1u, 8u}) {
    SCOPED_TRACE("client_window " + std::to_string(window));
    ChaosConfig chaos;
    chaos.base.requests_per_client = 100;
    chaos.base.client_window = window;
    chaos.crash_at_ns = 100'000;
    net::Fabric fabric;
    auto addrs = SetUpNodes(&fabric, chaos.base);
    DfiRuntime dfi(&fabric);
    auto r = OnEngine([&] { return RunMultiPaxosChaos(&dfi, addrs, chaos); });
    ASSERT_TRUE(r.ok()) << r.status();
    const uint32_t clients = chaos.base.num_clients;
    EXPECT_EQ(r->completed, uint64_t{clients} * chaos.base.requests_per_client);
    // Clients resubmit what they had in flight: exactly one request each at
    // window 1, up to a window each otherwise.
    EXPECT_GE(r->resubmitted, window == 1 ? clients : 1u);
    EXPECT_LE(r->resubmitted, uint64_t{window} * clients);
    EXPECT_GT(r->recovery_first_reply_ns, 0);
    EXPECT_LE(r->recovery_first_reply_ns, r->recovery_all_clients_ns);
    EXPECT_LT(r->recovery_all_clients_ns, chaos.block_deadline_ns);
  }
}

TEST_F(ConsensusTest, FailureFreeRunReportsALeaderCrashAsStatus) {
  // Without a failover term a dead leader is a failed run: every actor
  // unwinds and the run returns the fault instead of aborting the process.
  net::Fabric fabric;
  const ConsensusConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg);
  fabric.fault_plan().CrashNode(0, /*at=*/100'000);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunMultiPaxos(&dfi, addrs, cfg); });
  EXPECT_EQ(result.status().code(), StatusCode::kPeerFailed)
      << result.status();
}

TEST_F(ConsensusTest, ValidatesReplicaCount) {
  net::Fabric fabric;
  ConsensusConfig cfg = SmallConfig();
  cfg.num_replicas = 4;  // even: no clean majority
  fabric.AddNodes(cfg.num_replicas + cfg.num_client_nodes);
  std::vector<std::string> addrs;
  for (uint32_t i = 0; i < cfg.num_replicas + cfg.num_client_nodes; ++i) {
    addrs.push_back(fabric.node(i).address());
  }
  DfiRuntime dfi(&fabric);
  EXPECT_EQ(RunMultiPaxos(&dfi, addrs, cfg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunNoPaxos(&dfi, addrs, cfg).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunDare(&dfi, addrs, cfg).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dfi::consensus
