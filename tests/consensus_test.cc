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
