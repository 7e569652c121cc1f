#include "apps/join/distributed_join.h"

#include <gtest/gtest.h>

#include "apps/join/hash_table.h"
#include "bench_util/workload.h"
#include "common/exec/engine.h"

namespace dfi::join {
namespace {

TEST(JoinHashTableTest, InsertAndProbe) {
  JoinHashTable table;
  table.Reserve(100);
  for (uint64_t k = 0; k < 100; ++k) {
    table.Insert(k, k * 10);
  }
  EXPECT_EQ(table.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    uint64_t payload = 0;
    EXPECT_EQ(table.Probe(k, [&](uint64_t p) { payload = p; }), 1u);
    EXPECT_EQ(payload, k * 10);
  }
  EXPECT_EQ(table.CountMatches(1000), 0u);
}

TEST(JoinHashTableTest, DuplicateKeys) {
  JoinHashTable table;
  table.Reserve(10);
  table.Insert(7, 1);
  table.Insert(7, 2);
  table.Insert(7, 3);
  EXPECT_EQ(table.CountMatches(7), 3u);
}

TEST(JoinHashTableTest, EmptyTableProbe) {
  JoinHashTable table;
  EXPECT_EQ(table.CountMatches(1), 0u);
}

class DistributedJoinTest : public ::testing::Test {
 protected:
  JoinConfig SmallConfig() {
    JoinConfig cfg;
    cfg.num_nodes = 4;
    cfg.workers_per_node = 2;
    cfg.inner_tuples = 1 << 14;
    cfg.outer_tuples = 1 << 15;
    cfg.local_radix_bits = 4;
    return cfg;
  }

  std::vector<std::string> SetUpNodes(net::Fabric* fabric, uint32_t n) {
    std::vector<std::string> addrs;
    for (net::NodeId id : fabric->AddNodes(n)) {
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

TEST_F(DistributedJoinTest, DfiRadixJoinMatchesReference) {
  net::Fabric fabric;
  const JoinConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunDfiRadixJoin(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->matches, ReferenceJoinMatches(cfg));
  EXPECT_GT(result->phases.network_partition, 0);
  EXPECT_GT(result->phases.total, result->phases.network_partition);
  EXPECT_EQ(result->phases.histogram, 0) << "DFI join needs no histogram";
  EXPECT_EQ(result->phases.sync_barrier, 0) << "DFI join needs no barrier";
}

TEST_F(DistributedJoinTest, GraphRadixJoinMatchesReference) {
  // The same join expressed as built-in graph operators (two kSource scans
  // feeding a kJoin vertex) finds exactly the reference match count.
  net::Fabric fabric;
  const JoinConfig cfg = SmallConfig();
  auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunGraphRadixJoin(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->matches, ReferenceJoinMatches(cfg));
  EXPECT_GT(result->phases.total, 0);
}

TEST_F(DistributedJoinTest, MpiRadixJoinMatchesReference) {
  net::Fabric fabric;
  const JoinConfig cfg = SmallConfig();
  SetUpNodes(&fabric, cfg.num_nodes);
  std::vector<net::NodeId> ids;
  for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
  auto result = OnEngine([&] { return RunMpiRadixJoin(&fabric, ids, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->matches, ReferenceJoinMatches(cfg));
  EXPECT_GT(result->phases.histogram, 0);
  EXPECT_GT(result->phases.sync_barrier, 0);
  EXPECT_GT(result->phases.network_partition, 0);
}

TEST_F(DistributedJoinTest, ReplicateJoinMatchesReference) {
  net::Fabric fabric;
  JoinConfig cfg = SmallConfig();
  cfg.inner_tuples = 1 << 10;  // small inner: fragment-and-replicate case
  auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
  DfiRuntime dfi(&fabric);
  auto result = OnEngine([&] { return RunDfiReplicateJoin(&dfi, addrs, cfg); });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->matches, ReferenceJoinMatches(cfg));
  EXPECT_GT(result->phases.network_replication, 0);
}

TEST_F(DistributedJoinTest, DfiFasterThanMpi) {
  // The headline of Figure 13: the DFI radix join beats the MPI radix join
  // (no histogram pass, no barrier, overlapped communication). Needs a
  // bandwidth-bound scale — at tiny sizes fixed per-channel latencies
  // dominate and the advantage vanishes (crossover ~2^16 tuples here).
  JoinConfig cfg = SmallConfig();
  cfg.inner_tuples = 1 << 16;
  cfg.outer_tuples = 1 << 16;
  net::Fabric fabric_dfi;
  auto addrs = SetUpNodes(&fabric_dfi, cfg.num_nodes);
  DfiRuntime dfi(&fabric_dfi);
  auto dfi_result = OnEngine([&] { return RunDfiRadixJoin(&dfi, addrs, cfg); });
  ASSERT_TRUE(dfi_result.ok());

  net::Fabric fabric_mpi;
  SetUpNodes(&fabric_mpi, cfg.num_nodes);
  std::vector<net::NodeId> ids;
  for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
  auto mpi_result =
      OnEngine([&] { return RunMpiRadixJoin(&fabric_mpi, ids, cfg); });
  ASSERT_TRUE(mpi_result.ok());

  EXPECT_LT(dfi_result->phases.total, mpi_result->phases.total);
}

TEST_F(DistributedJoinTest, ReplicateJoinWinsForTinyInner) {
  // Figure 14: with a 1000x smaller inner relation, replicating the inner
  // beats shuffling both relations.
  JoinConfig cfg = SmallConfig();
  cfg.inner_tuples = cfg.outer_tuples / 1024;
  {
    net::Fabric f;
    auto addrs = SetUpNodes(&f, cfg.num_nodes);
    DfiRuntime dfi(&f);
    auto radix = OnEngine([&] { return RunDfiRadixJoin(&dfi, addrs, cfg); });
    ASSERT_TRUE(radix.ok());
    net::Fabric f2;
    auto addrs2 = SetUpNodes(&f2, cfg.num_nodes);
    DfiRuntime dfi2(&f2);
    auto repl =
        OnEngine([&] { return RunDfiReplicateJoin(&dfi2, addrs2, cfg); });
    ASSERT_TRUE(repl.ok());
    EXPECT_EQ(radix->matches, repl->matches);
    EXPECT_LT(repl->phases.total, radix->phases.total);
  }
}

TEST(WorkloadTest, UniformRelationDeterministic) {
  auto a = bench::GenerateUniformRelation(1000, 100, 7);
  auto b = bench::GenerateUniformRelation(1000, 100, 7);
  ASSERT_EQ(a.size(), 1000u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_LT(a[i].key, 100u);
  }
}

TEST(WorkloadTest, PrimaryKeyRelationIsPermutation) {
  auto rel = bench::GeneratePrimaryKeyRelation(512, 3);
  std::vector<bool> seen(512, false);
  for (const auto& t : rel) {
    ASSERT_LT(t.key, 512u);
    EXPECT_FALSE(seen[t.key]);
    seen[t.key] = true;
  }
}

TEST(WorkloadTest, YcsbWriteFraction) {
  auto reqs = bench::GenerateYcsbRequests(20000, 1000, 0.05, 0.0, 9);
  size_t writes = 0;
  for (const auto& r : reqs)

    if (r.is_write) ++writes;
  EXPECT_NEAR(writes, 1000, 200);
}

}  // namespace
}  // namespace dfi::join
