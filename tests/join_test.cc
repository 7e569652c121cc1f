#include "apps/join/distributed_join.h"

#include <gtest/gtest.h>

#include "bench_util/workload.h"
#include "common/exec/engine.h"
#include "common/units.h"

namespace dfi::join {
namespace {

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

  enum class Join { kDfiRadix, kMpiRadix, kDfiReplicate };

  /// Runs `join` over `cfg` on a fresh fabric whose cost model is `sim`.
  StatusOr<JoinResult> RunJoin(Join join, const JoinConfig& cfg,
                               const net::SimConfig& sim) {
    net::Fabric fabric(sim);
    auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
    std::vector<net::NodeId> ids;
    for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
    DfiRuntime dfi(&fabric);
    return OnEngine([&]() -> StatusOr<JoinResult> {
      switch (join) {
        case Join::kDfiRadix:
          return RunDfiRadixJoin(&dfi, addrs, cfg);
        case Join::kMpiRadix:
          return RunMpiRadixJoin(&fabric, ids, cfg);
        case Join::kDfiReplicate:
          return RunDfiReplicateJoin(&dfi, addrs, cfg);
      }
      return Status::Internal("unknown join");
    });
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

TEST_F(DistributedJoinTest, RadixBitsAbove16Rejected) {
  net::Fabric fabric;
  JoinConfig cfg = SmallConfig();
  cfg.local_radix_bits = 17;
  auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
  DfiRuntime dfi(&fabric);
  std::vector<net::NodeId> ids;
  for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
  auto dfi_result =
      OnEngine([&] { return RunDfiRadixJoin(&dfi, addrs, cfg); });
  EXPECT_EQ(dfi_result.status().code(), StatusCode::kInvalidArgument);
  auto mpi_result = OnEngine([&] { return RunMpiRadixJoin(&fabric, ids, cfg); });
  EXPECT_EQ(mpi_result.status().code(), StatusCode::kInvalidArgument);
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

TEST_F(DistributedJoinTest, JoinsChargeTheirSimConfigCosts) {
  // Every join reads its per-tuple costs from the fabric's SimConfig:
  // doubling any one cost a join charges makes it finish later, and leaves
  // its matches alone.
  using Cost = SimTime net::SimConfig::*;
  struct NamedCost {
    const char* name;
    Cost cost;
  };
  const NamedCost histogram{"join_histogram_ns",
                            &net::SimConfig::join_histogram_ns};
  const NamedCost partition{"join_partition_ns",
                            &net::SimConfig::join_partition_ns};
  const NamedCost build{"join_build_ns", &net::SimConfig::join_build_ns};
  const NamedCost probe{"join_probe_ns", &net::SimConfig::join_probe_ns};
  struct Case {
    const char* name;
    Join join;
    std::vector<NamedCost> costs;
  };
  const Case cases[] = {
      {"dfi radix", Join::kDfiRadix, {partition, build, probe}},
      {"mpi radix", Join::kMpiRadix, {histogram, partition, build, probe}},
      {"dfi replicate", Join::kDfiReplicate, {build, probe}},
  };
  const JoinConfig cfg = SmallConfig();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto base = RunJoin(c.join, cfg, net::SimConfig());
    ASSERT_TRUE(base.ok()) << base.status();
    for (const NamedCost& nc : c.costs) {
      SCOPED_TRACE(nc.name);
      net::SimConfig sim;
      sim.*nc.cost *= 2;
      auto doubled = RunJoin(c.join, cfg, sim);
      ASSERT_TRUE(doubled.ok()) << doubled.status();
      EXPECT_GT(doubled->phases.total, base->phases.total);
      EXPECT_EQ(doubled->matches, base->matches);
    }
  }
}

TEST_F(DistributedJoinTest, DfiRadixJoinChargesThePartitionPassOnBothSides) {
  // The fused DFI join partitions every tuple it receives, as the MPI join
  // and kJoin do: raising join_partition_ns by d lengthens the network
  // partition phase by d per inner tuple of a worker and the build+probe
  // phase by d per outer tuple. Key-hash routing gives each worker its
  // share of both relations to within 10 %.
  constexpr SimTime kExtra = 100;
  const JoinConfig cfg = SmallConfig();
  const double workers = cfg.total_workers();
  net::SimConfig sim;
  auto base = RunJoin(Join::kDfiRadix, cfg, sim);
  ASSERT_TRUE(base.ok()) << base.status();
  sim.join_partition_ns += kExtra;
  auto raised = RunJoin(Join::kDfiRadix, cfg, sim);
  ASSERT_TRUE(raised.ok()) << raised.status();
  const double inner_charge = kExtra * (cfg.inner_tuples / workers);
  const double outer_charge = kExtra * (cfg.outer_tuples / workers);
  EXPECT_NEAR(static_cast<double>(raised->phases.network_partition -
                                  base->phases.network_partition),
              inner_charge, inner_charge / 10);
  EXPECT_NEAR(static_cast<double>(raised->phases.build_probe -
                                  base->phases.build_probe),
              outer_charge, outer_charge / 10);
}

TEST_F(DistributedJoinTest, CrashedNodeFailsTheJoin) {
  // A node that crashes mid-join fails the DFI joins with a Status: every
  // worker stops on its failed push, close or consume, and the first
  // failure aborts the join's flows so no worker waits on a dead peer.
  struct Case {
    const char* name;
    Join join;
    uint64_t inner_tuples;
    SimTime crash_at;
  };
  const Case cases[] = {
      {"dfi radix", Join::kDfiRadix, 1 << 14, 150 * kMicrosecond},
      {"dfi replicate", Join::kDfiReplicate, 1 << 10, 1 * kMicrosecond},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    JoinConfig cfg = SmallConfig();
    cfg.inner_tuples = c.inner_tuples;
    net::Fabric fabric;
    fabric.fault_plan().CrashNode(1, c.crash_at);
    auto addrs = SetUpNodes(&fabric, cfg.num_nodes);
    DfiRuntime dfi(&fabric);
    auto result = OnEngine([&]() -> StatusOr<JoinResult> {
      return c.join == Join::kDfiRadix
                 ? RunDfiRadixJoin(&dfi, addrs, cfg)
                 : RunDfiReplicateJoin(&dfi, addrs, cfg);
    });
    EXPECT_EQ(result.status().code(), StatusCode::kPeerFailed)
        << result.status();
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
