// Figure 14: join adaptability — with a 1000x smaller inner relation,
// swapping the inner shuffle flow for a replicate flow (fragment-and-
// replicate join) is a one-line change in DFI and wins.
// Paper result: DFI radix < MPI radix; DFI replicate join another ~20%
// faster (the tiny inner is cheap to replicate; the big outer stays local).

#include "apps/join/distributed_join.h"
#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

void Body() {
  PrintSection(
      "Figure 14: distributed joins with a small inner relation "
      "(inner = outer / 1024), 8 nodes / 64 workers");
  join::JoinConfig cfg;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 8;
  cfg.outer_tuples = 1ull << 22;
  cfg.inner_tuples = cfg.outer_tuples / 1024;

  join::JoinResult mpi_result, radix_result, repl_result;
  {
    net::Fabric fabric;
    MakeCluster(&fabric, cfg.num_nodes);
    std::vector<net::NodeId> ids;
    for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
    auto r = join::RunMpiRadixJoin(&fabric, ids, cfg);
    DFI_CHECK(r.ok()) << r.status();
    mpi_result = *r;
  }
  {
    net::Fabric fabric;
    auto addrs = MakeCluster(&fabric, cfg.num_nodes);
    DfiRuntime dfi(&fabric);
    auto r = join::RunDfiRadixJoin(&dfi, addrs, cfg);
    DFI_CHECK(r.ok()) << r.status();
    radix_result = *r;
  }
  {
    net::Fabric fabric;
    auto addrs = MakeCluster(&fabric, cfg.num_nodes);
    DfiRuntime dfi(&fabric);
    auto r = join::RunDfiReplicateJoin(&dfi, addrs, cfg);
    DFI_CHECK(r.ok()) << r.status();
    repl_result = *r;
  }
  DFI_CHECK_EQ(mpi_result.matches, radix_result.matches);
  DFI_CHECK_EQ(mpi_result.matches, repl_result.matches);

  TablePrinter table({"phase", "MPI radix join", "DFI radix join",
                      "DFI replicate join"});
  table.AddRow({"histogram", Millis(mpi_result.phases.histogram), "-", "-"});
  table.AddRow({"network partition",
                Millis(mpi_result.phases.network_partition),
                Millis(radix_result.phases.network_partition), "-"});
  table.AddRow({"network replication", "-", "-",
                Millis(repl_result.phases.network_replication)});
  table.AddRow({"sync barrier", Millis(mpi_result.phases.sync_barrier), "-",
                "-"});
  table.AddRow({"local partition",
                Millis(mpi_result.phases.local_partition), "(overlapped)",
                "-"});
  table.AddRow({"build + probe", Millis(mpi_result.phases.build_probe),
                Millis(radix_result.phases.build_probe),
                Millis(repl_result.phases.build_probe)});
  table.AddRow({"TOTAL", Millis(mpi_result.phases.total),
                Millis(radix_result.phases.total),
                Millis(repl_result.phases.total)});
  table.Print();
  RecordMetric("MPI / DFI replicate-join total runtime ratio",
               static_cast<double>(mpi_result.phases.total) /
                   static_cast<double>(repl_result.phases.total),
               "x");
  RecordMetric("join matches",
               static_cast<double>(repl_result.matches), "matches");
  std::printf("join matches: %llu (all variants)\n",
              static_cast<unsigned long long>(repl_result.matches));
  std::printf(
      "(expected: the replicate join is fastest — replicating the tiny\n"
      " inner is cheap and the big outer relation never crosses the wire)\n");
}

void Run() {
  // The joins spawn their workers as actors of the calling task's engine.
  exec::Engine engine;
  engine.Spawn(0, "fig14", Body);
  engine.Run();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
