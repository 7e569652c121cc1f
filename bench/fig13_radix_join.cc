// Figure 13: distributed radix hash join, 8 nodes x 8 workers — MPI radix
// join (Barthels et al. [2]) vs the DFI radix join, with phase breakdown.
// The paper joins 2.56 B x 2.56 B tuples; we scale to 2^22 x 2^22 (the
// per-phase *ratios* and the ordering are scale-independent once the run
// is bandwidth-bound).
// Paper result: the DFI join wins ~20% — no histogram pass, no barrier,
// network partitioning overlapped with local processing.

#include "apps/join/distributed_join.h"
#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

void Body() {
  PrintSection(
      "Figure 13: distributed radix join, 8 nodes / 64 workers, "
      "2^22 x 2^22 tuples (scaled from 2.56B x 2.56B)");
  join::JoinConfig cfg;
  cfg.num_nodes = 8;
  cfg.workers_per_node = 8;
  cfg.inner_tuples = 1ull << 22;
  cfg.outer_tuples = 1ull << 22;

  join::JoinResult mpi_result;
  {
    net::Fabric fabric;
    auto addrs = MakeCluster(&fabric, cfg.num_nodes);
    std::vector<net::NodeId> ids;
    for (uint32_t i = 0; i < cfg.num_nodes; ++i) ids.push_back(i);
    auto r = join::RunMpiRadixJoin(&fabric, ids, cfg);
    DFI_CHECK(r.ok()) << r.status();
    mpi_result = *r;
  }
  join::JoinResult dfi_result;
  {
    net::Fabric fabric;
    auto addrs = MakeCluster(&fabric, cfg.num_nodes);
    DfiRuntime dfi(&fabric);
    auto r = join::RunDfiRadixJoin(&dfi, addrs, cfg);
    DFI_CHECK(r.ok()) << r.status();
    dfi_result = *r;
  }
  DFI_CHECK_EQ(mpi_result.matches, dfi_result.matches);

  TablePrinter table({"phase", "MPI radix join", "DFI radix join"});
  table.AddRow({"histogram", Millis(mpi_result.phases.histogram), "-"});
  table.AddRow({"network partition",
                Millis(mpi_result.phases.network_partition),
                Millis(dfi_result.phases.network_partition) +
                    " (incl. local partition, streamed)"});
  table.AddRow({"sync barrier", Millis(mpi_result.phases.sync_barrier),
                "-"});
  table.AddRow({"local partition",
                Millis(mpi_result.phases.local_partition),
                "(overlapped)"});
  table.AddRow({"build + probe", Millis(mpi_result.phases.build_probe),
                Millis(dfi_result.phases.build_probe)});
  table.AddRow({"TOTAL", Millis(mpi_result.phases.total),
                Millis(dfi_result.phases.total)});
  table.Print();
  RecordMetric("MPI / DFI total runtime ratio",
               static_cast<double>(mpi_result.phases.total) /
                   static_cast<double>(dfi_result.phases.total),
               "x");
  RecordMetric("join matches",
               static_cast<double>(dfi_result.matches), "matches");
  std::printf("join matches: %llu (both variants)\n",
              static_cast<unsigned long long>(dfi_result.matches));
  std::printf(
      "(expected: DFI total < MPI total; MPI pays the histogram pass and\n"
      " the post-shuffle synchronization barrier that DFI eliminates)\n");
}

void Run() {
  // The joins spawn their workers as actors of the calling task's engine.
  exec::Engine engine;
  engine.Spawn(0, "fig13", Body);
  engine.Run();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
