// Figure 12: collective shuffling (8:8) with one straggling node — batched
// MPI_Alltoall vs DFI shuffle flow, for two table sizes and straggler
// factors s=1 (none) and s=0.5 (one node at half CPU speed).
// The paper's tables are 2 GiB / 8 GiB; we scale both down 16x (128 MiB /
// 512 MiB) — ratios are what matter.
// Paper result: MPI suffers the full straggler delay (bulk-synchronous: no
// transfer starts before the straggler finished its local pre-shuffle);
// DFI overlaps and is much less affected.

#include <algorithm>

#include "bench/bench_common.h"
#include "mpi/mpi_env.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kNodes = 8;
constexpr uint32_t kTupleSize = 64;

SimTime RunDfi(uint64_t table_bytes, double straggle) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, kNodes);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "st";
  spec.sources = DfiNodes::GridOf(addrs, 1);
  spec.targets = DfiNodes::GridOf(addrs, 1);
  spec.schema = PaddedSchema(kTupleSize);
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint64_t tuples = table_bytes / kNodes / kTupleSize;
  // Per-tuple compute cost of producing a tuple; the straggler (worker 0)
  // pays 1/s times more (CPU frequency scaled by s).
  const SimTime base_cost = 20;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t w = 0; w < kNodes; ++w) {
    engine.Spawn(w, "worker", [&, w] {
      const SimTime cost =
          w == 0 ? static_cast<SimTime>(base_cost / straggle) : base_cost;
      auto src = dfi.CreateShuffleSource("st", w);
      auto tgt = dfi.CreateShuffleTarget("st", w);
      std::vector<uint8_t> buf(kTupleSize, 0);
      bool drained = false;
      for (uint64_t i = 0; i < tuples; ++i) {
        (*src)->clock().Advance(cost);  // compute producing the tuple
        TupleWriter(buf.data(), &(*src)->schema())
            .Set<uint64_t>(0, w * tuples + i);
        DFI_CHECK_OK((*src)->Push(buf.data()));
        if (i % 64 == 0) {
          SegmentView seg;
          ConsumeResult r;
          while (!drained && (*tgt)->TryConsumeSegment(&seg, &r)) {
            if (r == ConsumeResult::kFlowEnd) {
              drained = true;
              break;
            }
          }
        }
      }
      DFI_CHECK_OK((*src)->Close());
      SegmentView seg;
      while (!drained) {
        if ((*tgt)->ConsumeSegment(&seg) == ConsumeResult::kFlowEnd) {
          drained = true;
        }
      }
      const SimTime end =
          std::max((*src)->clock().now(), (*tgt)->clock().now());
      finish = std::max(finish, end);
    });
  }
  engine.Run();
  return finish;
}

SimTime RunMpi(uint64_t table_bytes, double straggle) {
  net::Fabric fabric;
  auto nodes = fabric.AddNodes(kNodes);
  mpi::MpiEnv env(&fabric, nodes);
  const uint64_t tuples = table_bytes / kNodes / kTupleSize;
  const SimTime base_cost = 20;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t r = 0; r < kNodes; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      const SimTime cost =
          r == 0 ? static_cast<SimTime>(base_cost / straggle) : base_cost;
      VirtualClock clock;
      // Batched variant: pre-shuffle the whole local table, then one big
      // Alltoall for the complete batch (paper section 6.2.2).
      const net::SimConfig& cfg = fabric.config();
      clock.Advance(static_cast<SimTime>(tuples) *
                    (cost + cfg.tuple_push_fixed_ns +
                     static_cast<SimTime>(kTupleSize *
                                          cfg.tuple_copy_ns_per_byte)));
      const uint64_t bytes_per_rank = tuples * kTupleSize / kNodes;
      std::vector<uint8_t> send(kNodes * bytes_per_rank, 0);
      std::vector<uint8_t> recv(kNodes * bytes_per_rank, 0);
      DFI_CHECK_OK(env.Alltoall(static_cast<int>(r), send.data(),
                                recv.data(), bytes_per_rank, &clock));
      finish = std::max(finish, clock.now());
    });
  }
  engine.Run();
  return finish;
}

void Run() {
  PrintSection(
      "Figure 12: collective shuffling (8:8) with one straggling node "
      "(batched; tables scaled 16x down from the paper's 2/8 GiB)");
  TablePrinter table(
      {"configuration", "MPI Alltoall", "DFI shuffle flow", "DFI speedup"});
  struct Cell {
    const char* name;
    uint64_t bytes;
    double s;
  };
  for (const Cell& cell :
       {Cell{"s=1.0, T=128 MiB", 128 * kMiB, 1.0},
        Cell{"s=0.5, T=128 MiB", 128 * kMiB, 0.5},
        Cell{"s=1.0, T=512 MiB", 512 * kMiB, 1.0},
        Cell{"s=0.5, T=512 MiB", 512 * kMiB, 0.5}}) {
    const SimTime m = RunMpi(cell.bytes, cell.s);
    const SimTime d = RunDfi(cell.bytes, cell.s);
    const double ratio = static_cast<double>(m) / static_cast<double>(d);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", ratio);
    table.AddRow({cell.name, Millis(m), Millis(d), speedup});
    RecordMetric(std::string("DFI straggler speedup, ") + cell.name, ratio,
                 "x");
  }
  table.Print();
  std::printf(
      "(expected: the straggler hits MPI with the full pre-shuffle delay —\n"
      " the collective blocks until everyone is ready; DFI keeps sending\n"
      " while computing and degrades far less)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
