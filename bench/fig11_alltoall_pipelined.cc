// Figure 11: collective shuffling (8:8) in a streaming / mini-batched
// manner — MPI_Alltoall invoked per 8-tuple mini-batch vs a DFI shuffle
// flow, for growing tuple sizes. Reports runtime and effective bandwidth.
// Paper result: MPI's runtime is enormous for small tuples (every
// mini-batch is a bulk-synchronous collective); DFI pipelines and stays
// near wire speed; MPI approaches DFI only for very large tuples.

#include <algorithm>

#include "bench/bench_common.h"
#include "mpi/mpi_env.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kNodes = 8;
constexpr uint64_t kTableBytesPerNode = 4 * kMiB;

SimTime RunDfi(uint32_t tuple_size) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, kNodes);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "a2a";
  spec.sources = DfiNodes::GridOf(addrs, 1);
  spec.targets = DfiNodes::GridOf(addrs, 1);
  spec.schema = PaddedSchema(tuple_size);
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint64_t tuples = kTableBytesPerNode / tuple_size;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t w = 0; w < kNodes; ++w) {
    engine.Spawn(w, "worker", [&, w] {
      auto src = dfi.CreateShuffleSource("a2a", w);
      auto tgt = dfi.CreateShuffleTarget("a2a", w);
      std::vector<uint8_t> buf(tuple_size, 0);
      bool drained = false;
      for (uint64_t i = 0; i < tuples; ++i) {
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

SimTime RunMpi(uint32_t tuple_size) {
  net::Fabric fabric;
  auto nodes = fabric.AddNodes(kNodes);
  mpi::MpiEnv env(&fabric, nodes);
  // Mini-batches of 8 tuples: on average one tuple per target per round
  // (the "streaming-based" use of the collective from the paper).
  const uint64_t tuples = kTableBytesPerNode / tuple_size;
  const uint64_t rounds = tuples / kNodes;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t r = 0; r < kNodes; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      VirtualClock clock;
      std::vector<uint8_t> send(kNodes * tuple_size, 0);
      std::vector<uint8_t> recv(kNodes * tuple_size, 0);
      for (uint64_t i = 0; i < rounds; ++i) {
        // Local pre-shuffle of the mini-batch into per-target slots.
        clock.Advance(static_cast<SimTime>(
            kNodes * (fabric.config().tuple_push_fixed_ns +
                      tuple_size * fabric.config().tuple_copy_ns_per_byte)));
        DFI_CHECK_OK(env.Alltoall(static_cast<int>(r), send.data(),
                                  recv.data(), tuple_size, &clock));
      }
      finish = std::max(finish, clock.now());
    });
  }
  engine.Run();
  return finish;
}

void Run() {
  PrintSection(
      "Figure 11: collective shuffling (8:8), pipelined mini-batches of 8 "
      "tuples — MPI_Alltoall vs DFI shuffle flow (4 MiB per node)");
  TablePrinter table({"tuple size", "DFI runtime", "DFI bandwidth",
                      "MPI runtime", "MPI bandwidth"});
  const double total = static_cast<double>(kTableBytesPerNode) * kNodes;
  for (uint32_t size : {64u, 256u, 1024u, 4096u, 16384u}) {
    const SimTime d = RunDfi(size);
    const SimTime m = RunMpi(size);
    table.AddRow({FormatBytes(size), Millis(d), Rate(total, d), Millis(m),
                  Rate(total, m)});
    if (size == 64u) {
      RecordMetric("MPI / DFI shuffle runtime ratio (64 B)",
                   static_cast<double>(m) / static_cast<double>(d), "x");
      RecordMetric("DFI shuffle bandwidth (64 B)",
                   total / static_cast<double>(d) * 1e9 / kGiB, "GiB/s");
    }
  }
  table.Print();
  std::printf(
      "(expected: MPI is orders of magnitude slower for small tuples —\n"
      " every 8-tuple batch is a blocking collective; bandwidths converge\n"
      " for large tuples)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
