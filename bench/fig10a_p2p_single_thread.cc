// Figure 10a: MPI vs DFI point-to-point, single-threaded — runtime for
// transferring a fixed table between two nodes on a tuple-by-tuple basis.
// The paper transfers 16 GiB; we scale to 32 MiB (shapes are unchanged:
// runtimes scale linearly with the table size).
// Paper result: MPI_Send/Recv is very slow for small tuples (no batching);
// DFI's bandwidth optimization stays fast across all tuple sizes.

#include "bench/bench_common.h"
#include "mpi/mpi_env.h"

namespace dfi::bench {
namespace {

constexpr uint64_t kTableBytes = 32 * kMiB;

SimTime RunDfi(uint32_t tuple_size, FlowOptimization opt) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "p2p";
  spec.sources.Append(Endpoint{addrs[0], 0});
  spec.targets.Append(Endpoint{addrs[1], 0});
  spec.schema = PaddedSchema(tuple_size);
  spec.options.optimization = opt;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint64_t tuples = kTableBytes / tuple_size;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    auto src = dfi.CreateShuffleSource("p2p", 0);
    std::vector<uint8_t> buf(tuple_size, 0);
    for (uint64_t i = 0; i < tuples; ++i) {
      TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
      DFI_CHECK_OK((*src)->Push(buf.data()));
    }
    DFI_CHECK_OK((*src)->Close());
  });
  auto tgt = dfi.CreateShuffleTarget("p2p", 0);
  engine.Spawn(1, "consumer", [&] {
    SegmentView seg;
    while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
    }
  });
  engine.Run();
  return (*tgt)->clock().now();
}

SimTime RunMpi(uint32_t tuple_size) {
  net::Fabric fabric;
  auto nodes = fabric.AddNodes(2);
  mpi::MpiEnv env(&fabric, nodes);
  const uint64_t tuples = kTableBytes / tuple_size;
  exec::Engine engine;
  engine.Spawn(0, "sender", [&] {
    VirtualClock clock;
    std::vector<uint8_t> buf(tuple_size, 0);
    for (uint64_t i = 0; i < tuples; ++i) {
      DFI_CHECK_OK(env.Send(0, 1, 0, buf.data(), tuple_size, &clock));
    }
  });
  VirtualClock clock;
  engine.Spawn(1, "receiver", [&] {
    std::vector<uint8_t> buf(tuple_size, 0);
    for (uint64_t i = 0; i < tuples; ++i) {
      DFI_CHECK_OK(env.Recv(1, 0, 0, buf.data(), tuple_size, &clock));
    }
  });
  engine.Run();
  return clock.now();
}

void Run() {
  PrintSection(
      "Figure 10a: MPI vs DFI point-to-point runtime, single-threaded "
      "(32 MiB table, scaled from the paper's 16 GiB)");
  TablePrinter table({"tuple size", "DFI bandwidth-opt", "DFI latency-opt",
                      "MPI Send/Recv"});
  for (uint32_t size : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    const SimTime dfi_bw = RunDfi(size, FlowOptimization::kBandwidth);
    const SimTime mpi = RunMpi(size);
    table.AddRow({FormatBytes(size), Millis(dfi_bw),
                  Millis(RunDfi(size, FlowOptimization::kLatency)),
                  Millis(mpi)});
    if (size == 16u) {
      RecordMetric("MPI / DFI bandwidth-opt runtime ratio (16 B)",
                   static_cast<double>(mpi) / static_cast<double>(dfi_bw),
                   "x");
    }
  }
  table.Print();
  std::printf(
      "(expected: MPI runtime explodes for small tuples — one message per\n"
      " tuple, no batching; DFI bandwidth-opt is flat and near wire speed)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
