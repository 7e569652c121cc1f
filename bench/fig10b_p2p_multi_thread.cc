// Figure 10b: MPI vs DFI point-to-point, multi-threaded, 64 B tuples —
// runtime of transferring a fixed table with 1..8 sender threads.
// Paper result: DFI scales with threads; MPI_THREAD_MULTIPLE *degrades*
// with threads (global latch contention); MPI multi-process scales better
// than MPI multi-threaded but worse than DFI.

#include <algorithm>

#include "bench/bench_common.h"
#include "mpi/mpi_env.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kTupleSize = 64;
constexpr uint64_t kTableBytes = 16 * kMiB;

SimTime RunDfi(uint32_t threads_count) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "p2p";
  for (uint32_t s = 0; s < threads_count; ++s) {
    spec.sources.Append(Endpoint{addrs[0], s});
    spec.targets.Append(Endpoint{addrs[1], s});
  }
  spec.schema = PaddedSchema(kTupleSize);
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint64_t tuples = kTableBytes / kTupleSize / threads_count;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t s = 0; s < threads_count; ++s) {
    engine.Spawn(0, "source", [&, s] {
      auto src = dfi.CreateShuffleSource("p2p", s);
      std::vector<uint8_t> buf(kTupleSize, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
        DFI_CHECK_OK((*src)->PushTo(buf.data(), s));
      }
      DFI_CHECK_OK((*src)->Close());
    });
    engine.Spawn(1, "target", [&, s] {
      auto tgt = dfi.CreateShuffleTarget("p2p", s);
      SegmentView seg;
      while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
      }
      finish = std::max(finish, (*tgt)->clock().now());
    });
  }
  engine.Run();
  return finish;
}

/// MPI_THREAD_MULTIPLE: one rank per node, `threads_count` threads calling
/// MPI concurrently through the per-rank latch.
SimTime RunMpiMultiThreaded(uint32_t threads_count) {
  net::Fabric fabric;
  auto nodes = fabric.AddNodes(2);
  mpi::MpiEnv env(&fabric, nodes, mpi::ThreadMode::kMultiple, threads_count);
  const uint64_t tuples = kTableBytes / kTupleSize / threads_count;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t t = 0; t < threads_count; ++t) {
    engine.Spawn(0, "sender", [&, t] {
      VirtualClock clock;
      std::vector<uint8_t> buf(kTupleSize, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        DFI_CHECK_OK(
            env.Send(0, 1, static_cast<int>(t), buf.data(), kTupleSize,
                     &clock));
      }
    });
    engine.Spawn(1, "receiver", [&, t] {
      VirtualClock clock;
      std::vector<uint8_t> buf(kTupleSize, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        DFI_CHECK_OK(env.Recv(1, 0, static_cast<int>(t), buf.data(),
                              kTupleSize, &clock));
      }
      finish = std::max(finish, clock.now());
    });
  }
  engine.Run();
  return finish;
}

/// MPI multi-process: `procs` single-threaded ranks per node (uncontended
/// latches, but shared-memory cost for co-located processes).
SimTime RunMpiMultiProcess(uint32_t procs) {
  net::Fabric fabric;
  auto base = fabric.AddNodes(2);
  std::vector<net::NodeId> ranks;
  for (uint32_t p = 0; p < procs; ++p) ranks.push_back(base[0]);
  for (uint32_t p = 0; p < procs; ++p) ranks.push_back(base[1]);
  mpi::MpiEnv env(&fabric, ranks, mpi::ThreadMode::kSingle);
  const uint64_t tuples = kTableBytes / kTupleSize / procs;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t p = 0; p < procs; ++p) {
    engine.Spawn(0, "sender", [&, p] {
      VirtualClock clock;
      std::vector<uint8_t> buf(kTupleSize, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        DFI_CHECK_OK(env.Send(static_cast<int>(p),
                              static_cast<int>(procs + p), 0, buf.data(),
                              kTupleSize, &clock));
      }
    });
    engine.Spawn(1, "receiver", [&, p] {
      VirtualClock clock;
      std::vector<uint8_t> buf(kTupleSize, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        DFI_CHECK_OK(env.Recv(static_cast<int>(procs + p),
                              static_cast<int>(p), 0, buf.data(), kTupleSize,
                              &clock));
      }
      finish = std::max(finish, clock.now());
    });
  }
  engine.Run();
  return finish;
}

void Run() {
  PrintSection(
      "Figure 10b: MPI vs DFI point-to-point runtime, multi-threaded, "
      "64 B tuples (16 MiB table)");
  TablePrinter table({"sender threads", "DFI bandwidth-opt",
                      "MPI multi-threaded", "MPI multi-process"});
  for (uint32_t threads_count : {1u, 2u, 4u, 8u}) {
    const SimTime dfi = RunDfi(threads_count);
    const SimTime mpi_mt = RunMpiMultiThreaded(threads_count);
    table.AddRow({std::to_string(threads_count), Millis(dfi),
                  Millis(mpi_mt),
                  Millis(RunMpiMultiProcess(threads_count))});
    if (threads_count == 8u) {
      RecordMetric("MPI multi-threaded / DFI runtime ratio (8 threads)",
                   static_cast<double>(mpi_mt) / static_cast<double>(dfi),
                   "x");
    }
  }
  table.Print();
  std::printf(
      "(expected: DFI improves with threads; MPI multi-threaded *worsens*\n"
      " with threads — latch contention; multi-process sits in between)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
