// Figure 7c: scale-out of the shuffle flow — aggregated sender bandwidth
// for N:N topologies of 2..8 servers with 4 and 14 source/target threads
// per server. Paper result: linear scaling with node count; 4 threads per
// node already saturate each link.

#include <atomic>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kTupleSize = 1024;

double RunCell(uint32_t num_nodes, uint32_t threads_per_node,
               uint64_t bytes_per_source) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, num_nodes);
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "scale";
  spec.sources = DfiNodes::GridOf(addrs, threads_per_node);
  spec.targets = DfiNodes::GridOf(addrs, threads_per_node);
  spec.schema = PaddedSchema(kTupleSize);
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint32_t workers = num_nodes * threads_per_node;
  const uint64_t tuples = bytes_per_source / kTupleSize;
  std::atomic<SimTime> finish{0};
  exec::Engine engine;
  for (uint32_t w = 0; w < workers; ++w) {
    engine.Spawn(w / threads_per_node, "worker", [&, w] {
      auto src = dfi.CreateShuffleSource("scale", w);
      auto tgt = dfi.CreateShuffleTarget("scale", w);
      std::vector<uint8_t> buf(kTupleSize, 0);
      bool drained = false;
      auto drain = [&](bool block) {
        SegmentView seg;
        ConsumeResult r;
        if (block) {
          while (!drained) {
            if ((*tgt)->ConsumeSegment(&seg) == ConsumeResult::kFlowEnd) {
              drained = true;
            }
          }
        } else {
          while (!drained && (*tgt)->TryConsumeSegment(&seg, &r)) {
            if (r == ConsumeResult::kFlowEnd) {
              drained = true;
              break;
            }
          }
        }
      };
      for (uint64_t i = 0; i < tuples; ++i) {
        TupleWriter(buf.data(), &(*src)->schema())
            .Set<uint64_t>(0, w * tuples + i);
        DFI_CHECK_OK((*src)->Push(buf.data()));
        if (i % 128 == 0) drain(false);
      }
      DFI_CHECK_OK((*src)->Close());
      drain(true);
      const SimTime end =
          std::max((*src)->clock().now(), (*tgt)->clock().now());
      SimTime prev = finish.load();
      while (prev < end && !finish.compare_exchange_weak(prev, end)) {
      }
    });
  }
  engine.Run();
  const double total_bytes =
      static_cast<double>(bytes_per_source) * workers;
  return total_bytes / static_cast<double>(finish.load());  // bytes/ns
}

void Run() {
  PrintSection(
      "Figure 7c: shuffle flow scale-out, aggregated sender bandwidth "
      "(N:N, 1 KiB tuples)");
  TablePrinter table({"servers", "4 threads/server", "14 threads/server"});
  for (uint32_t nodes = 2; nodes <= 8; ++nodes) {
    std::vector<std::string> row{std::to_string(nodes)};
    // 4 threads: 16 MiB per source; 14 threads: smaller per-source volume
    // keeps host memory/wall time in check at 12544 connections.
    const double r4 = RunCell(nodes, 4, 16 * kMiB);
    row.push_back(Rate(r4 * 1e9, 1'000'000'000));
    const double r14 = RunCell(nodes, 14, 4 * kMiB);
    row.push_back(Rate(r14 * 1e9, 1'000'000'000));
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "(expected shape: aggregated bandwidth grows linearly with servers,\n"
      " approx. servers x 11.64 GiB/s; 4 threads already saturate links)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
