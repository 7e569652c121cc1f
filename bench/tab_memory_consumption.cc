// Section 6.1.4: memory consumption of the scale-out shuffle flow (the
// private source/target buffers) and the effect of shrinking the rings.
// Paper numbers: 16 MiB/node at 2 nodes x 4 threads, 64 MiB at 8 x 4,
// 785.5 MiB at 8 x 14; halving segments to 16 costs ~2.7% bandwidth,
// quartering to 8 costs ~8%.

#include <atomic>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kTupleSize = 1024;

struct CellResult {
  uint64_t bytes_node0 = 0;
  double rate_bytes_per_ns = 0;
};

CellResult RunCell(uint32_t num_nodes, uint32_t threads_per_node,
                   uint32_t segments_per_ring, uint64_t bytes_per_source) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, num_nodes);
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "mem";
  spec.sources = DfiNodes::GridOf(addrs, threads_per_node);
  spec.targets = DfiNodes::GridOf(addrs, threads_per_node);
  spec.schema = PaddedSchema(kTupleSize);
  spec.options.segments_per_ring = segments_per_ring;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint32_t workers = num_nodes * threads_per_node;
  const uint64_t tuples = bytes_per_source / kTupleSize;
  std::atomic<SimTime> finish{0};
  std::atomic<uint64_t> mem_node0{0};
  exec::Engine engine;
  for (uint32_t w = 0; w < workers; ++w) {
    engine.Spawn(w / threads_per_node, "worker", [&, w] {
      auto src = dfi.CreateShuffleSource("mem", w);
      auto tgt = dfi.CreateShuffleTarget("mem", w);
      if (w == 0) {
        // All endpoints exist now; snapshot node 0's registered memory.
        mem_node0.store(dfi.RegisteredBytesOnNode(0));
      }
      std::vector<uint8_t> buf(kTupleSize, 0);
      bool drained = false;
      for (uint64_t i = 0; i < tuples; ++i) {
        TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i * 7 + w);
        DFI_CHECK_OK((*src)->Push(buf.data()));
        if (i % 128 == 0) {
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
      SimTime prev = finish.load();
      while (prev < end && !finish.compare_exchange_weak(prev, end)) {
      }
    });
  }
  engine.Run();
  CellResult result;
  result.bytes_node0 = mem_node0.load();
  result.rate_bytes_per_ns = static_cast<double>(bytes_per_source) * workers /
                             static_cast<double>(finish.load());
  return result;
}

void Run() {
  PrintSection(
      "Section 6.1.4: memory consumption of scale-out shuffle flows");
  {
    TablePrinter table(
        {"setup", "registered flow memory per node (node 0)"});
    CellResult r = RunCell(2, 4, 32, 4 * kMiB);
    table.AddRow({"2 nodes x 4 threads, 32 segments",
                  FormatBytes(r.bytes_node0)});
    r = RunCell(8, 4, 32, 4 * kMiB);
    table.AddRow({"8 nodes x 4 threads, 32 segments",
                  FormatBytes(r.bytes_node0)});
    r = RunCell(8, 14, 32, 2 * kMiB);
    table.AddRow({"8 nodes x 14 threads, 32 segments",
                  FormatBytes(r.bytes_node0)});
    table.Print();
    std::printf(
        "(paper: 16 MiB, 64 MiB and 785.5 MiB respectively — target rings\n"
        " of 32 x 8 KiB segments per source/target pair plus send rings)\n");
  }
  {
    PrintSection("Segment-count sensitivity (8 nodes x 4 threads)");
    TablePrinter table({"segments/ring", "memory/node", "aggregated BW",
                        "relative"});
    const CellResult base = RunCell(8, 4, 32, 16 * kMiB);
    for (uint32_t segments : {32u, 16u, 8u}) {
      const CellResult r = segments == 32
                               ? base
                               : RunCell(8, 4, segments, 16 * kMiB);
      char rel[32];
      std::snprintf(rel, sizeof(rel), "%+.1f%%",
                    (r.rate_bytes_per_ns / base.rate_bytes_per_ns - 1.0) *
                        100.0);
      table.AddRow({std::to_string(segments), FormatBytes(r.bytes_node0),
                    Rate(r.rate_bytes_per_ns * 1e9, 1'000'000'000), rel});
    }
    table.Print();
    std::printf(
        "(paper: 16 segments -> -2.7%% bandwidth, 8 segments -> -8%%.\n"
        " Note: run-to-run noise of these 32-worker runs is ~+-10%% in this\n"
        " emulation, so the paper's small effect is below our resolution;\n"
        " the memory savings column is the robust result.)\n");
  }
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
