// Figure 7a: shuffle flow sender bandwidth, 1 sender node -> 8 target
// nodes, bandwidth-optimized, varying tuple size and source thread count.
// Paper result: ~2 source threads saturate 100 Gbps for tuples >= 256 B,
// 4 threads saturate for all sizes; 1 thread is CPU-bound for small tuples.

#include <atomic>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint64_t kBytesPerSource = 64 * kMiB;

SimTime RunCell(uint32_t tuple_size, uint32_t num_sources) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 9);  // node 0 sends, nodes 1..8 receive
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "bw";
  for (uint32_t s = 0; s < num_sources; ++s) {
    spec.sources.Append(Endpoint{addrs[0], s});
  }
  for (uint32_t t = 0; t < 8; ++t) {
    spec.targets.Append(Endpoint{addrs[1 + t], 0});
  }
  spec.schema = PaddedSchema(tuple_size);
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint64_t tuples_per_source = kBytesPerSource / tuple_size;
  std::atomic<SimTime> finish{0};
  exec::Engine engine;
  for (uint32_t s = 0; s < num_sources; ++s) {
    engine.Spawn(0, "source", [&, s] {
      auto src = dfi.CreateShuffleSource("bw", s);
      std::vector<uint8_t> buf(tuple_size, 0);
      for (uint64_t i = 0; i < tuples_per_source; ++i) {
        TupleWriter(buf.data(), &(*src)->schema())
            .Set<uint64_t>(0, s * tuples_per_source + i);
        DFI_CHECK_OK((*src)->Push(buf.data()));
      }
      DFI_CHECK_OK((*src)->Close());
    });
  }
  for (uint32_t t = 0; t < 8; ++t) {
    engine.Spawn(1 + t, "target", [&, t] {
      auto tgt = dfi.CreateShuffleTarget("bw", t);
      SegmentView seg;
      while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
      }
      SimTime prev = finish.load();
      while (prev < (*tgt)->clock().now() &&
             !finish.compare_exchange_weak(prev, (*tgt)->clock().now())) {
      }
    });
  }
  engine.Run();
  return finish.load();
}

void Run() {
  PrintSection(
      "Figure 7a: shuffle flow sender bandwidth (1:8, bandwidth-optimized, "
      "8 KiB segments)");
  net::SimConfig cfg;
  std::printf("max link speed: %s\n",
              Rate(cfg.MaxLinkBytesPerSecond(), 1'000'000'000).c_str());
  TablePrinter table({"tuple size", "1 source thread", "2 source threads",
                      "4 source threads"});
  for (uint32_t tuple_size : {64u, 256u, 1024u}) {
    std::vector<std::string> row{FormatBytes(tuple_size)};
    for (uint32_t threads : {1u, 2u, 4u}) {
      const SimTime t = RunCell(tuple_size, threads);
      row.push_back(Rate(static_cast<double>(kBytesPerSource) * threads, t));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
