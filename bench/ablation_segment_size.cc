// Ablation: the segment size is DFI's central tuning knob between
// bandwidth and latency (paper section 5.1: "the segment size is a tuning
// parameter that allows DFI to either optimize for bandwidth or latency
// independent of the tuple sizes used by the application").
//
// This sweep measures, for a 1:1 flow with 64 B tuples:
//   * sustained throughput (large transfer), and
//   * first-tuple delivery latency (time until a single pushed tuple is
//     consumable at the target, including the fill-the-batch wait),
// across segment sizes 256 B .. 64 KiB, plus the effect of the source-ring
// depth (selective-signaling frequency).

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint32_t kTupleSize = 64;
constexpr uint64_t kTableBytes = 32 * kMiB;

double Throughput(uint32_t segment_size, uint32_t source_segments) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "ab";
  spec.sources.Append(Endpoint{addrs[0], 0});
  spec.targets.Append(Endpoint{addrs[1], 0});
  spec.schema = PaddedSchema(kTupleSize);
  spec.options.segment_size = segment_size;
  spec.options.source_segments = source_segments;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    auto src = dfi.CreateShuffleSource("ab", 0);
    std::vector<uint8_t> buf(kTupleSize, 0);
    for (uint64_t i = 0; i < kTableBytes / kTupleSize; ++i) {
      TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
      DFI_CHECK_OK((*src)->Push(buf.data()));
    }
    DFI_CHECK_OK((*src)->Close());
  });
  auto tgt = dfi.CreateShuffleTarget("ab", 0);
  engine.Spawn(1, "consumer", [&] {
    SegmentView seg;
    while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
    }
  });
  engine.Run();
  return static_cast<double>(kTableBytes) /
         static_cast<double>((*tgt)->clock().now());
}

/// Virtual time until the FIRST tuple of a steady stream (one push every
/// 100 ns) is consumable at the target: the batch-fill wait a tuple pays
/// before its segment ships — the latency half of the tradeoff.
SimTime FirstTupleLatency(uint32_t segment_size) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "ab";
  spec.sources.Append(Endpoint{addrs[0], 0});
  spec.targets.Append(Endpoint{addrs[1], 0});
  spec.schema = PaddedSchema(kTupleSize);
  spec.options.segment_size = segment_size;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    auto src = dfi.CreateShuffleSource("ab", 0);
    std::vector<uint8_t> buf(kTupleSize, 1);
    // Enough tuples to fill several segments of the largest setting.
    for (uint64_t i = 0; i < 4 * 65536 / kTupleSize; ++i) {
      (*src)->clock().Advance(100);  // application produces one per 100 ns
      TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
      DFI_CHECK_OK((*src)->Push(buf.data()));
    }
    DFI_CHECK_OK((*src)->Close());
  });
  auto tgt = dfi.CreateShuffleTarget("ab", 0);
  SimTime latency = 0;
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    DFI_CHECK((*tgt)->Consume(&tuple) == ConsumeResult::kOk);
    latency = (*tgt)->clock().now();
    while ((*tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
    }
  });
  engine.Run();
  return latency;
}

void Run() {
  PrintSection(
      "Ablation: segment size — bandwidth vs delivery latency "
      "(1:1 flow, 64 B tuples)");
  TablePrinter table({"segment size", "throughput", "first-tuple latency"});
  for (uint32_t seg : {256u, 1024u, 4096u, 8192u, 16384u, 65536u}) {
    table.AddRow({FormatBytes(seg), Rate(Throughput(seg, 4) * 1e9,
                                         1'000'000'000),
                  Micros(FirstTupleLatency(seg))});
  }
  table.Print();
  std::printf(
      "(larger segments amortize per-segment costs -> higher throughput,\n"
      " but a tuple waits longer for its batch; 8 KiB is the default\n"
      " sweet spot the paper chose)\n");

  PrintSection(
      "Ablation: source-ring depth (selective-signaling frequency), "
      "8 KiB segments");
  TablePrinter table2({"source segments", "throughput"});
  for (uint32_t ss : {2u, 4u, 8u, 16u}) {
    table2.AddRow({std::to_string(ss),
                   Rate(Throughput(8192, ss) * 1e9, 1'000'000'000)});
  }
  table2.Print();
  std::printf(
      "(the source ring bounds in-flight unsignaled writes; very shallow\n"
      " rings stall on completion reaping at each wrap-around)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
