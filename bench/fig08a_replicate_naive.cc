// Figure 8a: replicate flow with naive one-sided replication, 1 sender
// node -> 8 target nodes. Aggregated receiver bandwidth is capped by the
// sender's outgoing link (the bytes leave the sender once per target).
// Paper result: the link saturates already with 1 source thread for
// tuples >= 64 B, at ~11.6 GiB/s aggregated.

#include <algorithm>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint64_t kBytesPerSource = 16 * kMiB;

double RunCell(uint32_t tuple_size, uint32_t num_sources, bool multicast) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 9);
  DfiRuntime dfi(&fabric);

  ReplicateFlowSpec spec;
  spec.name = "rep";
  for (uint32_t s = 0; s < num_sources; ++s) {
    spec.sources.Append(Endpoint{addrs[0], s});
  }
  for (uint32_t t = 0; t < 8; ++t) {
    spec.targets.Append(Endpoint{addrs[1 + t], 0});
  }
  spec.schema = PaddedSchema(tuple_size);
  spec.options.use_multicast = multicast;
  DFI_CHECK_OK(dfi.InitReplicateFlow(std::move(spec)));

  const uint64_t tuples = kBytesPerSource / tuple_size;
  SimTime finish = 0;
  exec::Engine engine;
  for (uint32_t s = 0; s < num_sources; ++s) {
    engine.Spawn(0, "source", [&, s] {
      auto src = dfi.CreateReplicateSource("rep", s);
      std::vector<uint8_t> buf(tuple_size, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
        DFI_CHECK_OK((*src)->Push(buf.data()));
      }
      DFI_CHECK_OK((*src)->Close());
    });
  }
  for (uint32_t t = 0; t < 8; ++t) {
    engine.Spawn(1 + t, "target", [&, t] {
      auto tgt = dfi.CreateReplicateTarget("rep", t);
      SegmentView seg;
      while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
      }
      finish = std::max(finish, (*tgt)->clock().now());
    });
  }
  engine.Run();
  // Aggregated *receiver* bandwidth: every byte arrives at all 8 targets.
  const double delivered =
      static_cast<double>(kBytesPerSource) * num_sources * 8;
  return delivered / static_cast<double>(finish);
}

void Run() {
  PrintSection(
      "Figure 8a: replicate flow aggregated receiver bandwidth "
      "(naive one-sided, 1:8)");
  TablePrinter table({"tuple size", "1 source thread", "2 source threads",
                      "4 source threads"});
  double peak = 0;  // bytes/ns, best cell
  for (uint32_t tuple_size : {64u, 256u, 1024u}) {
    std::vector<std::string> row{FormatBytes(tuple_size)};
    for (uint32_t threads : {1u, 2u, 4u}) {
      const double cell = RunCell(tuple_size, threads, false);
      if (cell > peak) peak = cell;
      row.push_back(Rate(cell * 1e9, 1'000'000'000));
    }
    table.AddRow(row);
  }
  table.Print();
  RecordMetric("peak aggregated receiver bandwidth", peak * 1e9 / kGiB,
               "GiB/s");
  std::printf(
      "(naive replication is limited by the sender's outgoing link:\n"
      " aggregated receiver BW caps at ~11.64 GiB/s)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
