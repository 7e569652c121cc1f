// Figure 9: combiner flow with SUM aggregation, 8 sender nodes -> 1 target
// node with 1/2/4 target threads. Aggregated sender bandwidth.
// Paper result: 1 target thread is CPU-bound on aggregation for small
// tuples; 2-4 threads reach the target's in-going link limit.

#include <atomic>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

constexpr uint64_t kBytesPerSource = 12 * kMiB;
constexpr uint64_t kGroups = 4096;

Schema CombinerSchema(uint32_t tuple_size) {
  DFI_CHECK_GE(tuple_size, 16u);
  if (tuple_size == 16) {
    return Schema{{"key", DataType::kUInt64}, {"value", DataType::kInt64}};
  }
  return Schema{{"key", DataType::kUInt64},
                {"value", DataType::kInt64},
                {"pad", DataType::kChar, tuple_size - 16}};
}

double RunCell(uint32_t tuple_size, uint32_t target_threads) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 9);  // node 0 receives, 1..8 send
  DfiRuntime dfi(&fabric);

  CombinerFlowSpec spec;
  spec.name = "agg";
  for (uint32_t s = 0; s < 8; ++s) {
    spec.sources.Append(Endpoint{addrs[1 + s], 0});
  }
  for (uint32_t t = 0; t < target_threads; ++t) {
    spec.targets.Append(Endpoint{addrs[0], t});
  }
  spec.schema = CombinerSchema(tuple_size);
  spec.group_by_index = 0;
  spec.aggregates = {{AggFunc::kSum, 1}};
  DFI_CHECK_OK(dfi.InitCombinerFlow(std::move(spec)));

  const uint64_t tuples = kBytesPerSource / tuple_size;
  std::atomic<SimTime> finish{0};
  exec::Engine engine;
  for (uint32_t s = 0; s < 8; ++s) {
    engine.Spawn(1 + s, "source", [&, s] {
      auto src = dfi.CreateCombinerSource("agg", s);
      std::vector<uint8_t> buf(tuple_size, 0);
      for (uint64_t i = 0; i < tuples; ++i) {
        TupleWriter(buf.data(), &(*src)->schema())
            .Set<uint64_t>(0, (s * tuples + i) % kGroups)
            .Set<int64_t>(1, static_cast<int64_t>(i));
        DFI_CHECK_OK((*src)->Push(buf.data()));
      }
      DFI_CHECK_OK((*src)->Close());
    });
  }
  for (uint32_t t = 0; t < target_threads; ++t) {
    engine.Spawn(0, "target", [&, t] {
      auto tgt = dfi.CreateCombinerTarget("agg", t);
      AggRow row;
      while ((*tgt)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
      }
      SimTime prev = finish.load();
      while (prev < (*tgt)->clock().now() &&
             !finish.compare_exchange_weak(prev, (*tgt)->clock().now())) {
      }
    });
  }
  engine.Run();
  const double total = static_cast<double>(kBytesPerSource) * 8;
  return total / static_cast<double>(finish.load());
}

void Run() {
  PrintSection(
      "Figure 9: combiner flow with SUM aggregation (8:1), aggregated "
      "sender bandwidth");
  TablePrinter table({"tuple size", "1 target thread", "2 target threads",
                      "4 target threads"});
  for (uint32_t tuple_size : {64u, 256u, 1024u}) {
    std::vector<std::string> row{FormatBytes(tuple_size)};
    for (uint32_t threads : {1u, 2u, 4u}) {
      row.push_back(Rate(RunCell(tuple_size, threads) * 1e9, 1'000'000'000));
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "(expected: small tuples CPU-bound at 1 target thread; >= 2 threads\n"
      " approach the receiver's 11.64 GiB/s in-going link)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
