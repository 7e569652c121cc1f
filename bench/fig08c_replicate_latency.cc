// Figure 8c: replicate flow latency — a source replicates a request to N
// targets and waits for replies from all of them.
// Paper result: naive replication is fastest at N=1 but its latency grows
// with N (serialized sends); multicast grows much less and wins at N=8.

#include "bench/bench_common.h"
#include "common/stats.h"

namespace dfi::bench {
namespace {

constexpr int kRounds = 300;

SimTime RunCell(uint32_t tuple_size, uint32_t num_targets, bool multicast) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 1 + num_targets);
  DfiRuntime dfi(&fabric);

  ReplicateFlowSpec req;
  req.name = "req";
  req.sources.Append(Endpoint{addrs[0], 0});
  for (uint32_t t = 0; t < num_targets; ++t) {
    req.targets.Append(Endpoint{addrs[1 + t], 0});
  }
  req.schema = PaddedSchema(tuple_size);
  req.options.optimization = FlowOptimization::kLatency;
  req.options.use_multicast = multicast;
  DFI_CHECK_OK(dfi.InitReplicateFlow(std::move(req)));

  ShuffleFlowSpec resp;
  resp.name = "resp";
  for (uint32_t t = 0; t < num_targets; ++t) {
    resp.sources.Append(Endpoint{addrs[1 + t], 0});
  }
  resp.targets.Append(Endpoint{addrs[0], 0});
  resp.schema = Schema{{"seq", DataType::kUInt64}};
  resp.options.optimization = FlowOptimization::kLatency;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(resp)));

  exec::Engine engine;
  for (uint32_t t = 0; t < num_targets; ++t) {
    engine.Spawn(1 + t, "server", [&, t] {
      auto in = dfi.CreateReplicateTarget("req", t);
      auto out = dfi.CreateShuffleSource("resp", t);
      TupleView tuple;
      while ((*in)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        (*out)->clock().AdvanceTo((*in)->clock().now());
        const uint64_t seq = tuple.Get<uint64_t>(0);
        DFI_CHECK_OK((*out)->Push(&seq));
        (*in)->clock().AdvanceTo((*out)->clock().now());
      }
      DFI_CHECK_OK((*out)->Close());
    });
  }

  LatencyRecorder rtt;
  engine.Spawn(0, "client", [&] {
    auto src = dfi.CreateReplicateSource("req", 0);
    auto tgt = dfi.CreateShuffleTarget("resp", 0);
    std::vector<uint8_t> buf(tuple_size, 0);
    for (int i = 0; i < kRounds; ++i) {
      const SimTime t0 =
          std::max((*src)->clock().now(), (*tgt)->clock().now());
      (*src)->clock().AdvanceTo(t0);
      (*tgt)->clock().AdvanceTo(t0);
      TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
      DFI_CHECK_OK((*src)->Push(buf.data()));
      for (uint32_t r = 0; r < num_targets; ++r) {
        TupleView tuple;
        DFI_CHECK((*tgt)->Consume(&tuple) == ConsumeResult::kOk);
      }
      rtt.Record((*tgt)->clock().now() - t0);
    }
    DFI_CHECK_OK((*src)->Close());
    TupleView tuple;
    while ((*tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
    }
  });
  engine.Run();
  return rtt.Median();
}

void Run() {
  PrintSection(
      "Figure 8c: replicate flow median latency until replies from all "
      "targets (1:N)");
  TablePrinter table({"tuple size", "naive N=1", "naive N=8",
                      "multicast N=1", "multicast N=8"});
  // 4064 B is the largest tuple that fits one multicast datagram
  // (4 KiB MTU minus the segment footer).
  for (uint32_t size : {16u, 64u, 256u, 1024u, 4064u}) {
    const SimTime naive8 = RunCell(size, 8, false);
    const SimTime mcast8 = RunCell(size, 8, true);
    table.AddRow({FormatBytes(size), Micros(RunCell(size, 1, false)),
                  Micros(naive8), Micros(RunCell(size, 1, true)),
                  Micros(mcast8)});
    if (size == 64u) {
      RecordMetric("naive 1:8 median latency (64 B)", naive8 / 1000.0, "us");
      RecordMetric("multicast 1:8 median latency (64 B)", mcast8 / 1000.0,
                   "us");
    }
  }
  table.Print();
  std::printf(
      "(expected: naive wins at N=1, multicast wins at N=8 because the\n"
      " naive source serializes one write per target)\n");
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
