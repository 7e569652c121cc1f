// Figure 15: state machine replication — DARE vs DFI Multi-Paxos vs DFI
// NOPaxos. Five replicas, six clients on three nodes, 64-byte requests,
// YCSB read-dominated (95/5). The throughput/latency curve is swept by
// varying the clients' virtual think time.
// Paper result: both DFI implementations beat DARE in throughput and
// latency; Multi-Paxos and NOPaxos have near-identical latency until
// ~Multi-Paxos' leader saturates, beyond which NOPaxos sustains much
// higher request rates (clients collect the votes themselves).

#include "apps/consensus/consensus.h"
#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

using consensus::ConsensusConfig;
using consensus::ConsensusResult;

template <typename Fn>
void Sweep(const char* name, Fn run, TablePrinter* table) {
  double peak_rps = 0;
  for (SimTime think : {40'000, 20'000, 10'000, 5'000, 2'000, 500, 0}) {
    ConsensusConfig cfg;
    cfg.requests_per_client = 1500;
    cfg.think_time_ns = think;
    // At low offered load the submission window is irrelevant for
    // throughput; a window of 1 keeps the clients' real-time racing from
    // skewing the virtual-order of requests (emulation artifact).
    cfg.client_window = think >= 10'000 ? 1 : 8;
    net::Fabric fabric;
    auto addrs =
        MakeCluster(&fabric, cfg.num_replicas + cfg.num_client_nodes);
    DfiRuntime dfi(&fabric);
    auto r = run(&dfi, addrs, cfg);
    DFI_CHECK(r.ok()) << r.status();
    table->AddRow({name, Micros(think), Num(r->throughput_rps),
                   Micros(r->median_latency_ns),
                   Micros(r->p95_latency_ns)});
    if (r->throughput_rps > peak_rps) peak_rps = r->throughput_rps;
  }
  RecordMetric(std::string("peak throughput, ") + name, peak_rps, "req/s");
}

void Body() {
  PrintSection(
      "Figure 15: consensus — DARE vs DFI Multi-Paxos vs DFI NOPaxos "
      "(5 replicas, 6 clients, 64 B requests, YCSB 95/5)");
  TablePrinter table({"system", "think time", "requests/s",
                      "median latency", "p95 latency"});
  Sweep("DARE", consensus::RunDare, &table);
  Sweep("DFI Multi-Paxos", consensus::RunMultiPaxos, &table);
  Sweep("DFI NOPaxos", consensus::RunNoPaxos, &table);
  table.Print();
  std::printf(
      "(expected: DARE saturates first — sequential clients + serializing\n"
      " write protocol; Multi-Paxos sustains more; NOPaxos sustains the\n"
      " highest rates because clients collect votes themselves. Latencies\n"
      " of the two DFI systems are near-identical at low load: NOPaxos'\n"
      " sequencer costs what Multi-Paxos' extra message delays cost.)\n");
}

void Run() {
  // The consensus apps spawn their replicas and clients as actors of the
  // calling task's engine.
  exec::Engine engine;
  engine.Spawn(0, "fig15", Body);
  engine.Run();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
