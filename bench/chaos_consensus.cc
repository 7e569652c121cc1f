// Chaos experiment: Multi-Paxos leader failover under a scripted
// fail-stop crash (robustness PR — not a paper figure). A FaultPlan kills
// the term-1 leader's node mid-run; every survivor unwinds through the
// bounded-blocking machinery (poisoned channels, kPeerFailed fault-plan
// probes, block deadlines) and fails over to a pre-published term-2 flow
// set. Reported: requests completed across both terms, how many in-flight
// requests the clients resubmitted, and the virtual recovery time from the
// crash to the first / last client's first term-2 reply.

#include "apps/consensus/consensus.h"
#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

using consensus::ChaosConfig;
using consensus::ChaosResult;

void Body() {
  PrintSection(
      "Chaos: Multi-Paxos leader failover (5 replicas, 6 clients, "
      "fail-stop leader crash, 50 ms block deadline)");
  TablePrinter table({"crash at", "requests/s", "completed", "resubmitted",
                      "recovery (first)", "recovery (all)"});
  for (SimTime crash_at : {500'000, 2'000'000, 8'000'000}) {
    ChaosConfig chaos;
    chaos.base.requests_per_client = 1500;
    chaos.base.client_window = 1;  // one in-flight request per client
    chaos.base.seed = BenchSeed();
    chaos.crash_at_ns = crash_at;
    net::Fabric fabric;
    auto addrs = MakeCluster(
        &fabric, chaos.base.num_replicas + chaos.base.num_client_nodes);
    DfiRuntime dfi(&fabric);
    auto r = consensus::RunMultiPaxosChaos(&dfi, addrs, chaos);
    DFI_CHECK(r.ok()) << r.status();
    DFI_CHECK_EQ(r->completed,
                 static_cast<uint64_t>(chaos.base.num_clients) *
                     chaos.base.requests_per_client);
    table.AddRow({Micros(crash_at), Num(r->throughput_rps),
                  Num(static_cast<double>(r->completed)),
                  Num(static_cast<double>(r->resubmitted)),
                  Micros(r->recovery_first_reply_ns),
                  Micros(r->recovery_all_clients_ns)});
    std::printf("fault trace (crash at %s): %s\n", Micros(crash_at).c_str(),
                r->fault_trace.c_str());
  }
  table.Print();
  std::printf(
      "(expected: every request completes despite the crash — clients\n"
      " resubmit their in-flight request on the failover flows; recovery\n"
      " is dominated by crash detection plus the new leader's log replay,\n"
      " far below the worst-case block deadline.)\n");
}

void Run() {
  // The consensus app spawns its replicas and clients as actors of the
  // calling task's engine.
  exec::Engine engine;
  engine.Spawn(0, "chaos", Body);
  engine.Run();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
