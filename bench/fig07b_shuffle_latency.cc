// Figure 7b: median round-trip latency of latency-optimized shuffle flows
// vs. a raw-verbs ping-pong (the ib_write_lat stand-in), for 16 B .. 16 KiB
// tuples and 1/4/8 receiving servers.
// Paper result: DFI adds only minimal overhead over ib_write_lat; more
// targets cost slightly more due to flow-internal routing.

#include <algorithm>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "rdma/queue_pair.h"

namespace dfi::bench {
namespace {

constexpr int kRounds = 400;

/// Raw one-sided-write ping-pong between two nodes, the role
/// `ib_write_lat` plays in the paper: the latency floor.
SimTime IbWriteLat(uint32_t size) {
  net::Fabric fabric;
  MakeCluster(&fabric, 2);
  rdma::RdmaEnv env(&fabric);
  rdma::RdmaContext* a = env.context(0);
  rdma::RdmaContext* b = env.context(1);
  rdma::MemoryRegion* buf_a = a->AllocateRegion(size);
  rdma::MemoryRegion* buf_b = b->AllocateRegion(size);
  rdma::RcQueuePair* ab = a->CreateRcQp(1, a->CreateCq());
  rdma::RcQueuePair* ba = b->CreateRcQp(0, b->CreateCq());
  const net::SimConfig& cfg = fabric.config();

  VirtualClock clock_a, clock_b;
  LatencyRecorder rtt;
  for (int i = 0; i < kRounds; ++i) {
    const SimTime t0 = clock_a.now();
    rdma::WriteDesc ping{buf_a->addr(), buf_b->RefAt(0), size, 0, false,
                         size <= cfg.max_inline_bytes};
    auto tp = ab->PostWrite(ping, &clock_a);
    DFI_CHECK(tp.ok());
    // Responder polls memory, then pongs.
    clock_b.AdvanceTo(tp->arrival);
    clock_b.Advance(cfg.poll_cq_ns);
    rdma::WriteDesc pong{buf_b->addr(), buf_a->RefAt(0), size, 0, false,
                         size <= cfg.max_inline_bytes};
    auto tq = ba->PostWrite(pong, &clock_b);
    DFI_CHECK(tq.ok());
    clock_a.AdvanceTo(tq->arrival);
    clock_a.Advance(cfg.poll_cq_ns);
    rtt.Record(clock_a.now() - t0);
  }
  return rtt.Median();
}

/// DFI round trip: a request tuple through a latency-optimized 1:N shuffle
/// flow (round-robin across the N servers), response through an N:1 flow.
SimTime DfiRoundTrip(uint32_t size, uint32_t num_servers) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 1 + num_servers);
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec req;
  req.name = "req";
  req.sources.Append(Endpoint{addrs[0], 0});
  for (uint32_t s = 0; s < num_servers; ++s) {
    req.targets.Append(Endpoint{addrs[1 + s], 0});
  }
  req.schema = PaddedSchema(size);
  req.options.optimization = FlowOptimization::kLatency;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(req)));

  ShuffleFlowSpec resp;
  resp.name = "resp";
  for (uint32_t s = 0; s < num_servers; ++s) {
    resp.sources.Append(Endpoint{addrs[1 + s], 0});
  }
  resp.targets.Append(Endpoint{addrs[0], 0});
  resp.schema = PaddedSchema(size);
  resp.options.optimization = FlowOptimization::kLatency;
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(resp)));

  exec::Engine engine;
  for (uint32_t s = 0; s < num_servers; ++s) {
    engine.Spawn(1 + s, "server", [&, s] {
      auto in = dfi.CreateShuffleTarget("req", s);
      auto out = dfi.CreateShuffleSource("resp", s);
      TupleView tuple;
      while ((*in)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        (*out)->clock().AdvanceTo((*in)->clock().now());
        DFI_CHECK_OK((*out)->Push(tuple.data()));
        (*in)->clock().AdvanceTo((*out)->clock().now());
      }
      DFI_CHECK_OK((*out)->Close());
    });
  }

  LatencyRecorder rtt;
  engine.Spawn(0, "client", [&] {
    auto src = dfi.CreateShuffleSource("req", 0);
    auto tgt = dfi.CreateShuffleTarget("resp", 0);
    std::vector<uint8_t> buf(size, 0);
    for (int i = 0; i < kRounds; ++i) {
      const SimTime t0 =
          std::max((*src)->clock().now(), (*tgt)->clock().now());
      (*src)->clock().AdvanceTo(t0);
      TupleWriter(buf.data(), &(*src)->schema()).Set<uint64_t>(0, i);
      DFI_CHECK_OK((*src)->PushTo(buf.data(), i % num_servers));
      TupleView tuple;
      DFI_CHECK((*tgt)->Consume(&tuple) == ConsumeResult::kOk);
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
      "Figure 7b: shuffle flow median round-trip latency "
      "(latency-optimized) vs raw verbs ping-pong");
  TablePrinter table({"tuple size", "ib_write_lat (N=1)", "DFI N=1",
                      "DFI N=4", "DFI N=8"});
  for (uint32_t size : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    table.AddRow({FormatBytes(size), Micros(IbWriteLat(size)),
                  Micros(DfiRoundTrip(size, 1)),
                  Micros(DfiRoundTrip(size, 4)),
                  Micros(DfiRoundTrip(size, 8))});
  }
  table.Print();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
