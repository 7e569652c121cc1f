// Ablation: size of the engine's worker pool — one worker vs one per
// hardware thread.
//
// The fleet is n/2 source->target pipelines (n emulated nodes), each a
// 1:1 latency-optimized shuffle flow (one tuple per segment). A bench-level
// bounded skew window keeps each producer within a few segments of its
// consumer — the tightly coupled interleaving every multi-actor emulation
// exhibits — so the pair hands off on every delivery, each handoff a fiber
// park/resume. The skew window never touches a virtual clock, and the
// flow's own backpressure paths stay cold (credits never run low at this
// window size), so every virtual quantity is a push-side sequential sum or
// max-join: the reported simulated time — the last segment's wire arrival —
// is digit-identical between pool sizes, and the ablation isolates pure
// emulator overhead of running the scheduler on more OS threads.
//
// Part A: 64-node fleet, pool 1 vs pool N (headline).
// Part B: fleet scaling 8..256 nodes, both pool sizes (EXPERIMENTS.md
// table).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/exec/engine.h"

namespace dfi::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed total work per fleet run, split across pipelines: within a fleet
// size the pool-size comparison is like-for-like, and across sizes the
// total emulated work stays constant. Divisible by every pipeline count
// used below.
constexpr uint64_t kTotalTuples = 491'520;

// Actors per emulated node: each node pair carries this many independent
// 1:1 flows, each with its own source and target actor. Emulated fleets
// run many actors per node (flow endpoints, MPI ranks, replicas, clients).
constexpr uint32_t kFlowsPerPair = 4;

// Max segments a producer may run ahead of its consumer, enforced by
// parking without a virtual-time charge — the tight coupling every
// multi-actor emulation exhibits. Small so the pair hands off on (nearly)
// every delivery.
constexpr uint64_t kSkewWindow = 4;

/// Scheduling-only backpressure between one producer/consumer pair: the
/// producer parks its task until the consumer catches up. Neither side
/// ever advances a virtual clock, so the window is invisible to the
/// emulation.
struct SkewGate {
  std::atomic<uint64_t> consumed{0};
  exec::WaitPoint wp;

  void AwaitRoom(uint64_t next) {
    auto room = [&] {
      return next < consumed.load(std::memory_order_acquire) + kSkewWindow;
    };
    while (!room()) {
      exec::Engine::Park(&wp, room, /*now=*/0, exec::Engine::kNoTimer);
    }
  }

  void Consumed() {
    consumed.fetch_add(1, std::memory_order_release);
    wp.WakeAll();
  }
};

struct FleetRun {
  double wall_s = 0;    // wall-clock seconds for the whole fleet
  SimTime sim_done = 0; // flow completion: max segment arrival (wire) time
  uint64_t tuples = 0;  // total tuples delivered (sanity)
};

/// Spawns one actor per endpoint (n/2 sources + n/2 targets) on the calling
/// task's engine and runs the fleet to completion.
FleetRun RunFleetBody(uint32_t nodes) {
  const uint32_t pipelines = (nodes / 2) * kFlowsPerPair;
  const uint64_t tuples = kTotalTuples / pipelines;
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, nodes);
  DfiRuntime dfi(&fabric);

  for (uint32_t p = 0; p < pipelines; ++p) {
    const uint32_t pair = p / kFlowsPerPair;
    ShuffleFlowSpec spec;
    spec.name = "pipe." + std::to_string(p);
    spec.sources.Append(Endpoint{addrs[pair], 0});
    spec.targets.Append(Endpoint{addrs[nodes / 2 + pair], 0});
    spec.schema = PaddedSchema(8);
    // Latency-optimized segments: one tuple per segment, one consumer
    // wakeup per delivery. The ring is sized so it never wraps and the
    // source's cached credit never runs low (low fires at 3/4 of the
    // ring): the source side never samples consumer progress — neither
    // slot-release timestamps nor credit-counter reads — so its virtual
    // timeline, and with it every segment's wire arrival, is a pure
    // function of the push sequence.
    spec.options.optimization = FlowOptimization::kLatency;
    spec.options.segments_per_ring = static_cast<uint32_t>(2 * tuples + 16);
    DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());
  }

  std::vector<SimTime> done(pipelines, 0);
  std::vector<uint64_t> counts(pipelines, 0);
  std::vector<std::unique_ptr<SkewGate>> gates;
  gates.reserve(pipelines);
  for (uint32_t p = 0; p < pipelines; ++p) {
    gates.push_back(std::make_unique<SkewGate>());
  }
  exec::ActorGroup actors;
  for (uint32_t p = 0; p < pipelines; ++p) {
    const uint32_t src_node = p / kFlowsPerPair;
    const uint32_t tgt_node = nodes / 2 + p / kFlowsPerPair;
    actors.Spawn(src_node, "src." + std::to_string(p),
                 [&dfi, &gates, p, tuples] {
      auto src = dfi.CreateShuffleSource("pipe." + std::to_string(p), 0);
      DFI_CHECK(src.ok());
      for (uint64_t i = 0; i < tuples; ++i) {
        gates[p]->AwaitRoom(i);
        const uint64_t key = i;
        DFI_CHECK((*src)->Push(&key).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
    actors.Spawn(tgt_node, "tgt." + std::to_string(p),
                 [&dfi, &gates, &done, &counts, p] {
      auto tgt = dfi.CreateShuffleTarget("pipe." + std::to_string(p), 0);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        counts[p] += seg.bytes / 8;
        // Flow completion = last wire arrival. Arrival times are computed
        // from push-side sequential state, so this max-join is identical
        // at every pool size; the target's own clock need not be (with
        // several workers the ready-gate pop order races).
        done[p] = std::max(done[p], seg.arrival);
        gates[p]->Consumed();
      }
    });
  }
  actors.Join();

  FleetRun run;
  for (uint32_t p = 0; p < pipelines; ++p) {
    run.sim_done = std::max(run.sim_done, done[p]);
    run.tuples += counts[p];
  }
  return run;
}

/// Runs the fleet on a `workers`-wide engine (0 = one per hardware thread).
FleetRun RunFleet(uint32_t workers, uint32_t nodes) {
  const Clock::time_point start = Clock::now();
  FleetRun run;
  exec::Engine engine({.workers = workers, .lookahead_ns = 1000});
  engine.Spawn(0, "fleet-root", [&] { run = RunFleetBody(nodes); });
  engine.Run();
  run.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  DFI_CHECK_EQ(run.tuples, kTotalTuples);
  return run;
}

std::string Secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f s", s);
  return buf;
}

std::string Pct(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", p);
  return buf;
}

double SimDeltaPct(const FleetRun& a, const FleetRun& b) {
  if (a.sim_done == 0) return 0;
  return (static_cast<double>(b.sim_done) -
          static_cast<double>(a.sim_done)) *
         100.0 / static_cast<double>(a.sim_done);
}

void Run() {
  const uint32_t pool = exec::Engine({.workers = 0}).workers();
  const std::string pool_name = "pool " + std::to_string(pool);
  // Warm up allocator, page cache, and fiber stacks so part A's headline
  // numbers are not skewed by first-run effects.
  RunFleet(1, 8);
  RunFleet(0, 8);

  PrintSection("Ablation: engine worker pool, 64-node fleet");
  const FleetRun one64 = RunFleet(1, 64);
  const FleetRun many64 = RunFleet(0, 64);
  const double speedup = one64.wall_s / many64.wall_s;
  {
    TablePrinter t({"execution", "wall clock", "sim time", "sim delta"});
    t.AddRow({"pool 1 (one worker)", Secs(one64.wall_s),
              Millis(one64.sim_done), "-"});
    t.AddRow({pool_name + " (one per hardware thread)", Secs(many64.wall_s),
              Millis(many64.sim_done), Pct(SimDeltaPct(one64, many64))});
    t.Print();
  }
  std::printf("%s speedup over pool 1 at 64 nodes: %.2fx (simulated time "
              "%s)\n",
              pool_name.c_str(), speedup,
              Pct(SimDeltaPct(one64, many64)).c_str());
  RecordMetric("pool_speedup_64_nodes", speedup, "x");
  RecordMetric("sim_time_delta_64_nodes", SimDeltaPct(one64, many64), "%");
  RecordMetric("pool1_wall_64_nodes", one64.wall_s, "s");
  RecordMetric("poolN_wall_64_nodes", many64.wall_s, "s");

  PrintSection("Fleet scaling: pool 1 vs " + pool_name);
  TablePrinter t({"nodes", "pool 1 wall", pool_name + " wall", "speedup",
                  "sim delta"});
  for (uint32_t nodes : {8u, 16u, 64u, 128u, 256u}) {
    const FleetRun one = RunFleet(1, nodes);
    const FleetRun many = RunFleet(0, nodes);
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx", one.wall_s / many.wall_s);
    t.AddRow({std::to_string(nodes), Secs(one.wall_s), Secs(many.wall_s), sp,
              Pct(SimDeltaPct(one, many))});
    RecordMetric("pool_speedup_" + std::to_string(nodes) + "_nodes",
                 one.wall_s / many.wall_s, "x");
    RecordMetric("sim_time_delta_" + std::to_string(nodes) + "_nodes",
                 SimDeltaPct(one, many), "%");
  }
  t.Print();
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  return dfi::bench::BenchMain(argc, argv, dfi::bench::Run);
}
