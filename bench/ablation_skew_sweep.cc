// Ablation: skew- and straggler-adaptive shuffle vs the static key-hash
// partitioner, extending Figure 12 (straggler resilience) and Figure 13
// (partitioned-join shuffle) to skewed inputs.
//
// Three sections, each comparing the same workload with adaptive shuffling
// off (the static baseline) and on:
//  1. Zipf sweep: 8x8-thread shuffle of a zipfian relation for
//     theta in {0, 0.5, 0.8, 0.99, 1.2}. Static partitioning funnels the
//     hot keys' tuples into single target threads; the adaptive path
//     re-splits detected hot keys across the home node's sink threads and
//     work-steals the residue.
//  2. Hot-key adversarial: a few designated keys own half the traffic —
//     the sharpest version of the same effect.
//  3. Thread straggler: uniform keys, one sink thread at 1/8 processing
//     speed (the thread-level analogue of Figure 12's slow node). Work
//     stealing lets same-node siblings absorb the straggler's backlog;
//     backpressure reaction additionally diverts cold keys at the source.
//
// Targets pay a per-tuple processing cost on consume, so completion time is
// dominated by the most-loaded sink thread — the quantity skew distorts.
//
// `--smoke` runs a scaled-down sweep (4 nodes, fewer tuples) for CI.

#include <algorithm>
#include <atomic>

#include "bench/bench_common.h"

namespace dfi::bench {
namespace {

bool g_smoke = false;

constexpr uint32_t kThreadsPerNode = 8;
constexpr uint32_t kTupleSize = sizeof(JoinTuple);  // 16 B key/payload
constexpr uint64_t kKeyDomain = 1u << 20;
/// Per-tuple compute: producing a tuple at the source / processing a
/// consumed tuple at the target (the join-build side of Figure 13).
constexpr SimTime kProduceNs = 20;
constexpr SimTime kProcessNs = 60;

struct SweepConfig {
  uint32_t nodes;
  uint64_t tuples_per_source;
  uint32_t epoch_tuples;
};

SweepConfig Config() {
  if (g_smoke) return {4, 10240, 1024};
  return {8, 65536, 4096};
}

struct RunStats {
  SimTime finish = 0;
  uint64_t resplit = 0;   // tuples routed away from their static home
  uint64_t diverted = 0;  // tuples diverted by backpressure reaction
  uint64_t stolen = 0;    // segments consumed from a sibling's column
};

/// Runs one shuffle of per-source `relations[w]` and returns the finish
/// virtual time (max over worker threads of max(source, sink clock)).
/// `straggle_worker` (if >= 0) processes consumed tuples `straggle`x
/// slower.
RunStats RunShuffle(const SweepConfig& cfg,
                    const std::vector<std::vector<JoinTuple>>& relations,
                    bool adaptive, bool react_to_backpressure,
                    int straggle_worker = -1, SimTime straggle = 8) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, cfg.nodes);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "skew";
  spec.sources = DfiNodes::GridOf(addrs, kThreadsPerNode);
  spec.targets = DfiNodes::GridOf(addrs, kThreadsPerNode);
  spec.schema = Schema{{"key", DataType::kUInt64},
                       {"payload", DataType::kUInt64}};
  if (adaptive) {
    spec.options.adaptive.enabled = true;
    // One fair share per epoch is enough to count as hot: the sweep wants
    // every key the sketch can resolve re-split, not just extreme ones.
    spec.options.adaptive.hot_factor = 1.0;
    spec.options.adaptive.epoch_tuples = cfg.epoch_tuples;
    spec.options.adaptive.max_hot_keys = 8;
    spec.options.adaptive.react_to_backpressure = react_to_backpressure;
  }
  DFI_CHECK_OK(dfi.InitShuffleFlow(std::move(spec)));

  const uint32_t workers = cfg.nodes * kThreadsPerNode;
  DFI_CHECK_EQ(relations.size(), workers);
  RunStats stats;
  std::atomic<SimTime> finish{0};
  std::atomic<uint64_t> resplit{0}, diverted{0}, stolen{0};
  exec::Engine engine;
  for (uint32_t w = 0; w < workers; ++w) {
    engine.Spawn(w / kThreadsPerNode, "worker", [&, w] {
      auto src = dfi.CreateShuffleSource("skew", w);
      auto tgt = dfi.CreateShuffleTarget("skew", w);
      const SimTime process =
          static_cast<int>(w) == straggle_worker ? kProcessNs * straggle
                                                 : kProcessNs;
      bool drained = false;
      auto drain_available = [&] {
        SegmentView seg;
        ConsumeResult r;
        while (!drained && (*tgt)->TryConsumeSegment(&seg, &r)) {
          if (r == ConsumeResult::kFlowEnd) {
            drained = true;
          } else if (r == ConsumeResult::kOk) {
            (*tgt)->clock().Advance(
                static_cast<SimTime>(seg.bytes / kTupleSize) * process);
          } else {
            DFI_CHECK(false) << (*tgt)->last_status();
          }
        }
      };
      const std::vector<JoinTuple>& rel = relations[w];
      for (uint64_t i = 0; i < rel.size(); ++i) {
        (*src)->clock().Advance(kProduceNs);
        DFI_CHECK_OK((*src)->Push(&rel[i]));
        if (i % 64 == 0) drain_available();
      }
      DFI_CHECK_OK((*src)->Close());
      SegmentView seg;
      while (!drained) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) {
          drained = true;
        } else if (r == ConsumeResult::kOk) {
          (*tgt)->clock().Advance(
              static_cast<SimTime>(seg.bytes / kTupleSize) * process);
        } else {
          DFI_CHECK(false) << (*tgt)->last_status();
        }
      }
      if (const AdaptivePartitioner* a = (*src)->adaptive(); a != nullptr) {
        resplit.fetch_add(a->resplit_tuples());
        diverted.fetch_add(a->diverted_tuples());
      }
      stolen.fetch_add((*tgt)->stolen_segments());
      const SimTime end =
          std::max((*src)->clock().now(), (*tgt)->clock().now());
      SimTime prev = finish.load();
      while (prev < end && !finish.compare_exchange_weak(prev, end)) {
      }
    });
  }
  engine.Run();
  stats.finish = finish.load();
  stats.resplit = resplit.load();
  stats.diverted = diverted.load();
  stats.stolen = stolen.load();
  return stats;
}

std::vector<std::vector<JoinTuple>> ZipfRelations(const SweepConfig& cfg,
                                                  double theta) {
  const uint32_t workers = cfg.nodes * kThreadsPerNode;
  std::vector<std::vector<JoinTuple>> rel(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    rel[w] = GenerateZipfianRelation(cfg.tuples_per_source, kKeyDomain,
                                     theta, BenchSeed() + w);
  }
  return rel;
}

std::vector<std::vector<JoinTuple>> HotKeyRelations(const SweepConfig& cfg,
                                                    uint64_t hot_keys,
                                                    double hot_fraction) {
  const uint32_t workers = cfg.nodes * kThreadsPerNode;
  std::vector<std::vector<JoinTuple>> rel(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    rel[w] = GenerateHotKeyRelation(cfg.tuples_per_source, kKeyDomain,
                                    hot_keys, hot_fraction, BenchSeed() + w);
  }
  return rel;
}

std::string Speedup(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

void Run() {
  const SweepConfig cfg = Config();
  const uint32_t workers = cfg.nodes * kThreadsPerNode;
  const double total_bytes = static_cast<double>(workers) *
                             static_cast<double>(cfg.tuples_per_source) *
                             kTupleSize;

  PrintSection(g_smoke ? "Skew sweep: zipfian shuffle, static vs adaptive "
                         "(smoke scale)"
                       : "Skew sweep: zipfian shuffle (8 nodes x 8 "
                         "threads), static vs adaptive");
  {
    TablePrinter table({"zipf theta", "static", "adaptive", "speedup",
                        "re-split tuples", "stolen segments"});
    double uniform_ratio = 1.0, skew_ratio = 0.0;
    for (const double theta : {0.0, 0.5, 0.8, 0.99, 1.2}) {
      const auto rel = ZipfRelations(cfg, theta);
      const RunStats s = RunShuffle(cfg, rel, /*adaptive=*/false,
                                    /*react_to_backpressure=*/false);
      const RunStats a = RunShuffle(cfg, rel, /*adaptive=*/true,
                                    /*react_to_backpressure=*/false);
      const double ratio =
          static_cast<double>(s.finish) / static_cast<double>(a.finish);
      char name[32];
      std::snprintf(name, sizeof(name), "theta=%.2f", theta);
      table.AddRow({name, Millis(s.finish), Millis(a.finish), Speedup(ratio),
                    Num(static_cast<double>(a.resplit)),
                    Num(static_cast<double>(a.stolen))});
      RecordMetric(std::string("adaptive speedup, ") + name, ratio, "x");
      RecordMetric(std::string("static throughput, ") + name,
                   total_bytes / static_cast<double>(s.finish) * 1e9 / kGiB,
                   "GiB/s");
      if (theta == 0.0) uniform_ratio = ratio;
      if (theta == 0.99) skew_ratio = ratio;
    }
    table.Print();
    // No skew: adaptive must not cost anything (acceptance: within 5%).
    DFI_CHECK_GE(uniform_ratio, 0.95)
        << "adaptive slower than static on uniform input";
    DFI_CHECK_LE(uniform_ratio, 1.05)
        << "adaptive faster than static on uniform input — the baseline "
           "run is suspect";
    // Acceptance: >= 2x at the YCSB-default skew (looser at smoke scale,
    // where fewer epochs run adapted).
    DFI_CHECK_GE(skew_ratio, g_smoke ? 1.4 : 2.0)
        << "adaptive speedup under zipf 0.99 below the acceptance bar";
    std::printf(
        "(expected: ~1x at theta=0, growing with skew — the static "
        "hot-key\n target thread is the completion bottleneck; adaptive "
        "re-splits it\n across its node's sink threads)\n");
  }

  PrintSection("Hot-key adversarial: 4 keys own 50% of the traffic");
  {
    TablePrinter table({"configuration", "static", "adaptive", "speedup",
                        "re-split tuples", "stolen segments"});
    const auto rel = HotKeyRelations(cfg, /*hot_keys=*/4,
                                     /*hot_fraction=*/0.5);
    const RunStats s = RunShuffle(cfg, rel, /*adaptive=*/false,
                                  /*react_to_backpressure=*/false);
    const RunStats a = RunShuffle(cfg, rel, /*adaptive=*/true,
                                  /*react_to_backpressure=*/false);
    const double ratio =
        static_cast<double>(s.finish) / static_cast<double>(a.finish);
    table.AddRow({"4 keys, 50% of tuples", Millis(s.finish),
                  Millis(a.finish), Speedup(ratio),
                  Num(static_cast<double>(a.resplit)),
                  Num(static_cast<double>(a.stolen))});
    table.Print();
    RecordMetric("adaptive speedup, hot-key 4x50%", ratio, "x");
    DFI_CHECK_GE(ratio, g_smoke ? 1.5 : 2.0)
        << "adaptive speedup on the hot-key workload below the bar";
  }

  PrintSection(
      "Thread straggler (Figure 12 extension): uniform keys, one sink "
      "thread at 1/8 speed");
  {
    TablePrinter table({"configuration", "static", "adaptive", "speedup",
                        "diverted tuples", "stolen segments"});
    const auto rel = ZipfRelations(cfg, /*theta=*/0.0);
    const RunStats s =
        RunShuffle(cfg, rel, /*adaptive=*/false,
                   /*react_to_backpressure=*/false, /*straggle_worker=*/0);
    // The straggler case opts into backpressure reaction: queue depths are
    // the only signal that distinguishes a slow *consumer* (frequencies
    // look uniform), at the documented cost of bit-determinism.
    const RunStats a =
        RunShuffle(cfg, rel, /*adaptive=*/true,
                   /*react_to_backpressure=*/true, /*straggle_worker=*/0);
    const double ratio =
        static_cast<double>(s.finish) / static_cast<double>(a.finish);
    table.AddRow({"sink thread 0 at 1/8 speed", Millis(s.finish),
                  Millis(a.finish), Speedup(ratio),
                  Num(static_cast<double>(a.diverted)),
                  Num(static_cast<double>(a.stolen))});
    table.Print();
    RecordMetric("adaptive speedup, thread straggler 1/8", ratio, "x");
    DFI_CHECK_GE(ratio, g_smoke ? 1.5 : 2.0)
        << "straggler resilience below the bar";
    std::printf(
        "(expected: static completion is pinned to the slow thread; with "
        "stealing\n + backpressure reaction its same-node siblings absorb "
        "the backlog)\n");
  }
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      dfi::bench::g_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  return dfi::bench::BenchMain(static_cast<int>(args.size()), args.data(),
                               dfi::bench::Run);
}
