// Determinism of the one-thread emulation engine: the same seeded workload
// run twice must report identical content — per-channel FIFO delivery
// sequences, order-insensitive content checksums, completion counts, and
// the fault plan's event trace — and must leave no second OS thread behind
// (DESIGN.md §11).

#include <array>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/consensus/consensus.h"
#include "apps/pipeline/streaming_pipeline.h"
#include "bench_util/workload.h"
#include "common/exec/engine.h"
#include "core/dfi.h"

namespace dfi {
namespace {

constexpr uint32_t kSources = 4;
constexpr uint32_t kTargets = 4;
constexpr uint64_t kTuplesPerSource = 4000;

/// Everything the shuffle workload externally produces. Per-channel
/// sequence hashes witness FIFO delivery order (deterministic by
/// construction); target sums witness content independent of the
/// cross-channel interleave.
struct ShuffleTrace {
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> channel_hash;
  std::array<uint64_t, kTargets> target_tuples{};
  uint64_t total_tuples = 0;

  bool operator==(const ShuffleTrace& o) const {
    return channel_hash == o.channel_hash &&
           target_tuples == o.target_tuples &&
           total_tuples == o.total_tuples;
  }
};

uint64_t HashStep(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Runs `workload` as the root task of an engine and checks that the run
/// kept to the calling thread.
template <typename Fn>
auto RunOnEngine(Fn workload) {
  decltype(workload()) result;
  exec::Engine engine({.lookahead_ns = 1000});
  engine.Spawn(0, "root", [&] { result = workload(); });
  engine.Run();
  EXPECT_EQ(exec::ProcessThreadCount(), 1u)
      << "the workload started an OS thread";
  return result;
}

/// The workload body: 4 sources push seeded key streams through a hashed
/// shuffle, 4 targets drain and fingerprint what they see. Runs the actors
/// on the calling task's engine.
ShuffleTrace ShuffleWorkload(uint64_t seed) {
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(kSources + kTargets)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "det.shuffle";
  for (uint32_t s = 0; s < kSources; ++s) {
    spec.sources.Append(Endpoint{addrs[s], 0});
  }
  for (uint32_t t = 0; t < kTargets; ++t) {
    spec.targets.Append(Endpoint{addrs[kSources + t], 0});
  }
  spec.schema = Schema{{"key", DataType::kUInt64}};
  spec.options.segments_per_ring = 8;  // shallow rings: handoff-heavy
  spec.routing = [](TupleView t, uint32_t m) {
    return static_cast<uint32_t>(t.Get<uint64_t>(0) % m);
  };
  DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());

  ShuffleTrace trace;
  std::array<std::map<uint32_t, uint64_t>, kTargets> per_channel;
  std::array<uint64_t, kTargets> counts{};

  exec::ActorGroup actors;
  for (uint32_t s = 0; s < kSources; ++s) {
    actors.Spawn(s, "src." + std::to_string(s), [&dfi, s, seed] {
      auto src = dfi.CreateShuffleSource("det.shuffle", s);
      DFI_CHECK(src.ok());
      uint64_t x = seed + s * 0x9e3779b97f4a7c15ull + 1;
      for (uint64_t i = 0; i < kTuplesPerSource; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        DFI_CHECK((*src)->Push(&x).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
  }
  for (uint32_t t = 0; t < kTargets; ++t) {
    actors.Spawn(kSources + t, "tgt." + std::to_string(t),
                 [&dfi, &per_channel, &counts, t] {
      auto tgt = dfi.CreateShuffleTarget("det.shuffle", t);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        const uint64_t* keys = reinterpret_cast<const uint64_t*>(seg.payload);
        const uint64_t n = seg.bytes / sizeof(uint64_t);
        uint64_t& h = per_channel[t][seg.source_index];
        for (uint64_t i = 0; i < n; ++i) h = HashStep(h, keys[i]);
        counts[t] += n;
      }
    });
  }
  actors.Join();

  for (uint32_t t = 0; t < kTargets; ++t) {
    for (const auto& [src, h] : per_channel[t]) {
      trace.channel_hash[{src, t}] = h;
    }
    trace.target_tuples[t] = counts[t];
    trace.total_tuples += counts[t];
  }
  return trace;
}

TEST(EngineDeterminismTest, ShuffleTraceIdenticalRunToRun) {
  auto workload = [] { return ShuffleWorkload(/*seed=*/42); };
  const ShuffleTrace one = RunOnEngine(workload);
  EXPECT_EQ(one.total_tuples, uint64_t{kSources} * kTuplesPerSource);
  EXPECT_TRUE(RunOnEngine(workload) == one) << "engine trace diverged";
}

TEST(EngineDeterminismTest, ShuffleSeedChangesTrace) {
  // Sanity: the fingerprint actually depends on the data.
  EXPECT_FALSE(RunOnEngine([] { return ShuffleWorkload(1); }) ==
               RunOnEngine([] { return ShuffleWorkload(2); }));
}

// ---------------------------------------------------------------------------
// Adaptive (skew-aware) shuffle determinism
// ---------------------------------------------------------------------------

/// Witness of an adaptive zipfian shuffle. Work stealing decides *which*
/// sink thread consumes a segment, so the trace fingerprints channels, not
/// sinks: adaptive routing is a pure function of each source's own input
/// prefix, hence the (source, target-column) content — count and an
/// order-insensitive key sum — must be bit-identical run to run.
struct AdaptiveTrace {
  std::map<std::pair<uint32_t, uint32_t>, std::pair<uint64_t, uint64_t>>
      channels;  // (src, column) -> (tuples, key sum)
  uint64_t total_tuples = 0;

  bool operator==(const AdaptiveTrace& o) const {
    return channels == o.channels && total_tuples == o.total_tuples;
  }
};

AdaptiveTrace AdaptiveShuffleWorkload(uint64_t seed) {
  constexpr uint32_t kNodes = 2;
  constexpr uint32_t kThreadsPerNode = 4;
  constexpr uint32_t kAdTargets = kNodes * kThreadsPerNode;
  constexpr uint32_t kAdSources = 4;
  constexpr uint64_t kAdTuples = 4000;

  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(kNodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);

  ShuffleFlowSpec spec;
  spec.name = "det.adaptive";
  for (uint32_t s = 0; s < kAdSources; ++s) {
    spec.sources.Append(Endpoint{addrs[s % kNodes], s});
  }
  for (uint32_t t = 0; t < kAdTargets; ++t) {
    spec.targets.Append(Endpoint{addrs[t / kThreadsPerNode], t});
  }
  spec.schema = Schema{{"key", DataType::kUInt64}};
  spec.options.segments_per_ring = 8;
  spec.options.adaptive.enabled = true;
  spec.options.adaptive.hot_factor = 1.0;
  spec.options.adaptive.epoch_tuples = 512;
  DFI_CHECK(dfi.InitShuffleFlow(std::move(spec)).ok());

  std::array<AdaptiveTrace, kAdTargets> local;
  exec::ActorGroup actors;
  for (uint32_t s = 0; s < kAdSources; ++s) {
    actors.Spawn(s, "src." + std::to_string(s), [&dfi, s, seed] {
      auto rel =
          bench::GenerateZipfianRelation(kAdTuples, 1 << 16, 1.1, seed + s);
      auto src = dfi.CreateShuffleSource("det.adaptive", s);
      DFI_CHECK(src.ok());
      for (const auto& t : rel) {
        DFI_CHECK((*src)->Push(&t.key).ok());
      }
      DFI_CHECK((*src)->Close().ok());
    });
  }
  for (uint32_t t = 0; t < kAdTargets; ++t) {
    actors.Spawn(kAdSources + t, "tgt." + std::to_string(t),
                 [&dfi, &local, t] {
      auto tgt = dfi.CreateShuffleTarget("det.adaptive", t);
      DFI_CHECK(tgt.ok());
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        DFI_CHECK(r == ConsumeResult::kOk);
        const uint64_t* keys = reinterpret_cast<const uint64_t*>(seg.payload);
        const uint64_t n = seg.bytes / sizeof(uint64_t);
        auto& slot = local[t].channels[{seg.source_index, seg.target_column}];
        for (uint64_t i = 0; i < n; ++i) {
          slot.second += HashStep(0, keys[i]);  // commutative content sum
        }
        slot.first += n;
        local[t].total_tuples += n;
      }
    });
  }
  actors.Join();

  AdaptiveTrace trace;
  for (const auto& part : local) {
    for (const auto& [ch, v] : part.channels) {
      auto& slot = trace.channels[ch];
      slot.first += v.first;
      slot.second += v.second;
    }
    trace.total_tuples += part.total_tuples;
  }
  return trace;
}

TEST(EngineDeterminismTest, AdaptiveShuffleTraceIdenticalRunToRun) {
  auto workload = [] { return AdaptiveShuffleWorkload(/*seed=*/42); };
  const AdaptiveTrace one = RunOnEngine(workload);
  EXPECT_EQ(one.total_tuples, uint64_t{4} * 4000);
  EXPECT_TRUE(RunOnEngine(workload) == one) << "adaptive trace diverged";
}

TEST(EngineDeterminismTest, AdaptiveShuffleSeedChangesTrace) {
  EXPECT_FALSE(RunOnEngine([] { return AdaptiveShuffleWorkload(1); }) ==
               RunOnEngine([] { return AdaptiveShuffleWorkload(2); }));
}

/// Chaos consensus: scripted leader crash + failover. The run's witnesses —
/// completion count, resubmission count and the fault plan's canonical
/// event trace — must be bit-identical run to run.
struct ChaosTrace {
  uint64_t completed = 0;
  std::string fault_trace;

  bool operator==(const ChaosTrace& o) const {
    return completed == o.completed && fault_trace == o.fault_trace;
  }
};

ChaosTrace ChaosWorkload() {
  consensus::ChaosConfig chaos;
  chaos.base.requests_per_client = 60;
  chaos.base.client_window = 1;
  chaos.base.seed = 7;
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(chaos.base.num_replicas +
                                        chaos.base.num_client_nodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);
  auto r = consensus::RunMultiPaxosChaos(&dfi, addrs, chaos);
  DFI_CHECK(r.ok()) << r.status();
  ChaosTrace trace;
  trace.completed = r->completed;
  trace.fault_trace = r->fault_trace;
  return trace;
}

TEST(EngineDeterminismTest, ChaosConsensusIdenticalRunToRun) {
  const ChaosTrace one = RunOnEngine(ChaosWorkload);
  EXPECT_TRUE(RunOnEngine(ChaosWorkload) == one) << "chaos trace diverged";
}

// ---------------------------------------------------------------------------
// Multi-stage graph pipeline (ingest -> adaptive shuffle -> window ->
// combiner aggregate -> replicate -> subscribers)
// ---------------------------------------------------------------------------

/// The pipeline's witnesses: window assignment is a pure function of tuple
/// content and the combiner folds are commutative, so the full
/// group -> (COUNT, SUM) content map and the per-subscriber commutative
/// fingerprints must be identical run to run. The fingerprints are
/// insensitive to row delivery order by construction.
pipeline::PipelineResult PipelineWorkload(uint64_t seed) {
  pipeline::PipelineConfig cfg;
  cfg.num_nodes = 4;
  cfg.tuples_per_source = 2048;
  cfg.key_domain = 256;
  cfg.zipf_theta = 0.99;  // exercise the adaptive path, not just uniform
  cfg.seed = seed;
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(cfg.num_nodes)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);
  auto r = pipeline::RunStreamingPipeline(&dfi, addrs, cfg);
  DFI_CHECK(r.ok()) << r.status();
  return std::move(*r);
}

TEST(EngineDeterminismTest, PipelineContentIdenticalRunToRun) {
  auto workload = [] { return PipelineWorkload(/*seed=*/42); };
  const pipeline::PipelineResult one = RunOnEngine(workload);
  EXPECT_EQ(one.tuples_ingested, uint64_t{4} * 2 * 2048);
  EXPECT_FALSE(one.windows.empty());
  const pipeline::PipelineResult run = RunOnEngine(workload);
  EXPECT_EQ(run.windows, one.windows) << "pipeline content diverged";
  EXPECT_EQ(run.fingerprints, one.fingerprints)
      << "subscriber fingerprints diverged";
  EXPECT_EQ(run.rows_delivered, one.rows_delivered);
}

TEST(EngineDeterminismTest, PipelineSeedChangesContent) {
  EXPECT_NE(RunOnEngine([] { return PipelineWorkload(1); }).windows,
            RunOnEngine([] { return PipelineWorkload(2); }).windows);
}

}  // namespace
}  // namespace dfi
