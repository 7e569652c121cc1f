// Property tests for the batched push path: for any topology, optimization
// mode, segment geometry, tuple size and routing strategy,
// ShuffleSource::PushBatch must deliver exactly the same multiset of
// tuples to each target as tuple-at-a-time Push — and, for 1:1 topologies,
// the same order. Batch sizes cycle through empty, tiny and
// segment-straddling runs to exercise every segment boundary. The lane
// tests at the end pin the stronger property: PushBatch seals the same
// segments at the same virtual times as Push.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

enum class Routing : uint8_t { kDefaultHash, kRadix, kGeneric };

struct GridParam {
  FlowOptimization opt;
  uint32_t segment_size;
  uint32_t segments_per_ring;
  uint32_t num_sources;
  uint32_t num_targets;
  uint32_t tuple_payload;  // extra kChar bytes beyond the 8-byte key
  uint64_t tuples_per_source;
  Routing routing;
};

std::string ParamName(const ::testing::TestParamInfo<GridParam>& info) {
  const GridParam& p = info.param;
  std::string s = p.opt == FlowOptimization::kBandwidth ? "bw" : "lat";
  s += "_seg" + std::to_string(p.segment_size);
  s += "_ring" + std::to_string(p.segments_per_ring);
  s += "_n" + std::to_string(p.num_sources);
  s += "_m" + std::to_string(p.num_targets);
  s += "_t" + std::to_string(8 + p.tuple_payload);
  s += p.routing == Routing::kDefaultHash
           ? "_hash"
           : (p.routing == Routing::kRadix ? "_radix" : "_generic");
  return s;
}

/// Batch sizes cycled through by the batched run: empty batches, tiny
/// batches, and batches that straddle several segment boundaries.
constexpr size_t kBatchCycle[] = {0, 1, 7, 64, 0, 1000, 3};

/// The deterministic key of tuple `i` of source `s` (spread so key-hash,
/// radix and modulo routing all produce non-trivial partitions).
uint64_t KeyOf(uint32_t s, uint64_t i) {
  return (static_cast<uint64_t>(s) << 40) + i * 0x9e3779b97f4a7c15ull % 997;
}

void ApplyRouting(ShuffleFlowSpec* spec, Routing routing,
                  uint32_t num_targets) {
  switch (routing) {
    case Routing::kDefaultHash:
      break;  // flow default: KeyHashRouting(shuffle_key_index)
    case Routing::kRadix: {
      uint32_t bits = 0;
      while ((1u << bits) < num_targets) ++bits;
      ASSERT_EQ(1u << bits, num_targets)
          << "radix cases need a power-of-two target count";
      spec->routing = RadixRouting(0, /*shift=*/0, bits);
      break;
    }
    case Routing::kGeneric:
      spec->routing = [](TupleView t, uint32_t m) {
        return static_cast<uint32_t>(t.Get<uint64_t>(0) % m);
      };
      break;
  }
}

/// Runs one shuffle flow and returns, per target, the keys in arrival
/// order. `batched` selects PushBatch (with the kBatchCycle pattern)
/// versus tuple-at-a-time Push over identical input data.
std::vector<std::vector<uint64_t>> RunFlow(const GridParam& p,
                                           bool batched) {
  net::Fabric fabric;
  fabric.AddNodes(std::max(p.num_sources, p.num_targets));
  DfiRuntime dfi(&fabric);

  std::vector<std::string> addrs;
  for (size_t i = 0; i < fabric.node_count(); ++i) {
    addrs.push_back(fabric.node(static_cast<net::NodeId>(i)).address());
  }

  ShuffleFlowSpec spec;
  spec.name = "batch_prop";
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    spec.sources.Append(Endpoint{addrs[s % addrs.size()], s});
  }
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    spec.targets.Append(Endpoint{addrs[t % addrs.size()], t});
  }
  std::vector<Field> fields{{"key", DataType::kUInt64, 0}};
  if (p.tuple_payload > 0) {
    fields.push_back({"pad", DataType::kChar, p.tuple_payload});
  }
  auto schema = Schema::Create(fields);
  EXPECT_TRUE(schema.ok());
  spec.schema = *schema;
  ApplyRouting(&spec, p.routing, p.num_targets);
  spec.options.optimization = p.opt;
  spec.options.segment_size = p.segment_size;
  spec.options.segments_per_ring = p.segments_per_ring;
  EXPECT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());

  exec::Engine engine;
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi.CreateShuffleSource("batch_prop", s);
      ASSERT_TRUE(source.ok());
      const size_t tuple_size = (*source)->schema().tuple_size();
      // Identical input data for both runs: a packed buffer of all of this
      // source's tuples.
      std::vector<uint8_t> buf(p.tuples_per_source * tuple_size, 0);
      for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
        TupleWriter(buf.data() + i * tuple_size, &(*source)->schema())
            .Set<uint64_t>(0, KeyOf(s, i));
      }
      if (batched) {
        size_t pos = 0, cycle = 0;
        while (pos < p.tuples_per_source) {
          const size_t n =
              std::min<size_t>(kBatchCycle[cycle % std::size(kBatchCycle)],
                               p.tuples_per_source - pos);
          ++cycle;
          ASSERT_TRUE(
              (*source)->PushBatch(buf.data() + pos * tuple_size, n).ok());
          pos += n;
        }
      } else {
        for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
          ASSERT_TRUE((*source)->Push(buf.data() + i * tuple_size).ok());
        }
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }

  std::vector<std::vector<uint64_t>> received(p.num_targets);
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi.CreateShuffleTarget("batch_prop", t);
      ASSERT_TRUE(target.ok());
      TupleView tuple;
      while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        received[t].push_back(tuple.Get<uint64_t>(0));
      }
    });
  }
  engine.Run();
  return received;
}

class BatchPushPropertyTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(BatchPushPropertyTest, BatchedEqualsTupleAtATime) {
  const GridParam& p = GetParam();
  auto scalar = RunFlow(p, /*batched=*/false);
  auto batch = RunFlow(p, /*batched=*/true);
  ASSERT_EQ(scalar.size(), batch.size());
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    if (p.num_sources == 1 && p.num_targets == 1) {
      // 1:1: a single channel preserves push order exactly.
      ASSERT_EQ(scalar[t], batch[t]) << "order mismatch at target " << t;
      continue;
    }
    // Multi-source targets interleave channels nondeterministically; the
    // per-target multiset must still be identical.
    std::sort(scalar[t].begin(), scalar[t].end());
    std::sort(batch[t].begin(), batch[t].end());
    ASSERT_EQ(scalar[t], batch[t]) << "multiset mismatch at target " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, BatchPushPropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kBandwidth, 256, 4, 1, 1, 0, 3000,
                  Routing::kDefaultHash},  // 1:1, order-checked
        GridParam{FlowOptimization::kBandwidth, 512, 8, 3, 1, 0, 2000,
                  Routing::kDefaultHash},  // N:1
        GridParam{FlowOptimization::kBandwidth, 512, 8, 1, 4, 0, 3000,
                  Routing::kDefaultHash},  // 1:N
        GridParam{FlowOptimization::kBandwidth, 512, 8, 3, 4, 0, 1500,
                  Routing::kDefaultHash},  // N:M
        GridParam{FlowOptimization::kBandwidth, 512, 8, 4, 2, 24, 1000,
                  Routing::kDefaultHash}),  // N:M, 32-byte tuples
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    SegmentBoundaries, BatchPushPropertyTest,
    ::testing::Values(
        // Tiny segments: every nontrivial batch straddles many segments.
        GridParam{FlowOptimization::kBandwidth, 64, 4, 1, 1, 0, 4000,
                  Routing::kDefaultHash},
        // Tuple size that does not divide the segment size.
        GridParam{FlowOptimization::kBandwidth, 256, 4, 2, 2, 16, 1500,
                  Routing::kDefaultHash},
        // Minimal ring (hard back-pressure under batched bursts).
        GridParam{FlowOptimization::kBandwidth, 128, 2, 2, 2, 0, 3000,
                  Routing::kDefaultHash}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    LatencyMode, BatchPushPropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 0, 1200,
                  Routing::kDefaultHash},
        GridParam{FlowOptimization::kLatency, 0, 16, 2, 2, 0, 800,
                  Routing::kDefaultHash},
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 40, 600,
                  Routing::kDefaultHash}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    RoutingKinds, BatchPushPropertyTest,
    ::testing::Values(
        // Radix partitioner, devirtualized batch path.
        GridParam{FlowOptimization::kBandwidth, 256, 8, 2, 4, 0, 2000,
                  Routing::kRadix},
        GridParam{FlowOptimization::kBandwidth, 256, 8, 1, 2, 16, 1500,
                  Routing::kRadix},
        // Custom RoutingFn, per-tuple fallback inside PushBatch.
        GridParam{FlowOptimization::kBandwidth, 256, 8, 2, 3, 0, 2000,
                  Routing::kGeneric},
        GridParam{FlowOptimization::kLatency, 0, 8, 2, 2, 0, 500,
                  Routing::kGeneric}),
    ParamName);

// The batched path must charge exactly the per-tuple virtual cost of the
// tuple-at-a-time path (precomputed once, charged per batch): with no
// back-pressure coupling, the source's final virtual clock is identical.
TEST(BatchPushClock, SimulatedTimeMatchesTupleAtATime) {
  for (bool batched : {false, true}) {
    net::Fabric fabric;
    fabric.AddNodes(2);
    DfiRuntime dfi(&fabric);
    ShuffleFlowSpec spec;
    spec.name = "clock";
    spec.sources.Append(Endpoint{fabric.node(0).address(), 0});
    spec.targets.Append(Endpoint{fabric.node(1).address(), 0});
    spec.schema = Schema{{"key", DataType::kUInt64}};
    spec.options.segment_size = 256;
    spec.options.segments_per_ring = 32;
    ASSERT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());

    // 500 8-byte tuples fit the 32-segment ring without blocking, so the
    // source clock is untouched by target-side timing.
    auto source = dfi.CreateShuffleSource("clock", 0);
    ASSERT_TRUE(source.ok());
    std::vector<uint8_t> buf(500 * 8, 0);
    for (uint64_t i = 0; i < 500; ++i) {
      TupleWriter(buf.data() + i * 8, &(*source)->schema())
          .Set<uint64_t>(0, i);
    }
    if (batched) {
      ASSERT_TRUE((*source)->PushBatch(buf.data(), 500).ok());
    } else {
      for (uint64_t i = 0; i < 500; ++i) {
        ASSERT_TRUE((*source)->Push(buf.data() + i * 8).ok());
      }
    }
    static SimTime scalar_time = 0;
    if (!batched) {
      scalar_time = (*source)->clock().now();
    } else {
      EXPECT_EQ((*source)->clock().now(), scalar_time)
          << "batched push must charge the same virtual time";
    }
    ASSERT_TRUE((*source)->Close().ok());
    auto target = dfi.CreateShuffleTarget("clock", 0);
    ASSERT_TRUE(target.ok());
    TupleView tuple;
    uint64_t n = 0;
    while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) ++n;
    ASSERT_EQ(n, 500u);
  }
}

// ---------------------------------------------------------------------------
// One staging path: Push and PushBatch seal the same segments at the same
// virtual times
// ---------------------------------------------------------------------------

/// One segment as its target consumed it.
struct SegmentRecord {
  uint32_t target = 0;
  uint64_t sequence = 0;
  SimTime arrival = 0;
  uint32_t bytes = 0;
  bool operator==(const SegmentRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SegmentRecord& r) {
  return os << "{target " << r.target << ", seq " << r.sequence
            << ", arrival " << r.arrival << ", bytes " << r.bytes << "}";
}

struct LaneRun {
  std::vector<SegmentRecord> segments;  // target 0's, then target 1's
  std::vector<std::vector<uint64_t>> keys{2};  // per target, arrival order
  SimTime source_clock = 0;
};

/// Drives one source of a 1 -> 2 key-hash shuffle over `n` tuples of
/// `tuple_size` bytes (key i, then zero padding) packed in `buf`.
using PushPlan =
    std::function<void(ShuffleSource& source, const uint8_t* buf, size_t n)>;

/// Runs a 1 -> 2 shuffle with 64 B segments and `ring`-slot rings whose
/// targets charge 500 ns per consumed segment, so a small ring couples the
/// source's seal times to the consumers' progress.
LaneRun RunLaneFlow(uint32_t tuple_size, uint32_t ring, size_t n,
                    const PushPlan& drive) {
  net::Fabric fabric;
  fabric.AddNodes(3);
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "lanes";
  spec.sources.Append(Endpoint{fabric.node(0).address(), 0});
  spec.targets.Append(Endpoint{fabric.node(1).address(), 0});
  spec.targets.Append(Endpoint{fabric.node(2).address(), 0});
  spec.schema = tuple_size == 8
                    ? Schema{{"key", DataType::kUInt64}}
                    : Schema{{"key", DataType::kUInt64},
                             {"pad", DataType::kChar, tuple_size - 8}};
  spec.options.segment_size = 64;
  spec.options.segments_per_ring = ring;
  EXPECT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());

  LaneRun run;
  std::vector<std::vector<SegmentRecord>> per_target(2);
  exec::Engine engine;
  engine.Spawn(0, "source", [&] {
    auto source = dfi.CreateShuffleSource("lanes", 0);
    ASSERT_TRUE(source.ok());
    std::vector<uint8_t> buf(n * tuple_size, 0);
    for (uint64_t i = 0; i < n; ++i) {
      std::memcpy(buf.data() + i * tuple_size, &i, sizeof(i));
    }
    drive(**source, buf.data(), n);
    ASSERT_TRUE((*source)->Close().ok());
    run.source_clock = (*source)->clock().now();
  });
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(1 + t, "target", [&, t] {
      auto target = dfi.CreateShuffleTarget("lanes", t);
      ASSERT_TRUE(target.ok());
      SegmentView view;
      while ((*target)->ConsumeSegment(&view) == ConsumeResult::kOk) {
        per_target[t].push_back(
            SegmentRecord{t, view.sequence, view.arrival, view.bytes});
        for (uint32_t off = 0; off < view.bytes; off += tuple_size) {
          uint64_t key;
          std::memcpy(&key, view.payload + off, sizeof(key));
          run.keys[t].push_back(key);
        }
        (*target)->clock().Advance(500);
      }
    });
  }
  engine.Run();
  for (const auto& segments : per_target) {
    run.segments.insert(run.segments.end(), segments.begin(),
                        segments.end());
  }
  return run;
}

void PushEach(ShuffleSource& source, const uint8_t* buf, size_t n) {
  const size_t ts = source.schema().tuple_size();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(source.Push(buf + i * ts).ok());
  }
}

void PushBatches(ShuffleSource& source, const uint8_t* buf, size_t n) {
  const size_t ts = source.schema().tuple_size();
  for (size_t pos = 0, cycle = 0; pos < n; ++cycle) {
    const size_t k = std::min<size_t>(
        kBatchCycle[cycle % std::size(kBatchCycle)], n - pos);
    ASSERT_TRUE(source.PushBatch(buf + pos * ts, k).ok());
    pos += k;
  }
}

// PushBatch stages through the same lanes as Push: every segment is sealed
// at the same tuple and the same source clock, so each target sees the same
// (sequence, arrival, bytes) stream — on a 2-slot ring, where the consumers
// throttle the source, as well as on a 32-slot one.
TEST(LaneStaging, PushBatchTransmitsPushSegments) {
  for (uint32_t ring : {2u, 32u}) {
    SCOPED_TRACE("ring " + std::to_string(ring));
    const LaneRun push = RunLaneFlow(8, ring, 400, PushEach);
    const LaneRun batch = RunLaneFlow(8, ring, 400, PushBatches);
    ASSERT_EQ(push.segments.size(), batch.segments.size());
    size_t differ = 0;
    for (size_t i = 0; i < push.segments.size(); ++i) {
      if (!(push.segments[i] == batch.segments[i])) ++differ;
    }
    EXPECT_EQ(differ, 0u) << "of " << push.segments.size() << " segments";
    EXPECT_EQ(push.keys, batch.keys);
    EXPECT_EQ(push.source_clock, batch.source_clock);
  }
}

// Push, PushTo, PushBatch and Flush interleaved on one source deliver the
// per-target sequences, segments and final clock of plain Push calls with
// the same flushes, for tuple sizes that do and do not divide the segment
// (100 B tuples fill a 104 B segment alone, so every push seals).
TEST(LaneStaging, InterleavedPushKindsMatchPush) {
  // One op per step of the script, cycling: Push 3 tuples, PushTo 2,
  // PushBatch 9, Flush, PushBatch 1, Push 1, PushBatch 0.
  enum class Op { kPush, kPushTo, kBatch, kFlush };
  struct Step {
    Op op;
    size_t tuples;
  };
  constexpr Step kScript[] = {{Op::kPush, 3},  {Op::kPushTo, 2},
                              {Op::kBatch, 9}, {Op::kFlush, 0},
                              {Op::kBatch, 1}, {Op::kPush, 1},
                              {Op::kBatch, 0}};
  auto run_script = [&](bool push_only) {
    return [=](ShuffleSource& source, const uint8_t* buf, size_t n) {
      const size_t ts = source.schema().tuple_size();
      Partitioner route = Partitioner::KeyHash(&source.schema(), 0, 2);
      size_t pos = 0;
      for (size_t step = 0; pos < n; ++step) {
        const Step& s = kScript[step % std::size(kScript)];
        if (s.op == Op::kFlush) {
          ASSERT_TRUE(source.Flush().ok());
          continue;
        }
        const size_t k = std::min(s.tuples, n - pos);
        const uint8_t* run = buf + pos * ts;
        if (push_only || s.op == Op::kPush) {
          for (size_t i = 0; i < k; ++i) {
            ASSERT_TRUE(source.Push(run + i * ts).ok());
          }
        } else if (s.op == Op::kPushTo) {
          for (size_t i = 0; i < k; ++i) {
            ASSERT_TRUE(
                source.PushTo(run + i * ts, route.Route(run + i * ts)).ok());
          }
        } else {
          ASSERT_TRUE(source.PushBatch(run, k).ok());
        }
        pos += k;
      }
    };
  };
  for (uint32_t tuple_size : {8u, 12u, 16u, 64u, 100u}) {
    SCOPED_TRACE("tuple size " + std::to_string(tuple_size));
    const LaneRun push = RunLaneFlow(tuple_size, 2, 300, run_script(true));
    const LaneRun mixed = RunLaneFlow(tuple_size, 2, 300, run_script(false));
    EXPECT_EQ(push.keys, mixed.keys);
    EXPECT_EQ(push.segments, mixed.segments);
    EXPECT_EQ(push.source_clock, mixed.source_clock);
    EXPECT_EQ(push.keys[0].size() + push.keys[1].size(), 300u);
  }
}

}  // namespace
}  // namespace dfi
