// Property tests for the batched zero-copy push path: for any topology,
// optimization mode, segment geometry, tuple size and routing strategy,
// ShuffleSource::PushBatch must deliver exactly the same multiset of
// tuples to each target as tuple-at-a-time Push — and, for 1:1 topologies,
// the same order. Batch sizes cycle through empty, tiny and
// segment-straddling runs to exercise every reservation boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

}  // namespace
}  // namespace dfi
