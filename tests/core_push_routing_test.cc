// Property tests for the push path: for any topology, optimization mode,
// segment geometry, tuple size and routing strategy, ShuffleSource::Push
// delivers to each target exactly the tuples its routing rule assigns it,
// each source's tuples in push order (one channel per source and target is
// FIFO). The lane tests at the end pin the staging lanes: PushTo and Flush
// interleaved with Push seal the same segments at the same virtual times
// as Push alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

#include "common/exec/engine.h"
#include "common/hash.h"
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

/// The deterministic key of tuple `i` of source `s` (spread so key-hash,
/// radix and modulo routing all produce non-trivial partitions). Bits 40
/// and up hold the source.
uint64_t KeyOf(uint32_t s, uint64_t i) {
  return (static_cast<uint64_t>(s) << 40) + i * 0x9e3779b97f4a7c15ull % 997;
}
uint32_t SourceOf(uint64_t key) { return static_cast<uint32_t>(key >> 40); }

/// Bits of radix routing over `num_targets` (a power of two).
uint32_t RadixBitsFor(uint32_t num_targets) {
  uint32_t bits = 0;
  while ((1u << bits) < num_targets) ++bits;
  return bits;
}

/// The target `routing` assigns `key` among `num_targets`, computed here
/// independently of the flow's partitioner.
uint32_t ExpectedTarget(Routing routing, uint64_t key, uint32_t num_targets) {
  switch (routing) {
    case Routing::kDefaultHash:
      return static_cast<uint32_t>(HashU64(key) % num_targets);
    case Routing::kRadix:
      return RadixBits(key, /*shift=*/0, RadixBitsFor(num_targets));
    case Routing::kGeneric:
      return static_cast<uint32_t>(key % num_targets);
  }
  return 0;
}

void ApplyRouting(ShuffleFlowSpec* spec, Routing routing,
                  uint32_t num_targets) {
  switch (routing) {
    case Routing::kDefaultHash:
      break;  // flow default: KeyHashRouting(shuffle_key_index)
    case Routing::kRadix: {
      const uint32_t bits = RadixBitsFor(num_targets);
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

/// Runs one shuffle flow, pushing every tuple with Push, and returns, per
/// target, the keys in arrival order.
std::vector<std::vector<uint64_t>> RunFlow(const GridParam& p) {
  net::Fabric fabric;
  fabric.AddNodes(std::max(p.num_sources, p.num_targets));
  DfiRuntime dfi(&fabric);

  std::vector<std::string> addrs;
  for (size_t i = 0; i < fabric.node_count(); ++i) {
    addrs.push_back(fabric.node(static_cast<net::NodeId>(i)).address());
  }

  ShuffleFlowSpec spec;
  spec.name = "push_prop";
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
      auto source = dfi.CreateShuffleSource("push_prop", s);
      ASSERT_TRUE(source.ok());
      std::vector<uint8_t> tuple((*source)->schema().tuple_size(), 0);
      for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
        TupleWriter(tuple.data(), &(*source)->schema())
            .Set<uint64_t>(0, KeyOf(s, i));
        ASSERT_TRUE((*source)->Push(tuple.data()).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }

  std::vector<std::vector<uint64_t>> received(p.num_targets);
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi.CreateShuffleTarget("push_prop", t);
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

class PushRoutingPropertyTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(PushRoutingPropertyTest, EachTargetReceivesItsRoutedTuples) {
  const GridParam& p = GetParam();
  // want[t][s]: the keys source s routes to target t, in push order.
  std::vector<std::vector<std::vector<uint64_t>>> want(
      p.num_targets, std::vector<std::vector<uint64_t>>(p.num_sources));
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
      const uint64_t key = KeyOf(s, i);
      want[ExpectedTarget(p.routing, key, p.num_targets)][s].push_back(key);
    }
  }
  const auto received = RunFlow(p);
  ASSERT_EQ(received.size(), p.num_targets);
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    // A target interleaves its sources' channels; each channel is FIFO.
    std::vector<std::vector<uint64_t>> got(p.num_sources);
    for (uint64_t key : received[t]) {
      ASSERT_LT(SourceOf(key), p.num_sources) << "invented key " << key;
      got[SourceOf(key)].push_back(key);
    }
    for (uint32_t s = 0; s < p.num_sources; ++s) {
      ASSERT_EQ(got[s], want[t][s]) << "target " << t << " from source " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, PushRoutingPropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kBandwidth, 256, 4, 1, 1, 0, 3000,
                  Routing::kDefaultHash},  // 1:1
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
    SegmentBoundaries, PushRoutingPropertyTest,
    ::testing::Values(
        // Tiny segments: every few pushes seal one.
        GridParam{FlowOptimization::kBandwidth, 64, 4, 1, 1, 0, 4000,
                  Routing::kDefaultHash},
        // Tuple size that does not divide the segment size.
        GridParam{FlowOptimization::kBandwidth, 256, 4, 2, 2, 16, 1500,
                  Routing::kDefaultHash},
        // Minimal ring (hard back-pressure).
        GridParam{FlowOptimization::kBandwidth, 128, 2, 2, 2, 0, 3000,
                  Routing::kDefaultHash}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    LatencyMode, PushRoutingPropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 0, 1200,
                  Routing::kDefaultHash},
        GridParam{FlowOptimization::kLatency, 0, 16, 2, 2, 0, 800,
                  Routing::kDefaultHash},
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 40, 600,
                  Routing::kDefaultHash}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    RoutingKinds, PushRoutingPropertyTest,
    ::testing::Values(
        // Radix partitioner.
        GridParam{FlowOptimization::kBandwidth, 256, 8, 2, 4, 0, 2000,
                  Routing::kRadix},
        GridParam{FlowOptimization::kBandwidth, 256, 8, 1, 2, 16, 1500,
                  Routing::kRadix},
        // Custom RoutingFn.
        GridParam{FlowOptimization::kBandwidth, 256, 8, 2, 3, 0, 2000,
                  Routing::kGeneric},
        GridParam{FlowOptimization::kLatency, 0, 8, 2, 2, 0, 500,
                  Routing::kGeneric}),
    ParamName);

// ---------------------------------------------------------------------------
// One staging path: PushTo and Flush seal the segments Push seals
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

// Push, PushTo and Flush interleaved on one source deliver the per-target
// sequences, segments and final clock of plain Push calls with the same
// flushes, for tuple sizes that do and do not divide the segment (100 B
// tuples fill a 104 B segment alone, so every push seals).
TEST(LaneStaging, InterleavedPushKindsMatchPush) {
  // One op per step of the script, cycling: Push 3 tuples, PushTo 2,
  // Push 9, Flush, PushTo 1, Push 1.
  enum class Op { kPush, kPushTo, kFlush };
  struct Step {
    Op op;
    size_t tuples;
  };
  constexpr Step kScript[] = {{Op::kPush, 3},   {Op::kPushTo, 2},
                              {Op::kPush, 9},   {Op::kFlush, 0},
                              {Op::kPushTo, 1}, {Op::kPush, 1}};
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
        for (size_t i = 0; i < k; ++i) {
          if (push_only || s.op == Op::kPush) {
            ASSERT_TRUE(source.Push(run + i * ts).ok());
          } else {
            ASSERT_TRUE(
                source.PushTo(run + i * ts, route.Route(run + i * ts)).ok());
          }
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
