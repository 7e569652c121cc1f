// Property-style sweeps over the shuffle flow: for any combination of
// optimization mode, segment geometry, tuple size and endpoint counts, a
// shuffle must deliver every pushed tuple exactly once to exactly the
// routed target ("exactly-once, correctly-partitioned" invariant).

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

struct GridParam {
  FlowOptimization opt;
  uint32_t segment_size;
  uint32_t segments_per_ring;
  uint32_t num_sources;
  uint32_t num_targets;
  uint32_t tuple_payload;  // extra kChar bytes beyond the 8-byte key
  uint64_t tuples_per_source;
  uint32_t source_segments = 4;  // bandwidth mode's staging-ring slots
};

std::string ParamName(const ::testing::TestParamInfo<GridParam>& info) {
  const GridParam& p = info.param;
  std::string s = p.opt == FlowOptimization::kBandwidth ? "bw" : "lat";
  s += "_seg" + std::to_string(p.segment_size);
  s += "_ring" + std::to_string(p.segments_per_ring);
  s += "_n" + std::to_string(p.num_sources);
  s += "_m" + std::to_string(p.num_targets);
  s += "_t" + std::to_string(8 + p.tuple_payload);
  if (p.source_segments != 4) s += "_src" + std::to_string(p.source_segments);
  return s;
}

class ShufflePropertyTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(ShufflePropertyTest, ExactlyOnceCorrectlyPartitioned) {
  const GridParam& p = GetParam();
  net::Fabric fabric;
  fabric.AddNodes(std::max(p.num_sources, p.num_targets));
  DfiRuntime dfi(&fabric);

  std::vector<std::string> addrs;
  for (size_t i = 0; i < fabric.node_count(); ++i) {
    addrs.push_back(fabric.node(static_cast<net::NodeId>(i)).address());
  }

  ShuffleFlowSpec spec;
  spec.name = "prop";
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
  ASSERT_TRUE(schema.ok());
  spec.schema = *schema;
  spec.options.optimization = p.opt;
  spec.options.segment_size = p.segment_size;
  spec.options.segments_per_ring = p.segments_per_ring;
  spec.options.source_segments = p.source_segments;
  ASSERT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());

  const uint64_t total = p.num_sources * p.tuples_per_source;
  exec::Engine engine;
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi.CreateShuffleSource("prop", s);
      ASSERT_TRUE(source.ok());
      std::vector<uint8_t> buf((*source)->schema().tuple_size(), 0);
      for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
        const uint64_t key = s * p.tuples_per_source + i;
        TupleWriter(buf.data(), &(*source)->schema()).Set<uint64_t>(0, key);
        ASSERT_TRUE((*source)->Push(buf.data()).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }

  std::vector<std::vector<uint64_t>> received(p.num_targets);
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi.CreateShuffleTarget("prop", t);
      ASSERT_TRUE(target.ok());
      TupleView tuple;
      while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        const uint64_t key = tuple.Get<uint64_t>(0);
        ASSERT_EQ(HashU64(key) % p.num_targets, t)
            << "tuple arrived at wrong partition";
        received[t].push_back(key);
      }
    });
  }
  engine.Run();

  std::vector<uint64_t> all;
  for (auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), total) << "lost or duplicated tuples";
  std::sort(all.begin(), all.end());
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(all[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthGeometry, ShufflePropertyTest,
    ::testing::Values(
        // Vary segment size against a fixed workload.
        GridParam{FlowOptimization::kBandwidth, 64, 4, 1, 1, 0, 3000},
        GridParam{FlowOptimization::kBandwidth, 256, 4, 1, 1, 0, 3000},
        GridParam{FlowOptimization::kBandwidth, 8192, 32, 1, 1, 0, 3000},
        // Tuple sizes that do not divide the segment size.
        GridParam{FlowOptimization::kBandwidth, 256, 4, 1, 1, 16, 2000},
        GridParam{FlowOptimization::kBandwidth, 256, 4, 1, 1, 56, 2000},
        // Minimal ring (hard back-pressure).
        GridParam{FlowOptimization::kBandwidth, 128, 2, 1, 1, 0, 4000}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Topologies, ShufflePropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kBandwidth, 512, 8, 2, 1, 0, 2000},  // N:1
        GridParam{FlowOptimization::kBandwidth, 512, 8, 1, 3, 0, 3000},  // 1:N
        GridParam{FlowOptimization::kBandwidth, 512, 8, 3, 3, 0, 1500},  // N:M
        GridParam{FlowOptimization::kBandwidth, 512, 8, 4, 2, 24, 1000}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    LatencyMode, ShufflePropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 0, 1500},
        GridParam{FlowOptimization::kLatency, 0, 2, 1, 1, 0, 1000},
        GridParam{FlowOptimization::kLatency, 0, 16, 2, 2, 0, 800},
        GridParam{FlowOptimization::kLatency, 0, 8, 1, 1, 40, 800}),
    ParamName);

// Target rings and staging rings whose slot counts are no power of two: a
// channel keeps its ring slot indices and wraps them with a compare. A
// mask in its place skips slots that latency-mode credits count, and the
// latency rows here lose tuples, while every power-of-two row above still
// passes.
INSTANTIATE_TEST_SUITE_P(
    OddRings, ShufflePropertyTest,
    ::testing::Values(
        GridParam{FlowOptimization::kBandwidth, 128, 3, 1, 1, 0, 3000, 3},
        GridParam{FlowOptimization::kBandwidth, 256, 3, 2, 2, 0, 2500, 3},
        GridParam{FlowOptimization::kBandwidth, 256, 5, 2, 2, 16, 2500, 3},
        GridParam{FlowOptimization::kBandwidth, 512, 5, 3, 2, 0, 1500, 5},
        GridParam{FlowOptimization::kLatency, 0, 3, 1, 1, 0, 1000, 3},
        GridParam{FlowOptimization::kLatency, 0, 3, 2, 2, 0, 800, 3},
        GridParam{FlowOptimization::kLatency, 0, 5, 2, 2, 40, 800, 3}),
    ParamName);

}  // namespace
}  // namespace dfi
