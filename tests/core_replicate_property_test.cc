// Property sweep over the globally-ordered replicate flow (the OUM
// primitive): for any loss rate, source/target count and optimization
// mode, every pushed tuple must be delivered to every target exactly once,
// and all targets must observe the identical global sequence.

#include <gtest/gtest.h>

#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"
#include "core/replicate_flow.h"

namespace dfi {
namespace {

struct OumParam {
  double loss;
  uint32_t num_sources;
  uint32_t num_targets;
  FlowOptimization opt;
  uint64_t tuples_per_source;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<OumParam>& info) {
  const OumParam& p = info.param;
  std::string s = "loss";
  s += std::to_string(static_cast<int>(p.loss * 100));
  s += "_n" + std::to_string(p.num_sources);
  s += "_m" + std::to_string(p.num_targets);
  s += p.opt == FlowOptimization::kBandwidth ? "_bw" : "_lat";
  s += "_seed" + std::to_string(p.seed);
  return s;
}

class OrderedReplicateProperty : public ::testing::TestWithParam<OumParam> {};

TEST_P(OrderedReplicateProperty, ExactlyOnceIdenticalOrder) {
  const OumParam& p = GetParam();
  net::SimConfig cfg;
  cfg.multicast_loss_probability = p.loss;
  cfg.loss_seed = p.seed;
  net::Fabric fabric(cfg);
  fabric.AddNodes(p.num_sources + p.num_targets);
  DfiRuntime dfi(&fabric);

  ReplicateFlowSpec spec;
  spec.name = "oum";
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    spec.sources.Append(
        Endpoint{fabric.node(p.num_targets + s).address(), 0});
  }
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    spec.targets.Append(Endpoint{fabric.node(t).address(), 0});
  }
  spec.schema = Schema{{"key", DataType::kUInt64}};
  spec.options.use_multicast = true;
  spec.options.global_ordering = true;
  spec.options.optimization = p.opt;
  ASSERT_TRUE(dfi.InitReplicateFlow(std::move(spec)).ok());

  exec::Engine engine;
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto src = dfi.CreateReplicateSource("oum", s);
      ASSERT_TRUE(src.ok());
      for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
        const uint64_t key = s * p.tuples_per_source + i;
        ASSERT_TRUE((*src)->Push(&key).ok());
      }
      ASSERT_TRUE((*src)->Close().ok());
    });
  }
  std::vector<std::vector<uint64_t>> observed(p.num_targets);
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto tgt = dfi.CreateReplicateTarget("oum", t);
      ASSERT_TRUE(tgt.ok());
      TupleView tuple;
      while ((*tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        observed[t].push_back(tuple.Get<uint64_t>(0));
      }
    });
  }
  engine.Run();

  const uint64_t total = p.num_sources * p.tuples_per_source;
  for (uint32_t t = 0; t < p.num_targets; ++t) {
    ASSERT_EQ(observed[t].size(), total) << "target " << t;
    EXPECT_EQ(observed[t], observed[0])
        << "target " << t << " diverged from target 0";
  }
  // Exactly once: the multiset of keys is the full range.
  std::vector<uint64_t> sorted = observed[0];
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(sorted[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoLoss, OrderedReplicateProperty,
    ::testing::Values(OumParam{0.0, 1, 2, FlowOptimization::kLatency, 400, 1},
                      OumParam{0.0, 2, 3, FlowOptimization::kLatency, 300, 2},
                      OumParam{0.0, 1, 4, FlowOptimization::kBandwidth, 2000,
                               3},
                      OumParam{0.0, 3, 2, FlowOptimization::kBandwidth, 1000,
                               4}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    WithLoss, OrderedReplicateProperty,
    ::testing::Values(
        OumParam{0.02, 1, 2, FlowOptimization::kLatency, 250, 11},
        OumParam{0.05, 2, 2, FlowOptimization::kLatency, 200, 12},
        OumParam{0.05, 1, 3, FlowOptimization::kBandwidth, 1500, 13},
        OumParam{0.10, 1, 2, FlowOptimization::kLatency, 150, 14},
        OumParam{0.05, 2, 2, FlowOptimization::kLatency, 200, 15}),
    ParamName);

}  // namespace
}  // namespace dfi
