// Property sweep over combiner flows: for any aggregation function, group
// count, source count and optimization mode, the flow's aggregates must
// equal a scalar reference computed over the same input.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/exec/engine.h"
#include "core/combiner_flow.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

struct CombinerParam {
  AggFunc func;
  uint32_t num_sources;
  uint32_t target_threads;
  uint64_t groups;
  FlowOptimization opt;
  uint64_t tuples_per_source;
};

std::string ParamName(const ::testing::TestParamInfo<CombinerParam>& info) {
  const CombinerParam& p = info.param;
  std::string s;
  switch (p.func) {
    case AggFunc::kSum:
      s = "sum";
      break;
    case AggFunc::kCount:
      s = "count";
      break;
    case AggFunc::kMin:
      s = "min";
      break;
    case AggFunc::kMax:
      s = "max";
      break;
  }
  s += "_n" + std::to_string(p.num_sources);
  s += "_t" + std::to_string(p.target_threads);
  s += "_g" + std::to_string(p.groups);
  s += p.opt == FlowOptimization::kBandwidth ? "_bw" : "_lat";
  return s;
}

int64_t ValueFor(uint32_t source, uint64_t i) {
  // Deterministic, sign-varying values exercise min/max properly.
  return static_cast<int64_t>((source * 37 + i * 13) % 1001) - 500;
}

class CombinerProperty : public ::testing::TestWithParam<CombinerParam> {};

TEST_P(CombinerProperty, MatchesScalarReference) {
  const CombinerParam& p = GetParam();
  net::Fabric fabric;
  fabric.AddNodes(p.num_sources + 1);
  DfiRuntime dfi(&fabric);

  CombinerFlowSpec spec;
  spec.name = "prop";
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    spec.sources.Append(Endpoint{fabric.node(1 + s).address(), 0});
  }
  for (uint32_t t = 0; t < p.target_threads; ++t) {
    spec.targets.Append(Endpoint{fabric.node(0).address(), t});
  }
  spec.schema =
      Schema{{"key", DataType::kUInt64}, {"value", DataType::kInt64}};
  spec.group_by_index = 0;
  spec.aggregates = {{p.func, 1}};
  spec.options.optimization = p.opt;
  ASSERT_TRUE(dfi.InitCombinerFlow(std::move(spec)).ok());

  // Scalar reference.
  std::map<uint64_t, double> reference;
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
      const uint64_t key = (s + i) % p.groups;
      const double v = static_cast<double>(ValueFor(s, i));
      auto [it, inserted] = reference.try_emplace(key);
      switch (p.func) {
        case AggFunc::kSum:
          it->second += v;
          break;
        case AggFunc::kCount:
          it->second += 1;
          break;
        case AggFunc::kMin:
          it->second = inserted ? v : std::min(it->second, v);
          break;
        case AggFunc::kMax:
          it->second = inserted ? v : std::max(it->second, v);
          break;
      }
    }
  }

  exec::Engine engine;
  for (uint32_t s = 0; s < p.num_sources; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto src = dfi.CreateCombinerSource("prop", s);
      ASSERT_TRUE(src.ok());
      struct {
        uint64_t key;
        int64_t value;
      } tuple;
      for (uint64_t i = 0; i < p.tuples_per_source; ++i) {
        tuple.key = (s + i) % p.groups;
        tuple.value = ValueFor(s, i);
        ASSERT_TRUE((*src)->Push(&tuple).ok());
      }
      ASSERT_TRUE((*src)->Close().ok());
    });
  }
  std::map<uint64_t, double> measured;
  for (uint32_t t = 0; t < p.target_threads; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto tgt = dfi.CreateCombinerTarget("prop", t);
      ASSERT_TRUE(tgt.ok());
      AggRow row;
      std::map<uint64_t, double> local;
      while ((*tgt)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
        local[row.group_key] = row.values[0];
      }
      for (auto& [k, v] : local) {
        ASSERT_EQ(measured.count(k), 0u) << "group on two target threads";
        measured[k] = v;
      }
    });
  }
  engine.Run();

  ASSERT_EQ(measured.size(), reference.size());
  for (auto& [key, expected] : reference) {
    ASSERT_TRUE(measured.count(key)) << "group " << key;
    EXPECT_DOUBLE_EQ(measured[key], expected) << "group " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Functions, CombinerProperty,
    ::testing::Values(
        CombinerParam{AggFunc::kSum, 2, 1, 13, FlowOptimization::kBandwidth,
                      3000},
        CombinerParam{AggFunc::kCount, 2, 1, 13,
                      FlowOptimization::kBandwidth, 3000},
        CombinerParam{AggFunc::kMin, 2, 1, 13, FlowOptimization::kBandwidth,
                      3000},
        CombinerParam{AggFunc::kMax, 2, 1, 13, FlowOptimization::kBandwidth,
                      3000}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Shapes, CombinerProperty,
    ::testing::Values(
        CombinerParam{AggFunc::kSum, 1, 1, 1, FlowOptimization::kBandwidth,
                      2000},
        CombinerParam{AggFunc::kSum, 4, 2, 64, FlowOptimization::kBandwidth,
                      2000},
        CombinerParam{AggFunc::kSum, 3, 4, 200,
                      FlowOptimization::kBandwidth, 1500},
        CombinerParam{AggFunc::kMax, 2, 2, 32, FlowOptimization::kLatency,
                      500},
        CombinerParam{AggFunc::kSum, 1, 1, 7, FlowOptimization::kLatency,
                      800}),
    ParamName);

}  // namespace
}  // namespace dfi
