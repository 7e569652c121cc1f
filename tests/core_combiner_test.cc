#include "core/combiner_flow.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

struct Kv {
  uint64_t key;
  int64_t value;
};

Schema KvSchema() {
  return Schema{{"key", DataType::kUInt64}, {"value", DataType::kInt64}};
}

class CombinerTest : public ::testing::Test {
 protected:
  CombinerTest() : dfi_(&fabric_) { fabric_.AddNodes(9); }

  CombinerFlowSpec BaseSpec(uint32_t num_sources, uint32_t target_threads) {
    CombinerFlowSpec spec;
    spec.name = "agg";
    for (uint32_t s = 0; s < num_sources; ++s) {
      spec.sources.Append(
          Endpoint{"10.0.0." + std::to_string(s + 2), 0});
    }
    for (uint32_t t = 0; t < target_threads; ++t) {
      spec.targets.Append(Endpoint{"10.0.0.1", t});
    }
    spec.schema = KvSchema();
    spec.group_by_index = 0;
    return spec;
  }

  net::Fabric fabric_;
  DfiRuntime dfi_;
};

TEST_F(CombinerTest, InitValidation) {
  auto spec = BaseSpec(1, 1);
  spec.aggregates = {};
  EXPECT_EQ(dfi_.InitCombinerFlow(spec).code(),
            StatusCode::kInvalidArgument);
  spec.aggregates = {{AggFunc::kSum, 9}};
  EXPECT_EQ(dfi_.InitCombinerFlow(spec).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CombinerTest, MultiNodeTargetsRejectedWithoutOptIn) {
  auto spec = BaseSpec(1, 1);
  spec.targets.Append(Endpoint{"10.0.0.3", 0});
  spec.aggregates = {{AggFunc::kSum, 1}};
  EXPECT_EQ(dfi_.InitCombinerFlow(spec).code(),
            StatusCode::kInvalidArgument);
  // Same-node target sets never need the flag.
  auto single = BaseSpec(1, 2);
  single.aggregates = {{AggFunc::kSum, 1}};
  EXPECT_TRUE(dfi_.InitCombinerFlow(std::move(single)).ok());
}

TEST_F(CombinerTest, MultiNodeTargetsPartitionGroups) {
  // N:M topology: group-key partitions spread over two target nodes.
  auto spec = BaseSpec(2, 1);
  spec.targets.Append(Endpoint{"10.0.0.4", 0});
  spec.multi_node_targets = true;
  spec.aggregates = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());

  constexpr uint64_t kPerSource = 2048;  // multiple of kGroups: equal counts
  constexpr uint64_t kGroups = 32;
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateCombinerSource("agg", s);
      ASSERT_TRUE(source.ok());
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Kv kv{i % kGroups, 2};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }
  std::mutex mu;
  std::map<uint64_t, AggRow> rows;
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi_.CreateCombinerTarget("agg", t);
      ASSERT_TRUE(target.ok());
      AggRow row;
      std::map<uint64_t, AggRow> local;
      while ((*target)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
        // Group keys are hash-partitioned across the target threads exactly
        // as in the single-node case.
        ASSERT_EQ(HashU64(row.group_key) % 2, t);
        local[row.group_key] = row;
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [k, r] : local) {
        ASSERT_EQ(rows.count(k), 0u) << "group seen by two targets";
        rows[k] = r;
      }
    });
  }
  engine.Run();
  ASSERT_EQ(rows.size(), kGroups);
  for (auto& [key, row] : rows) {
    EXPECT_DOUBLE_EQ(row.values[0], 2.0 * 2 * kPerSource / kGroups);
    EXPECT_DOUBLE_EQ(row.values[1], 2.0 * kPerSource / kGroups);
  }
}

TEST_F(CombinerTest, SumGroupByMatchesReference) {
  auto spec = BaseSpec(4, 1);
  spec.aggregates = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());

  constexpr uint64_t kPerSource = 3000;
  constexpr uint64_t kGroups = 17;
  std::map<uint64_t, double> ref_sum;
  std::map<uint64_t, double> ref_count;
  std::mutex ref_mu;

  exec::Engine engine;
  for (uint32_t s = 0; s < 4; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateCombinerSource("agg", s);
      ASSERT_TRUE(source.ok());
      std::map<uint64_t, double> local_sum, local_count;
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Kv kv{(s + i) % kGroups, static_cast<int64_t>(i % 100) - 50};
        local_sum[kv.key] += static_cast<double>(kv.value);
        local_count[kv.key] += 1;
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
      std::lock_guard<std::mutex> lock(ref_mu);
      for (auto& [k, v] : local_sum) ref_sum[k] += v;
      for (auto& [k, v] : local_count) ref_count[k] += v;
    });
  }

  std::map<uint64_t, AggRow> rows;
  engine.Spawn(0, "aggregator", [&] {
    auto target = dfi_.CreateCombinerTarget("agg", 0);
    ASSERT_TRUE(target.ok());
    AggRow row;
    while ((*target)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
      rows[row.group_key] = row;
    }
    EXPECT_EQ((*target)->tuples_aggregated(), 4 * kPerSource);
  });
  engine.Run();

  ASSERT_EQ(rows.size(), kGroups);
  for (auto& [key, row] : rows) {
    EXPECT_DOUBLE_EQ(row.values[0], ref_sum[key]) << "group " << key;
    EXPECT_DOUBLE_EQ(row.values[1], ref_count[key]) << "group " << key;
  }
}

TEST_F(CombinerTest, MinMaxAggregates) {
  auto spec = BaseSpec(2, 1);
  spec.aggregates = {{AggFunc::kMin, 1}, {AggFunc::kMax, 1}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateCombinerSource("agg", s);
      for (int64_t i = 0; i < 1000; ++i) {
        Kv kv{static_cast<uint64_t>(i % 5),
              s == 0 ? i : -i};  // source 1 pushes negatives
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }
  std::map<uint64_t, AggRow> rows;
  engine.Spawn(0, "aggregator", [&] {
    auto target = dfi_.CreateCombinerTarget("agg", 0);
    AggRow row;
    while ((*target)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
      rows[row.group_key] = row;
    }
  });
  engine.Run();
  ASSERT_EQ(rows.size(), 5u);
  for (auto& [key, row] : rows) {
    // Keys k, k+5, ..., k+995: min is -(max positive) and max is positive.
    EXPECT_LE(row.values[0], -990.0);
    EXPECT_GE(row.values[1], 990.0);
  }
}

TEST_F(CombinerTest, MultiThreadedTargetPartitionsGroups) {
  auto spec = BaseSpec(2, 4);
  spec.aggregates = {{AggFunc::kCount, 0}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());
  constexpr uint64_t kGroups = 64;
  constexpr uint64_t kPerSource = 2048;  // multiple of kGroups: equal counts
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateCombinerSource("agg", s);
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Kv kv{i % kGroups, 1};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }
  std::mutex mu;
  std::map<uint64_t, double> counts;
  for (uint32_t t = 0; t < 4; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi_.CreateCombinerTarget("agg", t);
      AggRow row;
      std::map<uint64_t, double> local;
      while ((*target)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
        // Group keys are hash-partitioned across target threads.
        ASSERT_EQ(HashU64(row.group_key) % 4, t);
        local[row.group_key] = row.values[0];
      }
      std::lock_guard<std::mutex> lock(mu);
      for (auto& [k, v] : local) {
        ASSERT_EQ(counts.count(k), 0u) << "group seen by two targets";
        counts[k] = v;
      }
    });
  }
  engine.Run();
  ASSERT_EQ(counts.size(), kGroups);
  for (auto& [k, v] : counts) {
    EXPECT_DOUBLE_EQ(v, 2.0 * kPerSource / kGroups);
  }
}

TEST_F(CombinerTest, GlobalAggregatePartialsSumUp) {
  auto spec = BaseSpec(2, 2);
  spec.global_aggregate = true;
  spec.aggregates = {{AggFunc::kSum, 1}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateCombinerSource("agg", s);
      for (int64_t i = 1; i <= 1000; ++i) {
        Kv kv{0, i};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }
  std::atomic<double> total{0};
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi_.CreateCombinerTarget("agg", t);
      AggRow row;
      double partial = 0;
      while ((*target)->ConsumeAggregate(&row) != ConsumeResult::kFlowEnd) {
        partial += row.values[0];
      }
      double expected = total.load();
      while (!total.compare_exchange_weak(expected, expected + partial)) {
      }
    });
  }
  engine.Run();
  EXPECT_DOUBLE_EQ(total.load(), 2.0 * 1000 * 1001 / 2);
}

}  // namespace
}  // namespace dfi
