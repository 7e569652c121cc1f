#include "core/combiner_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec/engine.h"
#include "common/random.h"
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

TEST_F(CombinerTest, MultiNodeTargetsRejected) {
  // The combiner is N:1: target threads spanning two nodes are rejected.
  auto spec = BaseSpec(1, 1);
  spec.targets.Append(Endpoint{"10.0.0.3", 0});
  spec.aggregates = {{AggFunc::kSum, 1}};
  EXPECT_EQ(dfi_.InitCombinerFlow(spec).code(),
            StatusCode::kInvalidArgument);
  // Several target threads on one node are accepted.
  auto single = BaseSpec(1, 2);
  single.aggregates = {{AggFunc::kSum, 1}};
  EXPECT_TRUE(dfi_.InitCombinerFlow(std::move(single)).ok());
}

TEST_F(CombinerTest, SumGroupByMatchesReference) {
  auto spec = BaseSpec(4, 1);
  spec.aggregates = {{AggFunc::kSum, 1}, {AggFunc::kCount, 0}};
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());

  constexpr uint64_t kPerSource = 3000;
  constexpr uint64_t kGroups = 17;
  std::map<uint64_t, double> ref_sum;
  std::map<uint64_t, double> ref_count;

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

TEST(AggregatorTest, RowsInFirstSeenOrderWithExactAccumulators) {
  // Folds 4 tuples into each of ~2^17 groups in a scrambled order, in
  // segments of 1, 7, 256, 257 and 512 tuples (one, several and parts of
  // lookup batches; the table doubles inside batches), and checks the rows
  // against a fold computed here one tuple at a time in the same order:
  // row order is first-seen order, and every accumulator is bit-identical
  // (the same floating-point operations in the same sequence).
  const Schema schema{{"key", DataType::kUInt64},
                      {"i32", DataType::kInt32},
                      {"u64", DataType::kUInt64},
                      {"f64", DataType::kDouble}};
  std::vector<AggSpec> aggs = {{AggFunc::kCount, 0}};
  for (AggFunc func : {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax}) {
    for (size_t field = 1; field <= 3; ++field) aggs.push_back({func, field});
  }
  constexpr size_t kGroups = (size_t{1} << 17) + 2;
  constexpr size_t kPerGroup = 4;

  // Dense small keys, keys sharing their low byte (as one partition of a
  // key-hash or radix flow would), and both ends of the key range.
  Xorshift128Plus rng(7);
  std::vector<uint64_t> keys = {0, ~uint64_t{0}};
  for (uint64_t k = 1; keys.size() < kGroups / 2; ++k) keys.push_back(k);
  while (keys.size() < kGroups) keys.push_back((rng.Next() << 8) | 0x5a);
  std::vector<uint64_t> order;
  for (uint64_t key : keys) order.insert(order.end(), kPerGroup, key);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  const size_t tuple_size = schema.tuple_size();
  std::vector<uint8_t> tuples(order.size() * tuple_size);
  for (size_t i = 0; i < order.size(); ++i) {
    TupleWriter writer(&tuples[i * tuple_size], &schema);
    writer.Set(0, order[i]);
    writer.Set(1, static_cast<int32_t>(rng.NextBelow(2001)) - 1000);
    writer.Set(2, rng.Next());
    writer.Set(3, rng.NextDouble() * 1e6 - 5e5);
  }

  // Field `f` of a tuple as a double.
  auto value = [](TupleView t, size_t f) -> double {
    if (f == 1) return t.Get<int32_t>(1);
    if (f == 2) return static_cast<double>(t.Get<uint64_t>(2));
    return t.Get<double>(3);
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::unordered_map<uint64_t, size_t> ref_index;
  std::vector<uint64_t> ref_keys;
  std::vector<std::vector<double>> ref_rows;
  for (size_t i = 0; i < order.size(); ++i) {
    const TupleView t(&tuples[i * tuple_size], &schema);
    auto [it, inserted] = ref_index.try_emplace(order[i], ref_rows.size());
    if (inserted) {
      ref_keys.push_back(order[i]);
      ref_rows.emplace_back();
      for (const AggSpec& agg : aggs) {
        double init = 0;
        if (agg.func == AggFunc::kMin) init = inf;
        if (agg.func == AggFunc::kMax) init = -inf;
        ref_rows.back().push_back(init);
      }
    }
    std::vector<double>& acc = ref_rows[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      switch (aggs[a].func) {
        case AggFunc::kCount:
          acc[a] += 1;
          break;
        case AggFunc::kSum:
          acc[a] += value(t, aggs[a].field_index);
          break;
        case AggFunc::kMin:
          acc[a] = std::min(acc[a], value(t, aggs[a].field_index));
          break;
        case AggFunc::kMax:
          acc[a] = std::max(acc[a], value(t, aggs[a].field_index));
          break;
      }
    }
  }
  ASSERT_GE(ref_keys.size(), size_t{100000});

  const net::SimConfig config;
  VirtualClock clock;
  Aggregator aggregator(&schema, &aggs, 0, &config, &clock);
  const size_t kSizes[] = {1, 7, 256, 257, 512};
  size_t segments = 0;
  for (size_t begin = 0; begin < order.size(); ++segments) {
    const size_t n = std::min(kSizes[segments % 5], order.size() - begin);
    aggregator.FoldSegment(&tuples[begin * tuple_size], n);
    begin += n;
  }
  ASSERT_GT(segments, size_t{1000});
  EXPECT_EQ(aggregator.tuples_folded(), order.size());
  const SimTime per_tuple =
      config.tuple_consume_fixed_ns + config.agg_update_ns;
  EXPECT_EQ(clock.now(), static_cast<SimTime>(order.size()) * per_tuple);

  AggRow row;
  size_t rows = 0;
  while (aggregator.NextRow(&row)) {
    ASSERT_LT(rows, ref_keys.size());
    ASSERT_EQ(row.group_key, ref_keys[rows]) << "row " << rows;
    ASSERT_EQ(row.values, ref_rows[rows]) << "group " << row.group_key;
    ++rows;
  }
  EXPECT_EQ(rows, ref_keys.size());
}

}  // namespace
}  // namespace dfi
