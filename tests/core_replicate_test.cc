#include "core/replicate_flow.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

struct Kv {
  uint64_t key;
  uint64_t value;
};

Schema KvSchema() {
  return Schema{{"key", DataType::kUInt64}, {"value", DataType::kUInt64}};
}

class ReplicateTest : public ::testing::Test {
 protected:
  explicit ReplicateTest(net::SimConfig cfg = net::SimConfig())
      : fabric_(cfg), dfi_(&fabric_) {
    fabric_.AddNodes(9);
  }

  ReplicateFlowSpec BaseSpec(uint32_t num_targets, bool multicast,
                             bool ordered) {
    ReplicateFlowSpec spec;
    spec.name = "rep";
    spec.sources = DfiNodes({"10.0.0.1|0"});
    for (uint32_t t = 0; t < num_targets; ++t) {
      spec.targets.Append(
          Endpoint{"10.0.0." + std::to_string(t + 2), 0});
    }
    spec.schema = KvSchema();
    spec.options.use_multicast = multicast;
    spec.options.global_ordering = ordered;
    return spec;
  }

  /// Pushes kTuples from source 0 and verifies every target received all
  /// of them (order checked when `expect_order`).
  void RunOneToN(uint32_t num_targets, uint64_t tuples, bool expect_order) {
    exec::Engine engine;
    engine.Spawn(0, "source", [&] {
      auto source = dfi_.CreateReplicateSource("rep", 0);
      ASSERT_TRUE(source.ok());
      for (uint64_t i = 0; i < tuples; ++i) {
        Kv kv{i, i * 3};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
    std::vector<uint64_t> counts(num_targets, 0);
    for (uint32_t t = 0; t < num_targets; ++t) {
      engine.Spawn(t, "target", [&, t] {
        auto target = dfi_.CreateReplicateTarget("rep", t);
        ASSERT_TRUE(target.ok());
        TupleView tuple;
        uint64_t expected = 0;
        while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
          const uint64_t key = tuple.Get<uint64_t>(0);
          if (expect_order) {
            ASSERT_EQ(key, expected);
          }
          ASSERT_EQ(tuple.Get<uint64_t>(1), key * 3);
          ++expected;
          ++counts[t];
        }
      });
    }
    engine.Run();
    for (uint32_t t = 0; t < num_targets; ++t) {
      EXPECT_EQ(counts[t], tuples) << "target " << t;
    }
  }

  net::Fabric fabric_;
  DfiRuntime dfi_;
};

TEST_F(ReplicateTest, NaiveOneToEightDeliversAll) {
  ASSERT_TRUE(dfi_.InitReplicateFlow(BaseSpec(8, false, false)).ok());
  RunOneToN(8, 3000, /*expect_order=*/true);  // single source: FIFO per ring
}

TEST_F(ReplicateTest, NaiveLatencyMode) {
  auto spec = BaseSpec(4, false, false);
  spec.options.optimization = FlowOptimization::kLatency;
  spec.options.segments_per_ring = 8;
  ASSERT_TRUE(dfi_.InitReplicateFlow(std::move(spec)).ok());
  RunOneToN(4, 800, /*expect_order=*/true);
}

TEST_F(ReplicateTest, MulticastOneToEightDeliversAll) {
  ASSERT_TRUE(dfi_.InitReplicateFlow(BaseSpec(8, true, false)).ok());
  RunOneToN(8, 3000, /*expect_order=*/false);
}

TEST_F(ReplicateTest, MulticastOrderedSingleSourcePreservesOrder) {
  ASSERT_TRUE(dfi_.InitReplicateFlow(BaseSpec(4, true, true)).ok());
  RunOneToN(4, 2000, /*expect_order=*/true);
}

TEST_F(ReplicateTest, OrderedWithoutMulticastUnimplemented) {
  EXPECT_EQ(dfi_.InitReplicateFlow(BaseSpec(2, false, true)).code(),
            StatusCode::kUnimplemented);
}

TEST_F(ReplicateTest, MulticastOrderedMultiSourceGlobalOrder) {
  // The OUM property (paper 4.2.2): with global ordering, all targets
  // consume the same sequence even with multiple concurrent sources.
  ReplicateFlowSpec spec = BaseSpec(3, true, true);
  spec.sources = DfiNodes({"10.0.0.1|0", "10.0.0.9|0"});
  spec.options.optimization = FlowOptimization::kLatency;  // tuple-granular
  ASSERT_TRUE(dfi_.InitReplicateFlow(std::move(spec)).ok());

  constexpr uint64_t kPerSource = 500;
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateReplicateSource("rep", s);
      ASSERT_TRUE(source.ok());
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Kv kv{s * kPerSource + i, i};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }
  std::vector<std::vector<uint64_t>> sequences(3);
  for (uint32_t t = 0; t < 3; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto target = dfi_.CreateReplicateTarget("rep", t);
      ASSERT_TRUE(target.ok());
      TupleView tuple;
      while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        sequences[t].push_back(tuple.Get<uint64_t>(0));
      }
    });
  }
  engine.Run();
  ASSERT_EQ(sequences[0].size(), 2 * kPerSource);
  EXPECT_EQ(sequences[0], sequences[1]) << "targets disagree on order";
  EXPECT_EQ(sequences[0], sequences[2]) << "targets disagree on order";
}

class ReplicateLossTest : public ReplicateTest {
 protected:
  static net::SimConfig LossConfig() {
    net::SimConfig cfg;
    cfg.multicast_loss_probability = 0.05;
    cfg.loss_seed = 99;
    return cfg;
  }
  ReplicateLossTest() : ReplicateTest(LossConfig()) {}
};

TEST_F(ReplicateLossTest, OrderedFlowRecoversLostSegments) {
  // 5% multicast loss; the ordered flow must still deliver everything, in
  // order, to every target via gap detection + retransmission.
  ASSERT_TRUE(dfi_.InitReplicateFlow(BaseSpec(3, true, true)).ok());
  RunOneToN(3, 600, /*expect_order=*/true);
}

TEST_F(ReplicateLossTest, UnorderedLossyFlowRejectedAtInit) {
  EXPECT_DEATH(
      { (void)dfi_.InitReplicateFlow(BaseSpec(2, true, false)); },
      "loss injection requires");
}

}  // namespace
}  // namespace dfi
