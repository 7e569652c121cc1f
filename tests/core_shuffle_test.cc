#include "core/shuffle_flow.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "common/exec/engine.h"
#include "core/dfi_runtime.h"

namespace dfi {
namespace {

Schema KvSchema() {
  return Schema{{"key", DataType::kUInt64}, {"value", DataType::kUInt64}};
}

struct Kv {
  uint64_t key;
  uint64_t value;
};
static_assert(sizeof(Kv) == 16);

class ShuffleTest : public ::testing::Test {
 protected:
  ShuffleTest() : dfi_(&fabric_) { fabric_.AddNodes(4); }

  net::Fabric fabric_;
  DfiRuntime dfi_;
};

TEST_F(ShuffleTest, InitValidation) {
  ShuffleFlowSpec spec;
  spec.name = "";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  EXPECT_EQ(dfi_.InitShuffleFlow(spec).code(), StatusCode::kInvalidArgument);

  spec.name = "ok";
  spec.shuffle_key_index = 7;
  EXPECT_EQ(dfi_.InitShuffleFlow(spec).code(), StatusCode::kInvalidArgument);

  spec.shuffle_key_index = 0;
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  EXPECT_EQ(dfi_.InitShuffleFlow(spec).code(), StatusCode::kAlreadyExists);
}

TEST_F(ShuffleTest, EndpointIndexValidation) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  EXPECT_EQ(dfi_.CreateShuffleSource("f", 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(dfi_.CreateShuffleTarget("f", 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(dfi_.CreateShuffleSource("missing", 0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ShuffleTest, OneToOneRoundTrip) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());

  auto source = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE(source.ok());
  auto target = dfi_.CreateShuffleTarget("f", 0);
  ASSERT_TRUE(target.ok());

  constexpr uint64_t kTuples = 10000;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < kTuples; ++i) {
      Kv kv{i, i * 2};
      ASSERT_TRUE((*source)->Push(&kv).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });

  uint64_t count = 0, key_sum = 0;
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
      EXPECT_EQ(tuple.Get<uint64_t>(1), tuple.Get<uint64_t>(0) * 2);
      key_sum += tuple.Get<uint64_t>(0);
      ++count;
    }
  });
  engine.Run();
  EXPECT_EQ(count, kTuples);
  EXPECT_EQ(key_sum, kTuples * (kTuples - 1) / 2);
  EXPECT_GT((*target)->clock().now(), 0);
}

TEST_F(ShuffleTest, FlowEndIsSticky) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  auto target = dfi_.CreateShuffleTarget("f", 0);
  ASSERT_TRUE((*source)->Close().ok());
  TupleView tuple;
  EXPECT_EQ((*target)->Consume(&tuple), ConsumeResult::kFlowEnd);
  EXPECT_EQ((*target)->Consume(&tuple), ConsumeResult::kFlowEnd);
}

TEST_F(ShuffleTest, PushAfterCloseFails) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE((*source)->Close().ok());
  Kv kv{1, 1};
  EXPECT_EQ((*source)->Push(&kv).code(), StatusCode::kFailedPrecondition);
  // A target must still see a clean flow end.
  auto target = dfi_.CreateShuffleTarget("f", 0);
  TupleView tuple;
  EXPECT_EQ((*target)->Consume(&tuple), ConsumeResult::kFlowEnd);
}

TEST_F(ShuffleTest, KeyRoutingPartitionsDisjointly) {
  // N:M shuffle: every key lands at exactly the target its hash selects,
  // and nothing is lost or duplicated.
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0", "10.0.0.2|0"});
  spec.targets = DfiNodes({"10.0.0.3|0", "10.0.0.4|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());

  constexpr uint64_t kPerSource = 5000;
  exec::Engine engine;
  for (uint32_t s = 0; s < 2; ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto source = dfi_.CreateShuffleSource("f", s);
      ASSERT_TRUE(source.ok());
      for (uint64_t i = 0; i < kPerSource; ++i) {
        Kv kv{s * kPerSource + i, i};
        ASSERT_TRUE((*source)->Push(&kv).ok());
      }
      ASSERT_TRUE((*source)->Close().ok());
    });
  }

  std::vector<std::vector<uint64_t>> received(2);
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(2 + t, "target", [&, t] {
      auto target = dfi_.CreateShuffleTarget("f", t);
      ASSERT_TRUE(target.ok());
      TupleView tuple;
      while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
        const uint64_t key = tuple.Get<uint64_t>(0);
        EXPECT_EQ(HashU64(key) % 2, t) << "key routed to wrong target";
        received[t].push_back(key);
      }
    });
  }
  engine.Run();

  std::vector<uint64_t> all;
  for (auto& r : received) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 2 * kPerSource);
  for (uint64_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i);
  }
}

TEST_F(ShuffleTest, CustomRoutingFunction) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0", "10.0.0.3|0"});
  spec.schema = KvSchema();
  // Range partitioning: keys < 100 left, rest right.
  spec.routing = [](TupleView t, uint32_t) -> uint32_t {
    return t.Get<uint64_t>(0) < 100 ? 0 : 1;
  };
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());

  auto source = dfi_.CreateShuffleSource("f", 0);
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < 200; ++i) {
      Kv kv{i, 0};
      ASSERT_TRUE((*source)->Push(&kv).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });

  auto t0 = dfi_.CreateShuffleTarget("f", 0);
  auto t1 = dfi_.CreateShuffleTarget("f", 1);
  std::vector<uint64_t> left, right;
  engine.Spawn(1, "consumer0", [&] {
    TupleView tuple;
    while ((*t0)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
      left.push_back(tuple.Get<uint64_t>(0));
    }
  });
  engine.Spawn(2, "consumer1", [&] {
    TupleView tuple;
    while ((*t1)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
      right.push_back(tuple.Get<uint64_t>(0));
    }
  });
  engine.Run();
  EXPECT_EQ(left.size(), 100u);
  EXPECT_EQ(right.size(), 100u);
  for (uint64_t k : left) EXPECT_LT(k, 100u);
  for (uint64_t k : right) EXPECT_GE(k, 100u);
}

TEST_F(ShuffleTest, PushToExplicitTarget) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0", "10.0.0.3|0"});
  spec.schema = KvSchema();
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  Kv kv{42, 7};
  EXPECT_EQ((*source)->PushTo(&kv, 5).code(), StatusCode::kOutOfRange);
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    Kv t{42, 7};
    ASSERT_TRUE((*source)->PushTo(&t, 1).ok());
    ASSERT_TRUE((*source)->Close().ok());
  });
  auto t0 = dfi_.CreateShuffleTarget("f", 0);
  auto t1 = dfi_.CreateShuffleTarget("f", 1);
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    int t1_count = 0;
    while ((*t1)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
      EXPECT_EQ(tuple.Get<uint64_t>(0), 42u);
      ++t1_count;
    }
    EXPECT_EQ(t1_count, 1);
    EXPECT_EQ((*t0)->Consume(&tuple), ConsumeResult::kFlowEnd);
  });
  engine.Run();
}

TEST_F(ShuffleTest, LatencyOptimizedRoundTrip) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  spec.options.optimization = FlowOptimization::kLatency;
  spec.options.segments_per_ring = 8;
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());

  auto source = dfi_.CreateShuffleSource("f", 0);
  auto target = dfi_.CreateShuffleTarget("f", 0);
  constexpr uint64_t kTuples = 2000;  // > credits, forces credit refreshes
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < kTuples; ++i) {
      Kv kv{i, i + 1};
      ASSERT_TRUE((*source)->Push(&kv).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });
  uint64_t count = 0;
  engine.Spawn(1, "consumer", [&] {
    uint64_t expected = 0;
    TupleView tuple;
    while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
      // Latency mode over one channel preserves order.
      EXPECT_EQ(tuple.Get<uint64_t>(0), expected);
      ++expected;
      ++count;
    }
  });
  engine.Run();
  EXPECT_EQ(count, kTuples);
}

TEST_F(ShuffleTest, SegmentConsumeIsZeroCopyBatched) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  spec.options.segment_size = 256;  // 16 tuples per segment
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  auto target = dfi_.CreateShuffleTarget("f", 0);
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < 64; ++i) {
      Kv kv{i, i};
      ASSERT_TRUE((*source)->Push(&kv).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });
  uint64_t tuples = 0;
  int segments = 0;
  engine.Spawn(1, "consumer", [&] {
    SegmentView view;
    while ((*target)->ConsumeSegment(&view) != ConsumeResult::kFlowEnd) {
      EXPECT_EQ(view.bytes % 16, 0u);
      tuples += view.bytes / 16;
      ++segments;
    }
  });
  engine.Run();
  EXPECT_EQ(tuples, 64u);
  EXPECT_EQ(segments, 4) << "16 tuples per 256 B segment";
}

TEST_F(ShuffleTest, SmallRingStillCompletes) {
  // Ring pressure: tiny ring, many tuples; sources must block and resume.
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = KvSchema();
  spec.options.segments_per_ring = 2;
  spec.options.segment_size = 64;
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  auto target = dfi_.CreateShuffleTarget("f", 0);
  constexpr uint64_t kTuples = 5000;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < kTuples; ++i) {
      Kv kv{i, i};
      ASSERT_TRUE((*source)->Push(&kv).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });
  uint64_t count = 0;
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) ++count;
  });
  engine.Run();
  EXPECT_EQ(count, kTuples);
}

TEST_F(ShuffleTest, VirtualTimeReflectsLinkBandwidth) {
  // Moving 64 MiB over one 100 Gbps link takes >= 5.37 ms of virtual time.
  // 1 KiB tuples keep a single source thread from being CPU-bound, so the
  // completion time must be within a factor ~1.5 of wire speed.
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources = DfiNodes({"10.0.0.1|0"});
  spec.targets = DfiNodes({"10.0.0.2|0"});
  spec.schema = Schema{{"key", DataType::kUInt64},
                       {"pad", DataType::kChar, 1016}};
  ASSERT_TRUE(dfi_.InitShuffleFlow(spec).ok());
  auto source = dfi_.CreateShuffleSource("f", 0);
  auto target = dfi_.CreateShuffleTarget("f", 0);
  const uint64_t kTuples = 64 * kMiB / 1024;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    std::vector<uint8_t> buf(1024, 0);
    for (uint64_t i = 0; i < kTuples; ++i) {
      TupleWriter(buf.data(), &(*source)->schema()).Set<uint64_t>(0, i);
      ASSERT_TRUE((*source)->Push(buf.data()).ok());
    }
    ASSERT_TRUE((*source)->Close().ok());
  });
  uint64_t count = 0;
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    while ((*target)->Consume(&tuple) != ConsumeResult::kFlowEnd) ++count;
  });
  engine.Run();
  ASSERT_EQ(count, kTuples);
  const double min_ns = 64.0 * kMiB / fabric_.config().LinkBytesPerNs();
  EXPECT_GE((*target)->clock().now(), static_cast<SimTime>(min_ns));
  // A single source thread pays ~94 ns of CPU per 1 KiB tuple (cost
  // model), so the run is mildly CPU-bound: allow up to 2x wire time.
  EXPECT_LE((*target)->clock().now(), static_cast<SimTime>(2.0 * min_ns));
}

}  // namespace
}  // namespace dfi
