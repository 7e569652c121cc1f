// Chaos tests (robustness PR): kill sources and targets mid-flow across
// all three flow types and assert that every surviving participant comes
// back with a non-OK Status — through poisoned-channel teardown, fault-plan
// crash detection, or the blocking deadline — and that nothing ever hangs
// (every participant is an engine task, so a wedged wait either ends in
// virtual time or trips the engine's stall detector; the harness adds a
// hard ctest timeout on top).

#include <gtest/gtest.h>

#include "common/exec/engine.h"
#include "core/combiner_flow.h"
#include "core/dfi_runtime.h"
#include "core/replicate_flow.h"
#include "core/shuffle_flow.h"

namespace dfi {
namespace {

Schema U64Schema() { return Schema{{"key", DataType::kUInt64}}; }

class ChaosFlowTest : public ::testing::Test {
 protected:
  ChaosFlowTest() : dfi_(&fabric_) {
    for (net::NodeId id : fabric_.AddNodes(4)) {
      addrs_.push_back(fabric_.node(id).address());
    }
  }

  FlowOptions Bounded(SimTime deadline_ns = 5 * kMillisecond) {
    FlowOptions opt;
    opt.optimization = FlowOptimization::kLatency;
    opt.block_deadline_ns = deadline_ns;
    return opt;
  }

  net::Fabric fabric_;
  DfiRuntime dfi_;
  std::vector<std::string> addrs_;
};

// ---- Shuffle ---------------------------------------------------------------

TEST_F(ChaosFlowTest, ShuffleSourceAbortFailsConsumer) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.sources.Append(Endpoint{addrs_[2], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded();
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  exec::Engine engine;
  engine.Spawn(1, "healthy", [&] {
    auto src = dfi_.CreateShuffleSource("f", 1);
    for (uint64_t k = 0; k < 5; ++k) ASSERT_TRUE((*src)->Push(&k).ok());
    ASSERT_TRUE((*src)->Close().ok());
  });
  engine.Spawn(2, "dying", [&] {
    auto src = dfi_.CreateShuffleSource("f", 0);
    uint64_t k = 99;
    ASSERT_TRUE((*src)->Push(&k).ok());
    (*src)->Abort(Status::PeerFailed("source 0 died"));  // no Close
  });
  engine.Spawn(0, "consumer", [&] {
    auto tgt = dfi_.CreateShuffleTarget("f", 0);
    uint64_t consumed = 0;
    ConsumeResult r;
    TupleView tuple;
    while ((r = (*tgt)->Consume(&tuple)) == ConsumeResult::kOk) ++consumed;
    EXPECT_EQ(r, ConsumeResult::kError)
        << "an aborted source must fail the consumer, not end the flow";
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
    EXPECT_LE(consumed, 6u);
  });
  engine.Run();
}

TEST_F(ChaosFlowTest, ShuffleTargetAbortUnblocksFullRingProducer) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded(/*deadline_ns=*/0);  // no deadline: only the abort
  spec.options.segments_per_ring = 4;         // fill the ring quickly
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  Status push_status;
  bool wedged = false;
  exec::Engine engine;
  engine.Spawn(1, "producer", [&] {
    auto src = dfi_.CreateShuffleSource("f", 0);
    for (uint64_t k = 0; k < 1000; ++k) {
      push_status = (*src)->Push(&k);
      if (!push_status.ok()) return;
    }
  });
  // The producer runs first and wedges against the never-consumed ring;
  // then kill the target. The blocked Push must wake with the abort cause
  // even though no deadline was configured.
  engine.Spawn(0, "killer", [&] {
    wedged = push_status.ok();
    (*tgt)->Abort(Status::PeerFailed("target process killed"));
  });
  engine.Run();
  EXPECT_TRUE(wedged);
  EXPECT_EQ(push_status.code(), StatusCode::kPeerFailed);
}

TEST_F(ChaosFlowTest, ShuffleConsumeDeadlineExpiresWithSilentSource) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded(/*deadline_ns=*/1 * kMillisecond);
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  // The source exists but never pushes and never closes: only the
  // consumer's own deadline can end the wait.
  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    auto tgt = dfi_.CreateShuffleTarget("f", 0);
    TupleView tuple;
    EXPECT_EQ((*tgt)->Consume(&tuple), ConsumeResult::kError);
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kDeadlineExceeded);
  });
  engine.Run();
}

TEST_F(ChaosFlowTest, ShuffleFaultPlanCrashDetectedByConsumer) {
  fabric_.fault_plan().CrashNode(1, 10 * kMicrosecond);
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});  // on the crashing node
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded(/*deadline_ns=*/60 * kMillisecond);
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  // No source endpoint is ever created — the node is dead. The consumer
  // must report the peer's death (from the fault plan), well before its
  // own 60 ms deadline.
  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    auto tgt = dfi_.CreateShuffleTarget("f", 0);
    TupleView tuple;
    EXPECT_EQ((*tgt)->Consume(&tuple), ConsumeResult::kError);
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
  });
  engine.Run();
}

// ---- Replicate -------------------------------------------------------------

TEST_F(ChaosFlowTest, ReplicateNaiveSourceAbortFailsAllTargets) {
  ReplicateFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[2], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.targets.Append(Endpoint{addrs_[1], 0});
  spec.schema = U64Schema();
  spec.options = Bounded();
  ASSERT_TRUE(dfi_.InitReplicateFlow(std::move(spec)).ok());

  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_.CreateReplicateSource("f", 0);
    for (uint64_t k = 0; k < 8; ++k) ASSERT_TRUE((*src)->Push(&k).ok());
    (*src)->Abort(Status::PeerFailed("replicate source died"));
  });
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_.CreateReplicateTarget("f", t);
      SegmentView seg;
      ConsumeResult r;
      while ((r = (*tgt)->ConsumeSegment(&seg)) == ConsumeResult::kOk) {
      }
      EXPECT_EQ(r, ConsumeResult::kError);
      EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
    });
  }
  engine.Run();
}

TEST_F(ChaosFlowTest, ReplicateMulticastAbortFailsAllTargets) {
  ReplicateFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[2], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.targets.Append(Endpoint{addrs_[1], 0});
  spec.schema = U64Schema();
  spec.options = Bounded();
  spec.options.use_multicast = true;
  ASSERT_TRUE(dfi_.InitReplicateFlow(std::move(spec)).ok());

  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_.CreateReplicateSource("f", 0);
    for (uint64_t k = 0; k < 8; ++k) ASSERT_TRUE((*src)->Push(&k).ok());
    (*src)->Abort(Status::PeerFailed("multicast source died"));
  });
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_.CreateReplicateTarget("f", t);
      SegmentView seg;
      ConsumeResult r;
      while ((r = (*tgt)->ConsumeSegment(&seg)) == ConsumeResult::kOk) {
      }
      EXPECT_EQ(r, ConsumeResult::kError);
      EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
    });
  }
  engine.Run();
}

TEST_F(ChaosFlowTest, ReplicateMulticastFaultPlanCrashDetected) {
  fabric_.fault_plan().CrashNode(2, 10 * kMicrosecond);
  ReplicateFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[2], 0});  // on the crashing node
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded(/*deadline_ns=*/60 * kMillisecond);
  spec.options.use_multicast = true;
  ASSERT_TRUE(dfi_.InitReplicateFlow(std::move(spec)).ok());

  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    auto tgt = dfi_.CreateReplicateTarget("f", 0);
    SegmentView seg;
    EXPECT_EQ((*tgt)->ConsumeSegment(&seg), ConsumeResult::kError);
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
  });
  engine.Run();
}

// ---- Combiner --------------------------------------------------------------

TEST_F(ChaosFlowTest, CombinerSourceAbortFailsAggregation) {
  CombinerFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.sources.Append(Endpoint{addrs_[2], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = Schema{{"key", DataType::kUInt64},
                       {"value", DataType::kInt64}};
  spec.group_by_index = 0;
  spec.aggregates = {{AggFunc::kSum, 1}};
  spec.options = Bounded();
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());

  struct Kv {
    uint64_t key;
    int64_t value;
  };
  exec::Engine engine;
  engine.Spawn(1, "healthy", [&] {
    auto src = dfi_.CreateCombinerSource("f", 0);
    Kv kv{1, 10};
    ASSERT_TRUE((*src)->Push(&kv).ok());
    ASSERT_TRUE((*src)->Close().ok());
  });
  engine.Spawn(2, "dying", [&] {
    auto src = dfi_.CreateCombinerSource("f", 1);
    Kv kv{2, 20};
    ASSERT_TRUE((*src)->Push(&kv).ok());
    (*src)->Abort(Status::PeerFailed("combiner source died"));
  });
  // The drain pre-aggregates everything before the first row is released,
  // so a dead source fails the whole aggregation — partial sums would be
  // silently wrong answers.
  engine.Spawn(0, "aggregator", [&] {
    auto tgt = dfi_.CreateCombinerTarget("f", 0);
    AggRow row;
    EXPECT_EQ((*tgt)->ConsumeAggregate(&row), ConsumeResult::kError);
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
  });
  engine.Run();
}

TEST_F(ChaosFlowTest, CombinerDrainDeadlineExpiresWithSilentSource) {
  CombinerFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = Schema{{"key", DataType::kUInt64},
                       {"value", DataType::kInt64}};
  spec.group_by_index = 0;
  spec.aggregates = {{AggFunc::kSum, 1}};
  spec.options = Bounded(/*deadline_ns=*/1 * kMillisecond);
  ASSERT_TRUE(dfi_.InitCombinerFlow(std::move(spec)).ok());

  exec::Engine engine;
  engine.Spawn(0, "aggregator", [&] {
    auto tgt = dfi_.CreateCombinerTarget("f", 0);
    AggRow row;
    EXPECT_EQ((*tgt)->ConsumeAggregate(&row), ConsumeResult::kError);
    EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kDeadlineExceeded);
  });
  engine.Run();
}

// ---- Runtime-level teardown ------------------------------------------------

TEST_F(ChaosFlowTest, AbortFlowByNameUnblocksWaitingConsumer) {
  ShuffleFlowSpec spec;
  spec.name = "f";
  spec.sources.Append(Endpoint{addrs_[1], 0});
  spec.targets.Append(Endpoint{addrs_[0], 0});
  spec.schema = U64Schema();
  spec.options = Bounded(/*deadline_ns=*/0);  // block forever if unaided
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  EXPECT_EQ(dfi_.AbortFlow("nope", Status::Aborted("x")).code(),
            StatusCode::kNotFound);

  ConsumeResult result = ConsumeResult::kOk;
  Status seen;
  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    auto tgt = dfi_.CreateShuffleTarget("f", 0);
    TupleView tuple;
    result = (*tgt)->Consume(&tuple);
    seen = (*tgt)->last_status();
  });
  // Runs once the consumer has parked on its empty ring.
  engine.Spawn(1, "operator", [&] {
    ASSERT_TRUE(
        dfi_.AbortFlow("f", Status::PeerFailed("operator killed flow")).ok());
  });
  engine.Run();
  EXPECT_EQ(result, ConsumeResult::kError);
  EXPECT_EQ(seen.code(), StatusCode::kPeerFailed);
}

}  // namespace
}  // namespace dfi
