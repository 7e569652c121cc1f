// API-surface tests of DfiRuntime: flow lifecycle, type safety across flow
// kinds, registry integration and memory accounting.

#include "core/dfi_runtime.h"

#include <gtest/gtest.h>

#include "common/exec/engine.h"
#include "core/combiner_flow.h"
#include "core/replicate_flow.h"

namespace dfi {
namespace {

class DfiRuntimeTest : public ::testing::Test {
 protected:
  DfiRuntimeTest() : dfi_(&fabric_) { fabric_.AddNodes(4); }

  ShuffleFlowSpec ShuffleSpec(const std::string& name) {
    ShuffleFlowSpec spec;
    spec.name = name;
    spec.sources = DfiNodes({"10.0.0.1|0"});
    spec.targets = DfiNodes({"10.0.0.2|0"});
    spec.schema = Schema{{"k", DataType::kUInt64}};
    return spec;
  }

  ReplicateFlowSpec ReplicateSpec(const std::string& name) {
    ReplicateFlowSpec spec;
    spec.name = name;
    spec.sources = DfiNodes({"10.0.0.1|0"});
    spec.targets = DfiNodes({"10.0.0.2|0", "10.0.0.3|0"});
    spec.schema = Schema{{"k", DataType::kUInt64}};
    return spec;
  }

  net::Fabric fabric_;
  DfiRuntime dfi_;
};

TEST_F(DfiRuntimeTest, FlowTypeMismatchIsRejected) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("s")).ok());
  ASSERT_TRUE(dfi_.InitReplicateFlow(ReplicateSpec("r")).ok());
  // A shuffle flow is not a replicate flow and vice versa.
  EXPECT_EQ(dfi_.CreateReplicateSource("s", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfi_.CreateShuffleTarget("r", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfi_.CreateCombinerSource("s", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DfiRuntimeTest, FlowNamesShareOneNamespace) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("x")).ok());
  EXPECT_EQ(dfi_.InitReplicateFlow(ReplicateSpec("x")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DfiRuntimeTest, RemoveFlowFreesTheName) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  ASSERT_TRUE(dfi_.RemoveFlow("f").ok());
  EXPECT_EQ(dfi_.RemoveFlow("f").code(), StatusCode::kNotFound);
  EXPECT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
}

TEST_F(DfiRuntimeTest, EndpointsOutliveRegistryRemoval) {
  // The registry drops its reference; live endpoints keep the flow state
  // alive via shared ownership.
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  auto src = dfi_.CreateShuffleSource("f", 0);
  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  ASSERT_TRUE(dfi_.RemoveFlow("f").ok());
  const uint64_t k = 7;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    EXPECT_TRUE((*src)->Push(&k).ok());
    EXPECT_TRUE((*src)->Close().ok());
  });
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    EXPECT_EQ((*tgt)->Consume(&tuple), ConsumeResult::kOk);
    EXPECT_EQ(tuple.Get<uint64_t>(0), 7u);
    EXPECT_EQ((*tgt)->Consume(&tuple), ConsumeResult::kFlowEnd);
  });
  engine.Run();
}

TEST_F(DfiRuntimeTest, FlowInitAllocatesTargetRings) {
  const uint64_t before = dfi_.RegisteredBytesOnNode(1);
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  const uint64_t after = dfi_.RegisteredBytesOnNode(1);
  // 1 channel: 32 segments x (8 KiB + 24 B footer) + 64 B credit region.
  EXPECT_EQ(after - before, 32 * (8192 + 24) + 64u);
}

TEST_F(DfiRuntimeTest, SourceCreationAllocatesStagingOnSourceNode) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  const uint64_t before = dfi_.RegisteredBytesOnNode(0);
  auto src = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE(src.ok());
  EXPECT_GT(dfi_.RegisteredBytesOnNode(0), before);
  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] { EXPECT_TRUE((*src)->Close().ok()); });
  engine.Spawn(1, "consumer", [&] {
    TupleView t;
    EXPECT_EQ((*tgt)->Consume(&t), ConsumeResult::kFlowEnd);
  });
  engine.Run();
}

TEST_F(DfiRuntimeTest, UnknownNodeAddressFailsInit) {
  ShuffleFlowSpec spec = ShuffleSpec("f");
  spec.sources = DfiNodes({"10.9.9.9|0"});
  EXPECT_DEATH({ (void)dfi_.InitShuffleFlow(std::move(spec)); },
               "node address");
}

TEST_F(DfiRuntimeTest, ReplicateFlowValidation) {
  ReplicateFlowSpec spec = ReplicateSpec("r");
  spec.name = "";
  EXPECT_EQ(dfi_.InitReplicateFlow(spec).code(),
            StatusCode::kInvalidArgument);
  spec.name = "r";
  spec.options.global_ordering = true;
  spec.options.use_multicast = false;
  EXPECT_EQ(dfi_.InitReplicateFlow(spec).code(),
            StatusCode::kUnimplemented);
}

TEST_F(DfiRuntimeTest, TupleSizeMismatchRejectedOnPush) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  auto src = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE(src.ok());
  // PushTo with an out-of-range target index.
  const uint64_t k = 1;
  EXPECT_EQ((*src)->PushTo(&k, 99).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE((*src)->Close().ok());
  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  TupleView t;
  EXPECT_EQ((*tgt)->Consume(&t), ConsumeResult::kFlowEnd);
}

// Teardown handshake regressions: repeated or post-abort lifecycle calls on
// the same flow name must come back as clean Statuses, never crash.
TEST_F(DfiRuntimeTest, DoubleCloseIsIdempotent) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  auto src = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE(src.ok());
  const uint64_t k = 7;
  ASSERT_TRUE((*src)->Push(&k).ok());
  EXPECT_TRUE((*src)->Close().ok());
  EXPECT_TRUE((*src)->Close().ok());  // second close is a clean no-op
  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  TupleView t;
  EXPECT_EQ((*tgt)->Consume(&t), ConsumeResult::kOk);
  EXPECT_EQ((*tgt)->Consume(&t), ConsumeResult::kFlowEnd);
}

TEST_F(DfiRuntimeTest, CloseAfterAbortFlowReturnsCleanStatus) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  auto src = dfi_.CreateShuffleSource("f", 0);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dfi_.AbortFlow("f", Status::Aborted("operator killed")).ok());
  // The channels are poisoned: Close must surface a Status, not crash or
  // pretend the end-of-flow marker was delivered.
  EXPECT_FALSE((*src)->Close().ok());
  auto tgt = dfi_.CreateShuffleTarget("f", 0);
  SegmentView view;
  EXPECT_EQ((*tgt)->ConsumeSegment(&view), ConsumeResult::kError);
  EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kAborted);
  // Aborting an already-aborted flow keeps the first cause.
  EXPECT_TRUE(
      dfi_.AbortFlow("f", Status::PeerFailed("late second cause")).ok());
  EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kAborted);
}

TEST_F(DfiRuntimeTest, DoubleRemoveReturnsNotFound) {
  ASSERT_TRUE(dfi_.InitShuffleFlow(ShuffleSpec("f")).ok());
  EXPECT_TRUE(dfi_.RemoveFlow("f").ok());
  EXPECT_EQ(dfi_.RemoveFlow("f").code(), StatusCode::kNotFound);
  EXPECT_EQ(dfi_.AbortFlow("f", Status::Aborted("gone")).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dfi
