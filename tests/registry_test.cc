#include "registry/flow_registry.h"

#include <gtest/gtest.h>

#include "common/exec/engine.h"

namespace dfi {
namespace {

struct DummyState : FlowStateBase {
  explicit DummyState(int v) : value(v) {}
  void Abort(const Status& cause) override {
    aborted = true;
    abort_cause = cause;
  }
  int value;
  bool aborted = false;
  Status abort_cause;
};

TEST(FlowRegistryTest, PublishAndRetrieve) {
  FlowRegistry registry;
  ASSERT_TRUE(registry.Publish("f", std::make_shared<DummyState>(1)).ok());
  auto s = registry.Retrieve("f");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(std::static_pointer_cast<DummyState>(*s)->value, 1);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(FlowRegistryTest, DuplicateNameRejected) {
  FlowRegistry registry;
  ASSERT_TRUE(registry.Publish("f", std::make_shared<DummyState>(1)).ok());
  EXPECT_EQ(registry.Publish("f", std::make_shared<DummyState>(2)).code(),
            StatusCode::kAlreadyExists);
}

TEST(FlowRegistryTest, MissingFlowNotFound) {
  FlowRegistry registry;
  EXPECT_EQ(registry.Retrieve("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Remove("nope").code(), StatusCode::kNotFound);
}

TEST(FlowRegistryTest, RemoveFreesName) {
  FlowRegistry registry;
  ASSERT_TRUE(registry.Publish("f", std::make_shared<DummyState>(1)).ok());
  ASSERT_TRUE(registry.Remove("f").ok());
  EXPECT_TRUE(registry.Publish("f", std::make_shared<DummyState>(2)).ok());
}

TEST(FlowRegistryTest, RetrieveBlockingWaitsForPublish) {
  FlowRegistry registry;
  StatusOr<std::shared_ptr<FlowStateBase>> s = Status::Internal("not run");
  exec::Engine engine;
  engine.Spawn(0, "retriever", [&] {
    s = registry.RetrieveBlocking("late", std::chrono::milliseconds(2000));
  });
  // Runs once the retriever has parked.
  engine.Spawn(1, "publisher", [&] {
    ASSERT_TRUE(registry.Publish("late", std::make_shared<DummyState>(9))
                    .ok());
  });
  engine.Run();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(std::static_pointer_cast<DummyState>(*s)->value, 9);
}

TEST(FlowRegistryTest, LeaseKeepsPublisherAliveUntilExpiry) {
  FlowRegistry registry;
  ASSERT_TRUE(registry
                  .PublishWithLease("f", std::make_shared<DummyState>(1),
                                    /*lease_expiry=*/1000)
                  .ok());
  EXPECT_TRUE(registry.PublisherAlive("f", 999));
  ASSERT_TRUE(registry.RenewLease("f", /*now=*/999, /*new_expiry=*/5000).ok());
  EXPECT_TRUE(registry.PublisherAlive("f", 4999));
  // The lapsed lease fails the flow; the answer is sticky even for earlier
  // probe times afterwards.
  EXPECT_FALSE(registry.PublisherAlive("f", 5000));
  EXPECT_FALSE(registry.PublisherAlive("f", 0));
  EXPECT_EQ(registry.Retrieve("f").status().code(), StatusCode::kPeerFailed);
  EXPECT_EQ(registry.RenewLease("f", /*now=*/5001, /*new_expiry=*/9000).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FlowRegistryTest, MarkExpiredScrubsLapsedLeasesAndAbortsState) {
  FlowRegistry registry;
  auto leased = std::make_shared<DummyState>(1);
  auto unleased = std::make_shared<DummyState>(2);
  ASSERT_TRUE(registry.PublishWithLease("leased", leased, 100).ok());
  ASSERT_TRUE(registry.Publish("unleased", unleased).ok());
  EXPECT_EQ(registry.MarkExpired(99), 0u);
  EXPECT_EQ(registry.MarkExpired(100), 1u);
  EXPECT_EQ(registry.MarkExpired(100), 0u);  // idempotent
  EXPECT_TRUE(leased->aborted);
  EXPECT_EQ(leased->abort_cause.code(), StatusCode::kPeerFailed);
  EXPECT_FALSE(unleased->aborted);
  EXPECT_TRUE(registry.PublisherAlive("unleased", 1 << 30));
}

// Regression (control-plane PR): a heartbeat landing in the same virtual
// tick as the lease scrubber resolves identically in either call order —
// the flow fails, it is never resurrected.
TEST(FlowRegistryTest, RenewVsExpirySameTickIsOrderIndependent) {
  FlowRegistry scrub_first;
  ASSERT_TRUE(scrub_first
                  .PublishWithLease("f", std::make_shared<DummyState>(1), 100)
                  .ok());
  EXPECT_EQ(scrub_first.MarkExpired(100), 1u);
  EXPECT_EQ(scrub_first.RenewLease("f", /*now=*/100, /*new_expiry=*/500)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(scrub_first.Retrieve("f").status().code(),
            StatusCode::kPeerFailed);

  FlowRegistry renew_first;
  ASSERT_TRUE(renew_first
                  .PublishWithLease("f", std::make_shared<DummyState>(1), 100)
                  .ok());
  EXPECT_EQ(renew_first.RenewLease("f", /*now=*/100, /*new_expiry=*/500)
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(renew_first.MarkExpired(100), 0u);  // already failed, not "newly"
  EXPECT_EQ(renew_first.Retrieve("f").status().code(),
            StatusCode::kPeerFailed);
}

// Regression (control-plane PR): a publish/remove pair landing while a
// retriever is blocked hands the removed entry to that retriever instead
// of starving it; retrievers arriving after the Remove wait as usual.
TEST(FlowRegistryTest, RemoveHandsOffToBlockedRetriever) {
  FlowRegistry registry;
  exec::Engine engine;
  VirtualClock retriever_clock;
  StatusOr<std::shared_ptr<FlowStateBase>> got =
      Status::Internal("not run");
  // The retriever runs first (virtual time 0) and parks as a waiter; the
  // publisher then publishes and removes without yielding in between.
  engine.Spawn(0, "retriever", [&] {
    got = registry.RetrieveBlocking("ephemeral",
                                    std::chrono::milliseconds(1000),
                                    &retriever_clock);
  });
  engine.Spawn(1, "publisher", [&] {
    VirtualClock clock;
    clock.AdvanceTo(1'000);
    ASSERT_TRUE(
        registry.Publish("ephemeral", std::make_shared<DummyState>(42)).ok());
    ASSERT_TRUE(registry.Remove("ephemeral").ok());
  });
  engine.Run();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(std::static_pointer_cast<DummyState>(*got)->value, 42);

  // A retriever arriving after the Remove is not entitled to the handoff.
  VirtualClock late_clock;
  exec::Engine late;
  StatusCode late_code = StatusCode::kOk;
  late.Spawn(0, "late", [&] {
    late_code = registry
                    .RetrieveBlocking("ephemeral",
                                      std::chrono::milliseconds(5),
                                      &late_clock)
                    .status()
                    .code();
  });
  late.Run();
  EXPECT_EQ(late_code, StatusCode::kDeadlineExceeded);
}

// Regression: a bounded retrieve that never sees the flow published
// reports the caller's elapsed deadline, not a transient kUnavailable. The
// deadline is virtual time — an idle fleet jumps straight to it and the
// waiter's clock is charged exactly the timeout.
TEST(FlowRegistryTest, RetrieveBlockingTimesOutWithVirtualDeadline) {
  FlowRegistry registry;
  exec::Engine engine;
  VirtualClock clock;
  StatusCode code = StatusCode::kOk;
  engine.Spawn(0, "r", [&] {
    code = registry
               .RetrieveBlocking("never", std::chrono::milliseconds(5),
                                 &clock)
               .status()
               .code();
  });
  engine.Run();
  EXPECT_EQ(code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(clock.now(), 5'000'000);
}

TEST(FlowRegistryTest, MarkFailedAbortsStateAndPoisonsRetrieve) {
  FlowRegistry registry;
  auto state = std::make_shared<DummyState>(7);
  ASSERT_TRUE(registry.Publish("f", state).ok());
  const Status cause = Status::PeerFailed("node 3 crashed");
  ASSERT_TRUE(registry.MarkFailed("f", cause).ok());
  EXPECT_TRUE(state->aborted);
  auto r = registry.Retrieve("f");
  EXPECT_EQ(r.status().code(), StatusCode::kPeerFailed);
  EXPECT_FALSE(registry.PublisherAlive("f", 0));
  // A failed flow also fails blocking retrieves immediately (it is
  // published, just dead).
  auto rb = registry.RetrieveBlocking("f", std::chrono::milliseconds(1000));
  EXPECT_EQ(rb.status().code(), StatusCode::kPeerFailed);
  EXPECT_EQ(registry.MarkFailed("nope", cause).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dfi
