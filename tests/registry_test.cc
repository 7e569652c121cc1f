#include "registry/flow_registry.h"

#include <gtest/gtest.h>

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

TEST(FlowRegistryTest, LeaseKeepsFlowAliveUntilExpiry) {
  FlowRegistry registry;
  auto state = std::make_shared<DummyState>(1);
  ASSERT_TRUE(registry.PublishWithLease("f", state, /*lease_expiry=*/1000)
                  .ok());
  EXPECT_EQ(registry.MarkExpired(999), 0u);
  ASSERT_TRUE(registry.RenewLease("f", /*now=*/999, /*new_expiry=*/5000).ok());
  // The renewal moved the expiry: the old one no longer fails the flow.
  EXPECT_EQ(registry.MarkExpired(4999), 0u);
  EXPECT_TRUE(registry.Retrieve("f").ok());
  EXPECT_FALSE(state->aborted);
  // The lapsed lease fails the flow, and the failure is sticky.
  EXPECT_EQ(registry.MarkExpired(5000), 1u);
  EXPECT_TRUE(state->aborted);
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
  EXPECT_EQ(registry.MarkExpired(1 << 30), 0u);
  EXPECT_TRUE(registry.Retrieve("unleased").ok());
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

TEST(FlowRegistryTest, MarkFailedAbortsStateAndPoisonsRetrieve) {
  FlowRegistry registry;
  auto state = std::make_shared<DummyState>(7);
  ASSERT_TRUE(registry.Publish("f", state).ok());
  const Status cause = Status::PeerFailed("node 3 crashed");
  ASSERT_TRUE(registry.MarkFailed("f", cause).ok());
  EXPECT_TRUE(state->aborted);
  auto r = registry.Retrieve("f");
  EXPECT_EQ(r.status().code(), StatusCode::kPeerFailed);
  EXPECT_EQ(registry.MarkFailed("nope", cause).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dfi
