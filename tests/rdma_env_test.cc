#include "rdma/rdma_env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "rdma/ud_queue_pair.h"

namespace dfi::rdma {
namespace {

class RdmaEnvTest : public ::testing::Test {
 protected:
  RdmaEnvTest() : fabric_(), env_(&fabric_) {
    nodes_ = fabric_.AddNodes(2);
  }
  net::Fabric fabric_;
  RdmaEnv env_;
  std::vector<net::NodeId> nodes_;
};

TEST_F(RdmaEnvTest, ContextPerNodeIsStable) {
  RdmaContext* a = env_.context(nodes_[0]);
  EXPECT_EQ(a, env_.context(nodes_[0]));
  EXPECT_NE(a, env_.context(nodes_[1]));
  EXPECT_EQ(a->node_id(), nodes_[0]);
}

TEST_F(RdmaEnvTest, AllocateRegionIsAccounted) {
  // The contents are unspecified until written, so only the geometry and
  // the registered-byte accounting are checked.
  RdmaContext* ctx = env_.context(nodes_[0]);
  MemoryRegion* mr = ctx->AllocateRegion(1024);
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->length(), 1024u);
  EXPECT_EQ(fabric_.node(nodes_[0]).registered_bytes(), 1024u);
}

TEST_F(RdmaEnvTest, ResolveMr) {
  RdmaContext* ctx = env_.context(nodes_[1]);
  MemoryRegion* mr = ctx->AllocateRegion(256);
  auto info = env_.ResolveMr(mr->rkey());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->base, mr->addr());
  EXPECT_EQ(info->length, 256u);
  EXPECT_EQ(info->node, nodes_[1]);
  EXPECT_EQ(env_.ResolveMr(9999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env_.ResolveMr(0).status().code(), StatusCode::kNotFound);
}

TEST_F(RdmaEnvTest, DeregisteredRkeyIsNotFoundAndNotReused) {
  RdmaContext* ctx = env_.context(nodes_[0]);
  const uint32_t rkey = ctx->AllocateRegion(64)->rkey();
  env_.DeregisterMr(rkey);
  EXPECT_EQ(env_.ResolveMr(rkey).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(env_.ResolveRemote(RemoteRef{rkey, 0}, 8).status().code(),
            StatusCode::kNotFound);
  EXPECT_GT(ctx->AllocateRegion(64)->rkey(), rkey);
}

TEST_F(RdmaEnvTest, ResolveRemoteBoundsChecked) {
  RdmaContext* ctx = env_.context(nodes_[0]);
  MemoryRegion* mr = ctx->AllocateRegion(128);
  auto ok = env_.ResolveRemote(mr->RefAt(64), 64);
  EXPECT_TRUE(ok.ok());
  auto bad = env_.ResolveRemote(mr->RefAt(64), 65);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  // An offset near 2^64 must not wrap around into a pointer before the
  // region.
  auto wrapped = env_.ResolveRemote(mr->RefAt(UINT64_MAX - 7), 16);
  EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange);
}

TEST_F(RdmaEnvTest, TeardownDeregistersIntoLiveDirectories) {
  // Destroying a context deregisters its regions from the rkey directory
  // and its UD queue pairs from the UD and multicast-group directories, so
  // the env must destroy its contexts while those are still alive (ASan
  // reports a use after free otherwise).
  nodes_.push_back(fabric_.AddNodes(1)[0]);
  const net::MulticastGroupId group = fabric_.network_switch().CreateGroup();
  auto env = std::make_unique<RdmaEnv>(&fabric_);
  std::vector<uint32_t> rkeys;
  for (const net::NodeId node : nodes_) {
    RdmaContext* ctx = env->context(node);
    for (const size_t bytes : {64, 4096}) {
      rkeys.push_back(ctx->AllocateRegion(bytes)->rkey());
    }
    UdQueuePair* member = ctx->CreateUdQp(ctx->CreateCq(), ctx->CreateCq());
    ASSERT_TRUE(member->AttachMulticast(group).ok());
    ctx->CreateUdQp(ctx->CreateCq(), ctx->CreateCq());
  }
  EXPECT_EQ(env->GroupQps(group).size(), nodes_.size());
  EXPECT_TRUE(env->GroupQps(fabric_.network_switch().CreateGroup()).empty());
  for (const uint32_t rkey : rkeys) EXPECT_TRUE(env->ResolveMr(rkey).ok());
  env.reset();
  for (const net::NodeId node : nodes_) {
    EXPECT_EQ(fabric_.node(node).registered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace dfi::rdma
