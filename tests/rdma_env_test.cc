#include "rdma/rdma_env.h"

#include <gtest/gtest.h>

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

TEST_F(RdmaEnvTest, AllocateRegionIsZeroedAndAccounted) {
  RdmaContext* ctx = env_.context(nodes_[0]);
  MemoryRegion* mr = ctx->AllocateRegion(1024);
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->length(), 1024u);
  for (size_t i = 0; i < 1024; ++i) {
    EXPECT_EQ(mr->addr()[i], 0);
  }
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
}

TEST_F(RdmaEnvTest, ResolveRemoteBoundsChecked) {
  RdmaContext* ctx = env_.context(nodes_[0]);
  MemoryRegion* mr = ctx->AllocateRegion(128);
  auto ok = env_.ResolveRemote(mr->RefAt(64), 64);
  EXPECT_TRUE(ok.ok());
  auto bad = env_.ResolveRemote(mr->RefAt(64), 65);
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace dfi::rdma
