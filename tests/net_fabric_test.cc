#include "net/fabric.h"

#include <gtest/gtest.h>

namespace dfi::net {
namespace {

TEST(FabricTest, AddAndResolveNodes) {
  Fabric fabric;
  auto a = fabric.AddNode("192.168.0.1");
  ASSERT_TRUE(a.ok());
  auto b = fabric.AddNode("192.168.0.2");
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(fabric.node_count(), 2u);

  auto r = fabric.ResolveAddress("192.168.0.2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *b);
  EXPECT_EQ(fabric.node(*a).address(), "192.168.0.1");
}

TEST(FabricTest, DuplicateAddressRejected) {
  Fabric fabric;
  ASSERT_TRUE(fabric.AddNode("n1").ok());
  EXPECT_EQ(fabric.AddNode("n1").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(FabricTest, UnknownAddressNotFound) {
  Fabric fabric;
  EXPECT_EQ(fabric.ResolveAddress("missing").status().code(),
            StatusCode::kNotFound);
}

TEST(FabricTest, AddNodesConvenience) {
  Fabric fabric;
  auto ids = fabric.AddNodes(4);
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(fabric.node_count(), 4u);
}

TEST(FabricTest, LinkCapacityFromConfig) {
  SimConfig cfg;
  cfg.link_gbps = 80.0;
  Fabric fabric(cfg);
  auto id = fabric.AddNode("n");
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(fabric.node(*id).egress().bytes_per_ns(), 10.0);
  EXPECT_DOUBLE_EQ(fabric.node(*id).ingress().bytes_per_ns(), 10.0);
}

TEST(FabricTest, FaultPlanDegradesOnlyThatNodesLinks) {
  Fabric fabric;  // 100 Gbps links: 1250 B take 100 ns
  const std::vector<NodeId> ids = fabric.AddNodes(2);
  fabric.fault_plan().DegradeLink(ids[0], 1000, 10.0);
  fabric.fault_plan().RestoreLink(ids[0], 5000);
  Node& slow = fabric.node(ids[0]);
  TransferWindow w = slow.egress().Reserve(0, 1250);
  EXPECT_EQ(w.end - w.start, 100) << "before the degrade";
  w = slow.egress().Reserve(2000, 1250);
  EXPECT_EQ(w.end - w.start, 1000) << "a tenth of the rate";
  w = slow.ingress().Reserve(2000, 1250);
  EXPECT_EQ(w.end - w.start, 1000) << "both directions";
  w = fabric.node(ids[1]).egress().Reserve(2000, 1250);
  EXPECT_EQ(w.end - w.start, 100) << "another node";
  w = slow.egress().Reserve(6000, 1250);
  EXPECT_EQ(w.end - w.start, 100) << "restored";
}

TEST(FabricTest, RegisteredByteAccounting) {
  Fabric fabric;
  auto id = fabric.AddNode("n");
  ASSERT_TRUE(id.ok());
  Node& node = fabric.node(*id);
  EXPECT_EQ(node.registered_bytes(), 0u);
  node.AddRegisteredBytes(4096);
  EXPECT_EQ(node.registered_bytes(), 4096u);
  node.SubRegisteredBytes(4096);
  EXPECT_EQ(node.registered_bytes(), 0u);
}

TEST(SwitchTest, MulticastGroups) {
  Fabric fabric;
  auto ids = fabric.AddNodes(3);
  Switch& sw = fabric.network_switch();
  MulticastGroupId g = sw.CreateGroup();
  EXPECT_TRUE(sw.JoinGroup(g, ids[0]).ok());
  EXPECT_TRUE(sw.JoinGroup(g, ids[1]).ok());
  EXPECT_TRUE(sw.JoinGroup(g, ids[1]).ok()) << "idempotent join";
  auto members = sw.GroupMembers(g);
  EXPECT_EQ(members.size(), 2u);
  EXPECT_EQ(sw.JoinGroup(99, ids[0]).code(), StatusCode::kNotFound);
}

TEST(SwitchTest, GroupResourceSerializes) {
  SimConfig cfg;
  cfg.multicast_group_gbps = 8.0;  // 1 B/ns
  Fabric fabric(cfg);
  Switch& sw = fabric.network_switch();
  MulticastGroupId g = sw.CreateGroup();
  TransferWindow a = sw.ReserveGroup(g, 0, 100);
  TransferWindow b = sw.ReserveGroup(g, 0, 100);
  EXPECT_EQ(a.end, 100);
  EXPECT_EQ(b.start, 100);
}

TEST(SwitchTest, LossInjectionRate) {
  SimConfig cfg;
  cfg.multicast_loss_probability = 0.1;
  Fabric fabric(cfg);
  Switch& sw = fabric.network_switch();
  int drops = 0;
  for (uint64_t key = 0; key < 10000; ++key) {
    if (sw.ShouldDropDelivery(key, /*target=*/1, /*at=*/0)) ++drops;
  }
  EXPECT_NEAR(drops, 1000, 150);
}

TEST(SwitchTest, LossInjectionDeterministic) {
  SimConfig cfg;
  cfg.multicast_loss_probability = 0.1;
  Fabric a(cfg);
  Fabric b(cfg);
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.network_switch().ShouldDropDelivery(key, 1, 0),
              b.network_switch().ShouldDropDelivery(key, 1, 0));
  }
}

TEST(SwitchTest, NoLossByDefault) {
  Fabric fabric;
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_FALSE(fabric.network_switch().ShouldDropDelivery(key, 1, 0));
  }
}

TEST(NodeTest, SubRegisteredBytesClampsAtZero) {
  Fabric fabric;
  NodeId id = *fabric.AddNode("n0");
  Node& n = fabric.node(id);
  n.AddRegisteredBytes(100);
  n.SubRegisteredBytes(60);
  EXPECT_EQ(n.registered_bytes(), 40u);
#ifdef NDEBUG
  // Release builds clamp instead of wrapping (debug builds assert).
  n.SubRegisteredBytes(1000);
  EXPECT_EQ(n.registered_bytes(), 0u);
#endif
}

}  // namespace
}  // namespace dfi::net
