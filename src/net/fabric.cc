#include "net/fabric.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dfi::net {

Node::Node(NodeId id, std::string address, const SimConfig& config,
           const FaultPlan* fault_plan)
    : id_(id),
      address_(std::move(address)),
      egress_("egress:" + address_, config.LinkBytesPerNs(), fault_plan, id),
      ingress_("ingress:" + address_, config.LinkBytesPerNs(), fault_plan,
               id) {}

Switch::Switch(const SimConfig& config) : config_(config) {}

MulticastGroupId Switch::CreateGroup() {
  const MulticastGroupId id = static_cast<MulticastGroupId>(groups_.size());
  Group g;
  g.resource = std::make_unique<LinkScheduler>(
      "mcgroup:" + std::to_string(id), config_.MulticastGroupBytesPerNs());
  groups_.push_back(std::move(g));
  return id;
}

Status Switch::JoinGroup(MulticastGroupId group, NodeId node) {
  if (group >= groups_.size()) {
    return Status::NotFound("multicast group " + std::to_string(group));
  }
  for (NodeId m : groups_[group].members) {
    if (m == node) return Status::OK();  // idempotent join
  }
  groups_[group].members.push_back(node);
  return Status::OK();
}

std::vector<NodeId> Switch::GroupMembers(MulticastGroupId group) const {
  DFI_CHECK_LT(group, groups_.size());
  return groups_[group].members;
}

TransferWindow Switch::ReserveGroup(MulticastGroupId group, SimTime ready,
                                    uint64_t bytes) {
  DFI_CHECK_LT(group, groups_.size());
  return groups_[group].resource->Reserve(ready, bytes);
}

bool Switch::ShouldDropDelivery(uint64_t key, NodeId target,
                                SimTime at) const {
  double p = config_.multicast_loss_probability;
  if (fault_plan_ != nullptr) p += fault_plan_->LossBoost(at);
  if (p <= 0.0) return false;
  p = std::min(p, 1.0);
  const uint64_t h = SplitMix64(config_.loss_seed ^ SplitMix64(key) ^
                                (static_cast<uint64_t>(target) << 32));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

bool Switch::ShouldReorderDelivery(uint64_t key, NodeId target) const {
  const double p = config_.multicast_reorder_probability;
  if (p <= 0.0) return false;
  // Distinct stream from the drop decision (different seed constant).
  const uint64_t h =
      SplitMix64((config_.loss_seed ^ 0x7e07de7ull) ^ SplitMix64(key) ^
                 (static_cast<uint64_t>(target) << 32));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < std::min(p, 1.0);
}

Fabric::Fabric(SimConfig config)
    : config_(config), fault_plan_(config_.loss_seed), switch_(config_) {
  switch_.set_fault_plan(&fault_plan_);
}

StatusOr<NodeId> Fabric::AddNode(const std::string& address) {
  if (by_address_.count(address) != 0) {
    return Status::AlreadyExists("node address " + address);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<Node>(id, address, config_, &fault_plan_));
  by_address_[address] = id;
  return id;
}

std::vector<NodeId> Fabric::AddNodes(size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto id = AddNode("10.0.0." + std::to_string(node_count() + 1));
    DFI_CHECK(id.ok()) << id.status();
    ids.push_back(*id);
  }
  return ids;
}

Node& Fabric::node(NodeId id) {
  DFI_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

const Node& Fabric::node(NodeId id) const {
  DFI_CHECK_LT(id, nodes_.size());
  return *nodes_[id];
}

StatusOr<NodeId> Fabric::ResolveAddress(const std::string& address) const {
  auto it = by_address_.find(address);
  if (it == by_address_.end()) {
    return Status::NotFound("node address " + address);
  }
  return it->second;
}

size_t Fabric::node_count() const { return nodes_.size(); }

}  // namespace dfi::net
