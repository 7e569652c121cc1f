#include "rdma/rdma_env.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "rdma/queue_pair.h"
#include "rdma/ud_queue_pair.h"

namespace dfi::rdma {

RdmaEnv::RdmaEnv(net::Fabric* fabric) : fabric_(fabric) {
  DFI_CHECK(fabric != nullptr);
}

RdmaEnv::~RdmaEnv() {
  // The contexts go first: their regions and UD queue pairs deregister
  // from the directories below, which must still be alive.
  contexts_.clear();
}

RdmaContext* RdmaEnv::context(net::NodeId node) {
  auto it = contexts_.find(node);
  if (it != contexts_.end()) return it->second.get();
  auto ctx = std::make_unique<RdmaContext>(this, node);
  RdmaContext* raw = ctx.get();
  contexts_.emplace(node, std::move(ctx));
  return raw;
}

uint32_t RdmaEnv::RegisterMr(uint8_t* base, size_t length, net::NodeId node) {
  const auto rkey = static_cast<uint32_t>(mrs_.size());
  mrs_.push_back(MrInfo{base, length, node});
  return rkey;
}

void RdmaEnv::DeregisterMr(uint32_t rkey) {
  if (rkey < mrs_.size()) mrs_[rkey] = MrInfo{};
}

StatusOr<MrInfo> RdmaEnv::ResolveMr(uint32_t rkey) const {
  if (rkey >= mrs_.size() || mrs_[rkey].node == net::kInvalidNode) {
    return Status::NotFound("rkey " + std::to_string(rkey));
  }
  return mrs_[rkey];
}

StatusOr<uint8_t*> RdmaEnv::ResolveRemote(const RemoteRef& ref,
                                          uint32_t length) const {
  DFI_ASSIGN_OR_RETURN(MrInfo info, ResolveMr(ref.rkey));
  // Compared without computing `offset + length`, which wraps for an
  // offset near 2^64 and would pass a pointer outside the region.
  if (ref.offset > info.length || length > info.length - ref.offset) {
    return Status::OutOfRange(
        "remote access of " + std::to_string(length) + " bytes at offset " +
        std::to_string(ref.offset) + " exceeds MR of " +
        std::to_string(info.length) + " bytes");
  }
  return info.base + ref.offset;
}

uint32_t RdmaEnv::RegisterUdQp(UdQueuePair* qp) {
  const uint32_t qpn = next_qpn_++;
  ud_qps_[qpn] = qp;
  return qpn;
}

void RdmaEnv::DeregisterUdQp(uint32_t qpn) {
  ud_qps_.erase(qpn);
  for (auto& [group, qps] : group_qps_) {
    std::erase_if(qps, [qpn](UdQueuePair* q) { return q->qpn() == qpn; });
  }
}

UdQueuePair* RdmaEnv::FindUdQp(uint32_t qpn) const {
  auto it = ud_qps_.find(qpn);
  return it == ud_qps_.end() ? nullptr : it->second;
}

void RdmaEnv::AttachToGroup(net::MulticastGroupId group, UdQueuePair* qp) {
  group_qps_[group].push_back(qp);
}

const std::vector<UdQueuePair*>& RdmaEnv::GroupQps(
    net::MulticastGroupId group) const {
  static const std::vector<UdQueuePair*> kNoQps;
  auto it = group_qps_.find(group);
  return it == group_qps_.end() ? kNoQps : it->second;
}

RdmaContext::RdmaContext(RdmaEnv* env, net::NodeId node)
    : env_(env), node_(node) {}

RdmaContext::~RdmaContext() {
  // Deregister rkeys before regions free their memory.
  for (auto& region : regions_) {
    env_->DeregisterMr(region->rkey());
  }
}

net::Node& RdmaContext::node() { return env_->fabric().node(node_); }

MemoryRegion* RdmaContext::AllocateRegion(size_t bytes) {
  // Not value-initialized, as memory handed to ibv_reg_mr is not: no page
  // is touched until its owner writes it.
  auto buffer = std::make_unique_for_overwrite<uint8_t[]>(bytes);
  uint8_t* addr = buffer.get();
  const uint32_t rkey = env_->RegisterMr(addr, bytes, node_);
  auto region = std::unique_ptr<MemoryRegion>(new MemoryRegion(
      addr, bytes, rkey, node_, std::move(buffer), &node()));
  MemoryRegion* raw = region.get();
  regions_.push_back(std::move(region));
  return raw;
}

CompletionQueue* RdmaContext::CreateCq() {
  auto cq = std::make_unique<CompletionQueue>(config().poll_cq_ns);
  CompletionQueue* raw = cq.get();
  cqs_.push_back(std::move(cq));
  return raw;
}

RcQueuePair* RdmaContext::CreateRcQp(net::NodeId remote,
                                     CompletionQueue* send_cq) {
  auto qp = std::make_unique<RcQueuePair>(env_, node_, remote, send_cq);
  RcQueuePair* raw = qp.get();
  rc_qps_.push_back(std::move(qp));
  return raw;
}

UdQueuePair* RdmaContext::CreateUdQp(CompletionQueue* send_cq,
                                     CompletionQueue* recv_cq) {
  auto qp = std::make_unique<UdQueuePair>(env_, node_, send_cq, recv_cq);
  UdQueuePair* raw = qp.get();
  ud_qps_.push_back(std::move(qp));
  return raw;
}

}  // namespace dfi::rdma
