#ifndef DFI_RDMA_MEMORY_REGION_H_
#define DFI_RDMA_MEMORY_REGION_H_

#include <cstdint>
#include <memory>

#include "net/fabric.h"
#include "rdma/verbs_types.h"

namespace dfi::rdma {

/// A registered memory region: memory the emulated NIC may access directly.
/// Identified fabric-wide by its rkey (the directory lives in RdmaEnv).
/// Registration is counted against the owning node's registered-byte
/// accounting (paper section 6.1.4 measures exactly this). Its contents
/// are unspecified until written, as with ibv_reg_mr.
class MemoryRegion {
 public:
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;
  ~MemoryRegion();

  uint8_t* addr() const { return addr_; }
  size_t length() const { return length_; }
  uint32_t rkey() const { return rkey_; }
  net::NodeId node() const { return node_; }

  /// Remote reference to byte `offset` within this region.
  RemoteRef RefAt(uint64_t offset = 0) const { return {rkey_, offset}; }

 private:
  friend class RdmaContext;

  MemoryRegion(uint8_t* addr, size_t length, uint32_t rkey, net::NodeId node,
               std::unique_ptr<uint8_t[]> owned, net::Node* accounting);

  uint8_t* const addr_;
  const size_t length_;
  const uint32_t rkey_;
  const net::NodeId node_;
  std::unique_ptr<uint8_t[]> owned_;
  net::Node* const accounting_;
};

}  // namespace dfi::rdma

#endif  // DFI_RDMA_MEMORY_REGION_H_
