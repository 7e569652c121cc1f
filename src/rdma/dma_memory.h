#ifndef DFI_RDMA_DMA_MEMORY_H_
#define DFI_RDMA_DMA_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <cstring>

namespace dfi::rdma {

/// Emulates the DMA semantics DFI's buffer design relies on (paper section
/// 5.2): the remote NIC writes a message into memory in *increasing address
/// order*, so metadata placed after the payload ("footer") is only visible
/// once the payload is fully written.
///
/// In the emulation this is realized with a release/acquire protocol on the
/// final byte of every DMA: the payload is copied with plain stores, then
/// the last byte is stored atomically with release order. A reader that
/// polls memory for a state change must read the flag byte with
/// LoadDmaFlag() (acquire load) before touching the payload; this pairs
/// with the writer's release store and establishes the same guarantee the
/// NIC gives on real hardware. (Ordered accesses rather than standalone
/// fences: ThreadSanitizer does not model fences.)
inline void DmaCopy(void* dst, const void* src, size_t len) {
  if (len == 0) return;
  auto* d = static_cast<uint8_t*>(dst);
  const auto* s = static_cast<const uint8_t*>(src);
  if (len > 1) {
    std::memcpy(d, s, len - 1);
  }
  std::atomic_ref<uint8_t>(d[len - 1]).store(s[len - 1],
                                             std::memory_order_release);
}

/// Publishes a single flag byte after all prior plain stores (used by
/// targets to flip a local footer back to writable).
inline void StoreDmaFlag(uint8_t* addr, uint8_t value) {
  std::atomic_ref<uint8_t>(*addr).store(value, std::memory_order_release);
}

/// Reads a flag byte published by DmaCopy/StoreDmaFlag. All memory written
/// before the flag is visible after this returns.
inline uint8_t LoadDmaFlag(const uint8_t* addr) {
  return std::atomic_ref<const uint8_t>(*addr).load(
      std::memory_order_acquire);
}

}  // namespace dfi::rdma

#endif  // DFI_RDMA_DMA_MEMORY_H_
