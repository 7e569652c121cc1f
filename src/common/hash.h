#ifndef DFI_COMMON_HASH_H_
#define DFI_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace dfi {

/// 64-bit finalizer-quality integer hash (MurmurHash3 fmix64). This is the
/// default key-based shuffle partitioner in DFI (paper section 3.2: "as
/// default a simple key-based hash function is used").
constexpr uint64_t HashU64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// Hashes an arbitrary byte range (FNV-1a, 64-bit). Used for non-integer
/// shuffle keys.
uint64_t HashBytes(const void* data, size_t len);

/// Extracts `bits` radix bits from a key after hashing, starting at bit
/// `shift` — the partition function of the radix hash join.
constexpr uint32_t RadixBits(uint64_t key, uint32_t shift, uint32_t bits) {
  return static_cast<uint32_t>((HashU64(key) >> shift) &
                               ((1ull << bits) - 1));
}

/// Exact division/modulo of 64-bit values by a runtime-invariant 32-bit
/// divisor (Granlund & Montgomery, "Division by Invariant Integers using
/// Multiplication", figure 4.1). Routing computes `hash % num_targets` per
/// tuple; precomputing the magic replaces the ~25-cycle hardware divide
/// with two multiplies, with bit-identical results.
class FastDivisor {
 public:
  FastDivisor() : FastDivisor(1) {}
  explicit FastDivisor(uint32_t d) : d_(d) {
    if ((d & (d - 1)) == 0) {
      // Powers of two (including 1) divide with a plain shift and take
      // remainders with a mask.
      magic_ = 0;
      shift_ = static_cast<uint32_t>(std::countr_zero(d));
      mask_ = d - 1;
      return;
    }
    // l = ceil(log2(d)); the 65-bit magic 2^64 + magic_ with implied top
    // bit, recovered by the add-and-halve in Div().
    const uint32_t l = 64u - static_cast<uint32_t>(std::countl_zero(
                                 static_cast<uint64_t>(d)));
    magic_ = static_cast<uint64_t>(
                 (static_cast<unsigned __int128>((1ull << l) - d) << 64) /
                 d) +
             1;
    shift_ = l - 1;
  }

  uint64_t Div(uint64_t n) const {
    if (magic_ == 0) return n >> shift_;
    const uint64_t t = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(magic_) * n) >> 64);
    return (t + ((n - t) >> 1)) >> shift_;
  }
  uint64_t Mod(uint64_t n) const {
    if (magic_ == 0) return n & mask_;
    return n - Div(n) * d_;
  }

 private:
  uint32_t d_;
  uint64_t magic_;  // 0 marks the power-of-two shift/mask path
  uint32_t shift_;
  uint64_t mask_ = 0;  // d - 1 for powers of two, unused otherwise
};

}  // namespace dfi

#endif  // DFI_COMMON_HASH_H_
