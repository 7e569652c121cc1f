#ifndef DFI_COMMON_RADIX_JOIN_TABLE_H_
#define DFI_COMMON_RADIX_JOIN_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/hash.h"

namespace dfi {

/// Most local radix bits a join may use: 16 partition bits end where the
/// home-slot bits of a 2^16-slot FlatHashMap begin.
inline constexpr uint32_t kMaxLocalRadixBits = 16;

/// The local (second-level) radix partition of a key whose HashU64 is
/// `key_hash`: bits [32, 32 + bits). The network partition (key-hash or
/// radix routing) fixes a join worker's low hash bits and FlatHashMap takes
/// home slots from the top bits, so these bits split both evenly.
constexpr uint32_t LocalBucket(uint64_t key_hash, uint32_t bits) {
  return static_cast<uint32_t>(key_hash >> 32) & ((uint32_t{1} << bits) - 1);
}

/// The build side of a radix join (paper section 4.3.1): key ->
/// multiplicity, split into 2^radix_bits local partitions. Add appends
/// each build key to its partition's key list; Build then gives every
/// partition its own FlatHashMap, sized for its keys so it never rehashes,
/// and frees the keys. A partition's table is cache-sized when the
/// partitions are. Probes look up batches of keys, starting every home-slot
/// load of a batch before the first lookup.
class RadixJoinTable {
 public:
  /// `radix_bits` <= kMaxLocalRadixBits.
  explicit RadixJoinTable(uint32_t radix_bits)
      : bits_(radix_bits),
        keys_(size_t{1} << radix_bits),
        tables_(size_t{1} << radix_bits) {}

  /// Appends a build key to its partition (before Build only).
  void Add(uint64_t key) {
    keys_[LocalBucket(HashU64(key), bits_)].push_back(key);
  }

  /// Ends the build side: fills each partition's table and frees its keys.
  /// Returns the number of build keys.
  uint64_t Build() {
    uint64_t built = 0;
    for (size_t p = 0; p < keys_.size(); ++p) {
      FlatHashMap<uint64_t>& table = tables_[p];
      table.Reserve(keys_[p].size());
      for (uint64_t key : keys_[p]) ++table[key];
      built += keys_[p].size();
      keys_[p] = std::vector<uint64_t>();
    }
    return built;
  }

  /// Sum of the build multiplicities of `n` probe keys, key i being
  /// `key_at(i)`.
  template <typename KeyAt>
  uint64_t Matches(size_t n, KeyAt key_at) const {
    uint64_t matches = 0;
    uint64_t keys[kProbeBatch];
    uint64_t hashes[kProbeBatch];
    for (size_t begin = 0; begin < n; begin += kProbeBatch) {
      const size_t m = std::min(kProbeBatch, n - begin);
      for (size_t i = 0; i < m; ++i) {
        keys[i] = key_at(begin + i);
        hashes[i] = HashU64(keys[i]);
        tables_[LocalBucket(hashes[i], bits_)].Prefetch(hashes[i]);
      }
      for (size_t i = 0; i < m; ++i) {
        const uint64_t* multiplicity =
            tables_[LocalBucket(hashes[i], bits_)].Find(keys[i], hashes[i]);
        if (multiplicity != nullptr) matches += *multiplicity;
      }
    }
    return matches;
  }

 private:
  /// Probe keys whose home slots are in flight at once: a default 8 KiB
  /// segment of 16-byte tuples.
  static constexpr size_t kProbeBatch = 512;

  uint32_t bits_;
  /// Build keys by partition, until Build.
  std::vector<std::vector<uint64_t>> keys_;
  std::vector<FlatHashMap<uint64_t>> tables_;
};

}  // namespace dfi

#endif  // DFI_COMMON_RADIX_JOIN_TABLE_H_
