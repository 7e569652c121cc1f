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

/// A radix join (paper section 4.3.1) that counts the equal (build, probe)
/// key pairs of its two inputs. AddBuild and AddProbe append each key, as
/// its segment arrives, to its side's key list in one of 2^radix_bits
/// local partitions. Matches then joins one partition at a time: it fills
/// one FlatHashMap of key -> multiplicity with the partition's build keys,
/// counts its probe keys against it and frees both lists. The map is sized
/// once, for the largest build partition, and emptied between partitions,
/// so it never rehashes and is cache-sized when the partitions are.
class RadixJoinTable {
 public:
  /// `radix_bits` <= kMaxLocalRadixBits.
  explicit RadixJoinTable(uint32_t radix_bits)
      : bits_(radix_bits), partitions_(size_t{1} << radix_bits) {}

  void AddBuild(uint64_t key) { PartitionOf(key).build.push_back(key); }
  void AddProbe(uint64_t key) { PartitionOf(key).probe.push_back(key); }

  /// The number of equal (build, probe) key pairs among the keys added
  /// since construction or the last Matches. Frees those keys, so a second
  /// call with no key added in between returns 0.
  uint64_t Matches() {
    size_t largest = 0;
    for (const Partition& p : partitions_) {
      largest = std::max(largest, p.build.size());
    }
    FlatHashMap<uint64_t> multiplicity;
    multiplicity.Reserve(largest);
    uint64_t matches = 0;
    for (Partition& p : partitions_) {
      if (!p.build.empty() && !p.probe.empty()) {
        for (uint64_t key : p.build) ++multiplicity[key];
        for (uint64_t key : p.probe) {
          const uint64_t* count = multiplicity.Find(key);
          if (count != nullptr) matches += *count;
        }
        multiplicity.Clear();
      }
      p = Partition();
    }
    return matches;
  }

 private:
  struct Partition {
    std::vector<uint64_t> build;
    std::vector<uint64_t> probe;
  };

  Partition& PartitionOf(uint64_t key) {
    return partitions_[LocalBucket(HashU64(key), bits_)];
  }

  uint32_t bits_;
  std::vector<Partition> partitions_;
};

}  // namespace dfi

#endif  // DFI_COMMON_RADIX_JOIN_TABLE_H_
