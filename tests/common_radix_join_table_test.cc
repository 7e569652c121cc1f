#include "common/radix_join_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace dfi {
namespace {

TEST(LocalBucketTest, TakesHashBitsFrom32Up) {
  const uint64_t hash = 0x0123456789abcdefull;
  EXPECT_EQ(LocalBucket(hash, 0), 0u);
  EXPECT_EQ(LocalBucket(hash, 4), 0x7u);
  EXPECT_EQ(LocalBucket(hash, 16), 0x4567u);
  // The low 32 bits (the network partition's) play no part.
  EXPECT_EQ(LocalBucket(hash ^ 0xffffffffull, 16), 0x4567u);
}

TEST(RadixJoinTableTest, MatchesCountMultiplicitiesAtEveryWidth) {
  for (const uint32_t bits : {0u, 1u, 6u, 12u, kMaxLocalRadixBits}) {
    // Random keys, each built 1-3 times, plus 0 and 2^64-1. From 2 bits
    // on, a key's partition class (its LocalBucket mod 4) decides its
    // sides: classes 0 and 1 are built and probed, class 2 only built and
    // class 3 only probed. Each probe of a class 0 or 1 key comes with a
    // probe of a near key of class 0 or 1 that was never built.
    auto partition_class = [bits](uint64_t key) {
      return bits < 2 ? 0 : LocalBucket(HashU64(key), bits) % 4;
    };
    Xorshift128Plus rng(5 + bits);
    std::vector<uint64_t> build = {0, ~uint64_t{0}, ~uint64_t{0}};
    std::vector<uint64_t> probe = {0, ~uint64_t{0}};
    for (int i = 0; i < 3000; ++i) {
      const uint64_t key = rng.Next();
      const uint32_t c = partition_class(key);
      if (c != 3) {
        for (uint64_t copy = 0; copy <= key % 3; ++copy) build.push_back(key);
      }
      if (c == 2) continue;
      probe.push_back(key);
      if (c == 3) continue;
      for (uint64_t miss = key + 1;; ++miss) {
        if (partition_class(miss) < 2) {
          probe.push_back(miss);
          break;
        }
      }
    }
    std::unordered_map<uint64_t, uint64_t> multiplicity;
    for (uint64_t key : build) ++multiplicity[key];
    uint64_t expected = 0;
    for (uint64_t key : probe) {
      if (multiplicity.count(key) != 0) expected += multiplicity.at(key);
    }
    if (bits >= 2) {
      // The table meets partitions with keys of both sides, with build
      // keys only and with probe keys only.
      std::unordered_map<uint32_t, uint32_t> sides;
      for (uint64_t key : build) sides[LocalBucket(HashU64(key), bits)] |= 1;
      for (uint64_t key : probe) sides[LocalBucket(HashU64(key), bits)] |= 2;
      uint32_t seen[4] = {};
      for (const auto& [partition, mask] : sides) ++seen[mask];
      EXPECT_GT(seen[1], 0u) << "bits " << bits;
      EXPECT_GT(seen[2], 0u) << "bits " << bits;
      EXPECT_GT(seen[3], 0u) << "bits " << bits;
    }

    // All build keys first, as the joins add them.
    RadixJoinTable table(bits);
    for (uint64_t key : build) table.AddBuild(key);
    for (uint64_t key : probe) table.AddProbe(key);
    EXPECT_EQ(table.Matches(), expected) << "bits " << bits;

    // Probe keys added before the last build key count the same.
    RadixJoinTable interleaved(bits);
    for (size_t i = 0; i < std::max(build.size(), probe.size()); ++i) {
      if (i < probe.size()) interleaved.AddProbe(probe[i]);
      if (i < build.size()) interleaved.AddBuild(build[i]);
    }
    EXPECT_EQ(interleaved.Matches(), expected) << "bits " << bits;
  }
}

TEST(RadixJoinTableTest, EmptyBuildMatchesNothing) {
  RadixJoinTable table(6);
  EXPECT_EQ(table.Matches(), 0u);
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    table.AddProbe(key);
  }
  EXPECT_EQ(table.Matches(), 0u);
}

TEST(RadixJoinTableTest, MatchesConsumesTheKeysAddedSoFar) {
  // A second Matches with no key added in between returns 0; keys added
  // after a Matches join only with each other.
  for (const uint32_t bits : {0u, 6u}) {
    RadixJoinTable table(bits);
    for (uint64_t key : {1u, 1u, 2u, 3u}) table.AddBuild(key);
    for (uint64_t key : {1u, 2u, 4u}) table.AddProbe(key);
    EXPECT_EQ(table.Matches(), 3u) << "bits " << bits;
    EXPECT_EQ(table.Matches(), 0u) << "bits " << bits;
    table.AddProbe(3);
    EXPECT_EQ(table.Matches(), 0u) << "bits " << bits;
    table.AddBuild(3);
    table.AddProbe(3);
    table.AddProbe(3);
    EXPECT_EQ(table.Matches(), 2u) << "bits " << bits;
  }
}

}  // namespace
}  // namespace dfi
