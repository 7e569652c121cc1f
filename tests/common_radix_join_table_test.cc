#include "common/radix_join_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

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
  // Random keys, each 1-3 times, plus 0 and 2^64-1; probes hit every key
  // and miss as often, in one call longer than a probe batch.
  Xorshift128Plus rng(5);
  std::vector<uint64_t> build = {0, ~uint64_t{0}, ~uint64_t{0}};
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = rng.Next();
    for (uint64_t copy = 0; copy <= key % 3; ++copy) build.push_back(key);
  }
  std::unordered_map<uint64_t, uint64_t> multiplicity;
  for (uint64_t key : build) ++multiplicity[key];
  std::vector<uint64_t> probe;
  uint64_t expected = 0;
  for (const auto& [key, count] : multiplicity) {
    probe.push_back(key ^ 0x5555);
    probe.push_back(key);
    expected += count;
    if (multiplicity.count(key ^ 0x5555) != 0) {
      expected += multiplicity.at(key ^ 0x5555);
    }
  }
  for (const uint32_t bits : {0u, 1u, 6u, 12u, kMaxLocalRadixBits}) {
    RadixJoinTable table(bits);
    for (uint64_t key : build) table.Add(key);
    EXPECT_EQ(table.Build(), build.size()) << "bits " << bits;
    EXPECT_EQ(table.Matches(probe.size(), [&](size_t i) { return probe[i]; }),
              expected)
        << "bits " << bits;
  }
}

TEST(RadixJoinTableTest, EmptyBuildMatchesNothing) {
  RadixJoinTable table(6);
  EXPECT_EQ(table.Build(), 0u);
  const uint64_t keys[] = {0, 1, ~uint64_t{0}};
  EXPECT_EQ(table.Matches(3, [&](size_t i) { return keys[i]; }), 0u);
  EXPECT_EQ(table.Matches(0, [&](size_t i) { return keys[i]; }), 0u);
}

}  // namespace
}  // namespace dfi
