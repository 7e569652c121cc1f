#include "common/flat_hash_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace dfi {
namespace {

constexpr uint64_t kMaxKey = ~uint64_t{0};

TEST(FlatHashMapTest, InsertAndFind) {
  FlatHashMap<uint64_t> table;
  table.Reserve(100);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(table.TryEmplace(k, k * 10).second);
  }
  EXPECT_EQ(table.size(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    const uint64_t* value = table.Find(k);
    ASSERT_NE(value, nullptr) << "key " << k;
    EXPECT_EQ(*value, k * 10);
  }
  EXPECT_EQ(table.Find(1000), nullptr);
}

TEST(FlatHashMapTest, DuplicateKeysCountMultiplicity) {
  // A join's build side maps each key to its multiplicity.
  FlatHashMap<uint64_t> table;
  table.Reserve(10);
  for (int copy = 0; copy < 3; ++copy) ++table[7];
  ASSERT_NE(table.Find(7), nullptr);
  EXPECT_EQ(*table.Find(7), 3u);
  EXPECT_EQ(table.size(), 1u);
  // A present key keeps its value.
  EXPECT_FALSE(table.TryEmplace(7, 99).second);
  EXPECT_EQ(*table.Find(7), 3u);
}

TEST(FlatHashMapTest, EmptyTableFind) {
  const FlatHashMap<uint64_t> table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(kMaxKey), nullptr);
}

TEST(FlatHashMapTest, GrowsFromEmptyAndFindsEveryKey) {
  // Distinct keys: a block of small keys whose hashes share their low 8
  // bits (the keys one target of a 256-way key-hash or radix flow
  // receives), then random keys with the top bit set.
  constexpr size_t kKeys = (size_t{1} << 17) + 1000;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < kKeys / 2; ++k) {
    if ((HashU64(k) & 0xff) == 0) keys.push_back(k);
  }
  Xorshift128Plus rng(11);
  while (keys.size() < kKeys) keys.push_back(rng.Next() | (uint64_t{1} << 63));

  FlatHashMap<uint64_t> table;
  size_t growths = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t capacity = table.capacity();
    EXPECT_TRUE(table.TryEmplace(keys[i], i).second) << "key " << keys[i];
    if (table.capacity() != capacity) ++growths;
  }
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_GE(growths, 10u);
  EXPECT_GE(table.capacity() / 4 * 3, table.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t* value = table.Find(keys[i]);
    ASSERT_NE(value, nullptr) << "key " << keys[i];
    EXPECT_EQ(*value, i) << "key " << keys[i];
  }
}

TEST(FlatHashMapTest, StoresKeyZeroAndMaxKey) {
  FlatHashMap<uint64_t> table;
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(kMaxKey), nullptr);
  EXPECT_TRUE(table.TryEmplace(kMaxKey, 5).second);
  EXPECT_EQ(table.Find(0), nullptr);
  ++table[0];
  ++table[0];
  ++table[kMaxKey];
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_EQ(*table.Find(0), 2u);
  ASSERT_NE(table.Find(kMaxKey), nullptr);
  EXPECT_EQ(*table.Find(kMaxKey), 6u);
  EXPECT_FALSE(table.TryEmplace(kMaxKey, 1).second);
  // Both survive growth around them.
  for (uint64_t k = 1; k <= 1000; ++k) table[k] = k;
  EXPECT_EQ(table.size(), 1002u);
  EXPECT_EQ(*table.Find(0), 2u);
  EXPECT_EQ(*table.Find(kMaxKey), 6u);
  // Clear drops both and every array key, and keeps the array.
  const size_t capacity = table.capacity();
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{1000}, kMaxKey}) {
    EXPECT_EQ(table.Find(k), nullptr) << "key " << k;
  }
  // Both are stored afresh.
  EXPECT_TRUE(table.TryEmplace(kMaxKey, 7).second);
  ++table[0];
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(*table.Find(kMaxKey), 7u);
  EXPECT_EQ(*table.Find(0), 1u);
}

TEST(FlatHashMapTest, FindAbsentKey) {
  FlatHashMap<uint64_t> table;
  for (uint64_t k = 0; k < 5000; k += 2) table[k] = k;
  for (uint64_t k = 1; k < 5000; k += 2) {
    EXPECT_EQ(table.Find(k), nullptr) << "key " << k;
  }
  EXPECT_EQ(table.Find(kMaxKey), nullptr);
  EXPECT_EQ(table.size(), 2500u);
}

TEST(FlatHashMapTest, FindWithHashMatchesFind) {
  FlatHashMap<uint64_t> table;
  for (uint64_t k : {uint64_t{0}, HashU64(3)}) {
    table.Prefetch(HashU64(k));  // no array yet: a no-op
    EXPECT_EQ(table.Find(k, HashU64(k)), nullptr);
  }
  for (uint64_t k = 0; k < 1000; ++k) table[k * 7] = k;
  table[kMaxKey] = 42;
  for (uint64_t k : {uint64_t{0}, uint64_t{7}, uint64_t{8}, uint64_t{6993},
                     kMaxKey}) {
    table.Prefetch(HashU64(k));
    EXPECT_EQ(table.Find(k, HashU64(k)), table.Find(k)) << "key " << k;
  }
}

TEST(FlatHashMapTest, ReserveThenInsertDoesNotGrow) {
  for (size_t n : {1, 12, 13, 1000, 1 << 17}) {
    FlatHashMap<uint64_t> table;
    table.Reserve(n);
    const size_t capacity = table.capacity();
    ASSERT_GT(capacity, 0u);
    for (uint64_t k = 0; k < n; ++k) table[HashU64(k)] = k;
    EXPECT_EQ(table.size(), n);
    EXPECT_EQ(table.capacity(), capacity) << "n = " << n;
    // Reserving no more than is stored keeps the array.
    table.Reserve(n);
    EXPECT_EQ(table.capacity(), capacity) << "n = " << n;
    // A cleared map takes n other keys in the same array and answers like
    // a fresh map holding only those.
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), capacity) << "n = " << n;
    FlatHashMap<uint64_t> fresh;
    for (uint64_t k = n; k < 2 * n; ++k) {
      table[HashU64(k)] = k;
      fresh[HashU64(k)] = k;
    }
    EXPECT_EQ(table.size(), n);
    EXPECT_EQ(table.capacity(), capacity) << "n = " << n;
    for (uint64_t k = 0; k < 2 * n; ++k) {
      const uint64_t* value = table.Find(HashU64(k));
      const uint64_t* expected = fresh.Find(HashU64(k));
      ASSERT_EQ(value == nullptr, expected == nullptr) << "key " << k;
      if (value != nullptr) {
        EXPECT_EQ(*value, *expected) << "key " << k;
      }
    }
  }
}

}  // namespace
}  // namespace dfi
