#ifndef DFI_COMMON_FLAT_HASH_MAP_H_
#define DFI_COMMON_FLAT_HASH_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace dfi {

/// Open-addressing hash map from uint64_t keys to small trivially copyable
/// values: the hash table of the join operators (key -> multiplicity) and
/// of the combiner's Aggregator (group key -> group index).
///
/// Linear probing over one power-of-two array of {key, value} slots (16
/// bytes for an 8-byte value) that doubles past 3/4 load; no per-entry
/// allocation and no erase, but Clear empties the map and keeps its array.
/// Every uint64_t key is storable: 2^64-1 marks an empty slot, so that one
/// key keeps its entry beside the array.
///
/// A key's home slot comes from the *top* bits of HashU64(key): key-hash
/// and radix routing partition on its low bits, so all keys of one flow
/// partition share those.
///
/// Find and TryEmplace return pointers that the next insert invalidates.
/// Batched inserts hash their keys once, Prefetch every home slot, then
/// TryEmplace with the hash.
template <typename V>
class FlatHashMap {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  /// Sizes the table so that `n` keys fit without growing.
  void Reserve(size_t n) {
    if (n <= max_load_) return;
    size_t capacity = kMinCapacity;
    while (capacity / 4 * 3 < n) capacity <<= 1;
    Rehash(capacity);
  }

  /// The value stored for `key`, or null.
  const V* Find(uint64_t key) const { return Find(key, HashU64(key)); }

  /// Find for a key whose HashU64 is `hash`.
  const V* Find(uint64_t key, uint64_t hash) const {
    if (key == kEmptyKey) return has_empty_key_ ? &empty_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[Probe(key, hash)];
    return slot.key == key ? &slot.value : nullptr;
  }

  /// Starts loading the home slot of a key whose HashU64 is `hash`.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash >> shift_]);
  }

  /// Inserts `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> TryEmplace(uint64_t key, V value) {
    return TryEmplace(key, HashU64(key), value);
  }

  /// TryEmplace for a key whose HashU64 is `hash`.
  std::pair<V*, bool> TryEmplace(uint64_t key, uint64_t hash, V value) {
    if (key == kEmptyKey) {
      const bool inserted = !has_empty_key_;
      if (inserted) empty_key_value_ = value;
      has_empty_key_ = true;
      return {&empty_key_value_, inserted};
    }
    if (used_ >= max_load_ && Find(key, hash) == nullptr) {
      Rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    Slot& slot = slots_[Probe(key, hash)];
    if (slot.key == key) return {&slot.value, false};
    slot = Slot{key, value};
    ++used_;
    return {&slot.value, true};
  }

  /// The value of `key`, value-initialized on first use.
  V& operator[](uint64_t key) { return *TryEmplace(key, V{}).first; }

  /// Removes every key. The array keeps its size, so the map takes as many
  /// keys as before without growing.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{kEmptyKey, V{}});
    used_ = 0;
    has_empty_key_ = false;
  }

  size_t size() const { return used_ + (has_empty_key_ ? 1 : 0); }
  /// Slots in the array; 0 until the first insert or Reserve.
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t key;
    V value;
  };

  /// The slot holding `key` (whose HashU64 is `hash`), or the empty slot
  /// ending its probe sequence (the table is never full).
  size_t Probe(uint64_t key, uint64_t hash) const {
    size_t i = static_cast<size_t>(hash >> shift_);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t capacity) {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{kEmptyKey, V{}});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<uint32_t>(std::countr_zero(capacity));
    max_load_ = capacity / 4 * 3;
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) {
        slots_[Probe(slot.key, HashU64(slot.key))] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t shift_ = 0;
  /// Array entries (the 2^64-1 key is not one).
  size_t used_ = 0;
  /// Array entries allowed before the next insert doubles the array.
  size_t max_load_ = 0;
  bool has_empty_key_ = false;
  V empty_key_value_{};
};

}  // namespace dfi

#endif  // DFI_COMMON_FLAT_HASH_MAP_H_
