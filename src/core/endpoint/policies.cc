#include "core/endpoint/policies.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace dfi {
namespace {

/// One batch of a segment fold, for one aggregate: tuple j is at
/// tuples + j * tuple_size, and its group's accumulator of the aggregate is
/// acc[groups[j] * stride].
struct FoldBatch {
  const uint8_t* tuples;
  size_t tuple_size;
  const size_t* groups;
  size_t size;
  double* acc;
  size_t stride;
};

template <typename T, typename Update>
void FoldValues(const FoldBatch& b, size_t offset, Update update) {
  for (size_t j = 0; j < b.size; ++j) {
    T value;
    std::memcpy(&value, b.tuples + j * b.tuple_size + offset, sizeof(T));
    double& acc = b.acc[b.groups[j] * b.stride];
    acc = update(acc, static_cast<double>(value));
  }
}

/// Folds the packed field of type `type` at `offset` of every tuple of `b`
/// into its accumulator, `acc = update(acc, value as double)`, in tuple
/// order. The type is resolved once per batch, not once per tuple.
template <typename Update>
void FoldField(const FoldBatch& b, DataType type, size_t offset,
               Update update) {
  switch (type) {
    case DataType::kInt8:
      return FoldValues<int8_t>(b, offset, update);
    case DataType::kUInt8:
      return FoldValues<uint8_t>(b, offset, update);
    case DataType::kInt16:
      return FoldValues<int16_t>(b, offset, update);
    case DataType::kUInt16:
      return FoldValues<uint16_t>(b, offset, update);
    case DataType::kInt32:
      return FoldValues<int32_t>(b, offset, update);
    case DataType::kUInt32:
      return FoldValues<uint32_t>(b, offset, update);
    case DataType::kInt64:
      return FoldValues<int64_t>(b, offset, update);
    case DataType::kUInt64:
      return FoldValues<uint64_t>(b, offset, update);
    case DataType::kFloat:
      return FoldValues<float>(b, offset, update);
    case DataType::kDouble:
      return FoldValues<double>(b, offset, update);
    case DataType::kChar:
      DFI_LOG(FATAL) << "cannot aggregate a kChar field";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

Partitioner Partitioner::KeyHash(const Schema* schema,
                                 size_t key_field_index,
                                 uint32_t num_targets) {
  Partitioner p;
  p.kind_ = Kind::kKeyHash;
  p.schema_ = schema;
  p.num_targets_ = num_targets;
  p.key_offset_ = schema->offset(key_field_index);
  p.key_size_ = schema->field_size(key_field_index);
  p.mod_ = FastDivisor(num_targets);
  return p;
}

Partitioner Partitioner::Radix(const Schema* schema, size_t key_field_index,
                               uint32_t shift, uint32_t bits,
                               uint32_t num_targets) {
  Partitioner p;
  p.kind_ = Kind::kRadix;
  p.schema_ = schema;
  p.num_targets_ = num_targets;
  p.key_offset_ = schema->offset(key_field_index);
  p.key_size_ = schema->field_size(key_field_index);
  p.shift_ = shift;
  p.bits_ = bits;
  return p;
}

Partitioner Partitioner::Generic(RoutingFn fn, const Schema* schema,
                                 uint32_t num_targets) {
  Partitioner p;
  p.kind_ = Kind::kGeneric;
  p.schema_ = schema;
  p.num_targets_ = num_targets;
  p.fn_ = std::move(fn);
  return p;
}

Partitioner Partitioner::FromRouting(const RoutingSpec& spec,
                                     const Schema* schema,
                                     uint32_t num_targets) {
  switch (spec.kind()) {
    case RoutingSpec::Kind::kKeyHash:
      return KeyHash(schema, spec.key_field_index(), num_targets);
    case RoutingSpec::Kind::kRadix:
      return Radix(schema, spec.key_field_index(), spec.shift(), spec.bits(),
                   num_targets);
    case RoutingSpec::Kind::kGeneric:
      return Generic(spec.generic_fn(), schema, num_targets);
    case RoutingSpec::Kind::kUnset:
      break;
  }
  DFI_LOG(FATAL) << "routing spec must be resolved before building a "
                    "partitioner";
  return Partitioner();
}

uint32_t Partitioner::RouteOther(const uint8_t* tuple) {
  switch (kind_) {
    case Kind::kRadix:
      return RadixBits(ReadKeyBytes(tuple + key_offset_, key_size_), shift_,
                       bits_);
    case Kind::kGeneric:
      return fn_(TupleView(tuple, schema_), num_targets_);
    case Kind::kSingle:
    case Kind::kKeyHash:  // routed inline by Route()
      break;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// AdaptivePartitioner
// ---------------------------------------------------------------------------

AdaptivePartitioner::AdaptivePartitioner(
    const Schema* schema, size_t key_field_index,
    const std::vector<net::NodeId>& target_nodes,
    const AdaptiveShuffleOptions& opts, const TargetLoadBoard* board)
    : key_offset_(schema->offset(key_field_index)),
      key_size_(schema->field_size(key_field_index)),
      num_targets_(static_cast<uint32_t>(target_nodes.size())),
      opts_(opts),
      board_(board),
      mod_(num_targets_) {
  DFI_CHECK_GT(num_targets_, 0u);
  DFI_CHECK_GT(opts_.epoch_tuples, 0u);
  // Sibling sets: for each target, the targets on the same node, home
  // first, matrix order otherwise. Keys are only ever re-split within
  // their home node, so node-level key placement is untouched.
  siblings_.resize(num_targets_);
  for (uint32_t t = 0; t < num_targets_; ++t) {
    siblings_[t].push_back(t);
    for (uint32_t u = 0; u < num_targets_; ++u) {
      if (u != t && target_nodes[u] == target_nodes[t]) {
        siblings_[t].push_back(u);
      }
    }
  }
}

AdaptivePartitioner::SketchSlot& AdaptivePartitioner::SketchSlotOf(
    uint64_t key, uint64_t hash) {
  constexpr uint32_t kShift =
      64 - static_cast<uint32_t>(std::countr_zero(kSketchSlots));
  size_t i = static_cast<size_t>(hash >> kShift);
  while (sketch_[i].count != 0 && sketch_[i].key != key) {
    i = (i + 1) % kSketchSlots;
  }
  return sketch_[i];
}

void AdaptivePartitioner::SketchAdd(uint64_t key, uint64_t hash) {
  // Misra-Gries: any key with epoch count > epoch_tuples / kSketchCounters
  // survives with count no more than that margin below its true count.
  SketchSlot& slot = SketchSlotOf(key, hash);
  if (slot.count != 0) {
    ++slot.count;
    return;
  }
  if (sketch_size_ < kSketchCounters) {
    slot = SketchSlot{key, 1};
    ++sketch_size_;
    return;
  }
  // Full: decrement every counter, without a branch per slot. Freed slots
  // would cut the probe runs of the survivors, so the survivors are
  // gathered in slot order and re-inserted into a cleared table. Every
  // slot is copied to survivors[n] and counted only when it survives, so
  // the array needs room for one write per slot.
  std::array<SketchSlot, kSketchSlots> survivors;
  size_t n = 0;
  for (SketchSlot& s : sketch_) {
    const uint64_t count = s.count - (s.count != 0);
    survivors[n] = SketchSlot{s.key, count};
    n += count != 0;
    s.count = 0;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = survivors[i].key;
    SketchSlotOf(k, HashU64(k)) = survivors[i];
  }
  sketch_size_ = n;
}

AdaptivePartitioner::HotKey* AdaptivePartitioner::FindHot(uint64_t key) {
  for (size_t h = 0; h < num_hot_; ++h) {
    if (hot_[h].key == key) return &hot_[h];
  }
  return nullptr;
}

void AdaptivePartitioner::EndEpoch() {
  epoch_fill_ = 0;
  const double threshold =
      opts_.hot_factor * opts_.epoch_tuples / num_targets_;

  // Demote cooled-off keys (half the promotion threshold: hysteresis).
  for (size_t h = 0; h < num_hot_;) {
    HotKey& hk = hot_[h];
    const double count =
        static_cast<double>(SketchSlotOf(hk.key, HashU64(hk.key)).count);
    if (count < threshold / 2) {
      ++demotions_;
      EraseHot(&hk);  // the last entry moves here; visit it next
      continue;
    }
    ++h;
  }

  // Promote this epoch's heavy hitters, hottest first (key ascending as a
  // deterministic tie-break), bounded by kMaxHotKeys.
  std::array<std::pair<uint64_t, uint64_t>, kSketchCounters>
      candidates;  // (count, key)
  size_t num_candidates = 0;
  for (const SketchSlot& slot : sketch_) {
    if (slot.count != 0 && static_cast<double>(slot.count) >= threshold &&
        FindHot(slot.key) == nullptr) {
      candidates[num_candidates++] = {slot.count, slot.key};
    }
  }
  std::sort(candidates.begin(), candidates.begin() + num_candidates,
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t c = 0; c < num_candidates && num_hot_ < kMaxHotKeys; ++c) {
    const uint64_t key = candidates[c].second;
    const uint64_t hash = HashU64(key);
    const uint32_t home = HomeOf(hash);
    const size_t spread = siblings_[home].size();
    if (spread < 2) continue;  // nothing to re-split over
    HotKey hk;
    hk.key = key;
    hk.home = home;
    hk.cursor = static_cast<uint32_t>(hash % spread);
    ++promotions_;
    hot_[num_hot_++] = hk;
  }
  sketch_.fill(SketchSlot{});
  sketch_size_ = 0;
}

uint32_t AdaptivePartitioner::Divert(const std::vector<uint32_t>& spread,
                                     uint32_t target) {
  if (board_ == nullptr || !opts_.react_to_backpressure ||
      !board_->saturated(target)) {
    return target;
  }
  uint32_t best_depth = UINT32_MAX;
  uint32_t best = target;
  for (uint32_t sibling : spread) {
    if (board_->saturated(sibling)) continue;
    const uint32_t depth = board_->depth(sibling);
    if (depth < best_depth) {
      best_depth = depth;
      best = sibling;
    }
  }
  if (best != target) ++diverted_tuples_;
  return best;
}

uint32_t AdaptivePartitioner::Route(const uint8_t* tuple) {
  // One hash serves the sketch slot (its top bits) and the home target.
  const uint64_t key = ReadKeyBytes(tuple + key_offset_, key_size_);
  const uint64_t hash = HashU64(key);
  SketchAdd(key, hash);
  if (++epoch_fill_ >= opts_.epoch_tuples) EndEpoch();

  HotKey* hot = FindHot(key);
  if (hot == nullptr) {
    const uint32_t home = HomeOf(hash);
    return Divert(siblings_[home], home);
  }
  // A hot key round-robins over the targets of its home node.
  const std::vector<uint32_t>& spread = siblings_[hot->home];
  const uint32_t target = Divert(spread, spread[hot->cursor]);
  hot->cursor = (hot->cursor + 1) % static_cast<uint32_t>(spread.size());
  if (target != hot->home) ++resplit_tuples_;
  return target;
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

Aggregator::Aggregator(const Schema* schema,
                       const std::vector<AggSpec>* aggregates,
                       size_t group_by_index, const net::SimConfig* config,
                       VirtualClock* clock)
    : tuple_size_(schema->tuple_size()),
      key_offset_(schema->offset(group_by_index)),
      key_size_(schema->field_size(group_by_index)),
      config_(config),
      clock_(clock) {
  DFI_CHECK(!aggregates->empty())
      << "combiner flow needs at least one aggregate";
  const double inf = std::numeric_limits<double>::infinity();
  for (const AggSpec& agg : *aggregates) {
    Op op{agg.func, DataType::kUInt64, 0};
    if (agg.func != AggFunc::kCount) {
      op.type = schema->field(agg.field_index).type;
      op.offset = schema->offset(agg.field_index);
    }
    ops_.push_back(op);
    double init = 0;
    if (agg.func == AggFunc::kMin) init = inf;
    if (agg.func == AggFunc::kMax) init = -inf;
    init_.push_back(init);
  }
}

void Aggregator::FoldSegment(const uint8_t* tuples, size_t n) {
  // A batch hashes its keys and starts every home-slot load first, so its
  // lookups overlap their cache misses. Groups are then resolved in tuple
  // order, which assigns new groups their first-seen index, and each
  // resolved group's accumulator row starts loading. Last, each aggregate
  // folds the whole batch in tuple order, its field type resolved once:
  // every accumulator sees the same operations in the same order as one
  // tuple at a time.
  const size_t num_ops = ops_.size();
  uint64_t keys[kFoldBatch];
  uint64_t hashes[kFoldBatch];
  size_t groups[kFoldBatch];
  for (size_t begin = 0; begin < n; begin += kFoldBatch) {
    const size_t m = std::min(kFoldBatch, n - begin);
    const uint8_t* batch = tuples + begin * tuple_size_;
    for (size_t i = 0; i < m; ++i) {
      keys[i] = ReadKeyBytes(batch + i * tuple_size_ + key_offset_, key_size_);
      hashes[i] = HashU64(keys[i]);
      groups_.Prefetch(hashes[i]);
    }
    for (size_t i = 0; i < m; ++i) {
      const auto [group, inserted] =
          groups_.TryEmplace(keys[i], hashes[i], keys_.size());
      if (inserted) {
        keys_.push_back(keys[i]);
        acc_.insert(acc_.end(), init_.begin(), init_.end());
      }
      groups[i] = *group;
      __builtin_prefetch(&acc_[groups[i] * num_ops]);
    }
    for (size_t a = 0; a < num_ops; ++a) {
      const Op& op = ops_[a];
      const FoldBatch b{batch, tuple_size_, groups, m, &acc_[a], num_ops};
      switch (op.func) {
        case AggFunc::kSum:
          FoldField(b, op.type, op.offset,
                    [](double acc, double v) { return acc + v; });
          break;
        case AggFunc::kCount:
          for (size_t i = 0; i < m; ++i) b.acc[groups[i] * num_ops] += 1;
          break;
        case AggFunc::kMin:
          FoldField(b, op.type, op.offset,
                    [](double acc, double v) { return std::min(acc, v); });
          break;
        case AggFunc::kMax:
          FoldField(b, op.type, op.offset,
                    [](double acc, double v) { return std::max(acc, v); });
          break;
      }
    }
  }
  tuples_folded_ += n;
  // Nothing reads the clock within a segment, so one charge lands at the
  // same virtual time as one per tuple.
  const SimTime per_tuple =
      config_->tuple_consume_fixed_ns + config_->agg_update_ns;
  clock_->Advance(static_cast<SimTime>(n) * per_tuple);
}

bool Aggregator::NextRow(AggRow* out) {
  if (output_pos_ >= keys_.size()) return false;
  const double* acc = &acc_[output_pos_ * ops_.size()];
  out->group_key = keys_[output_pos_++];
  out->values.assign(acc, acc + ops_.size());
  return true;
}

}  // namespace dfi
