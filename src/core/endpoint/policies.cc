#include "core/endpoint/policies.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace dfi {
namespace {

template <typename T>
double Load(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return static_cast<double>(value);
}

/// Reads a packed field of type `type` at `p` as double for aggregation.
double FieldAsDouble(const uint8_t* p, DataType type) {
  switch (type) {
    case DataType::kInt8:
      return Load<int8_t>(p);
    case DataType::kUInt8:
      return Load<uint8_t>(p);
    case DataType::kInt16:
      return Load<int16_t>(p);
    case DataType::kUInt16:
      return Load<uint16_t>(p);
    case DataType::kInt32:
      return Load<int32_t>(p);
    case DataType::kUInt32:
      return Load<uint32_t>(p);
    case DataType::kInt64:
      return Load<int64_t>(p);
    case DataType::kUInt64:
      return Load<uint64_t>(p);
    case DataType::kFloat:
      return Load<float>(p);
    case DataType::kDouble:
      return Load<double>(p);
    case DataType::kChar:
      DFI_LOG(FATAL) << "cannot aggregate a kChar field";
  }
  return 0;
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
    uint64_t key) {
  constexpr uint32_t kShift =
      64 - static_cast<uint32_t>(std::countr_zero(kSketchSlots));
  size_t i = static_cast<size_t>(HashU64(key) >> kShift);
  while (sketch_[i].count != 0 && sketch_[i].key != key) {
    i = (i + 1) % kSketchSlots;
  }
  return sketch_[i];
}

void AdaptivePartitioner::SketchAdd(uint64_t key) {
  // Misra-Gries: any key with epoch count > epoch_tuples / kSketchCounters
  // survives with count no more than that margin below its true count.
  SketchSlot& slot = SketchSlotOf(key);
  if (slot.count != 0) {
    ++slot.count;
    return;
  }
  if (sketch_size_ < kSketchCounters) {
    slot = SketchSlot{key, 1};
    ++sketch_size_;
    return;
  }
  // Full: decrement every counter. Freed slots would cut the probe runs
  // of the survivors, so those are re-inserted into a cleared table.
  std::array<SketchSlot, kSketchCounters> survivors;
  size_t n = 0;
  for (SketchSlot& s : sketch_) {
    if (s.count != 0 && --s.count != 0) survivors[n++] = s;
    s.count = 0;
  }
  for (size_t i = 0; i < n; ++i) SketchSlotOf(survivors[i].key) = survivors[i];
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
    if (static_cast<double>(SketchSlotOf(hk.key).count) < threshold / 2) {
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
    const uint32_t home = HomeTarget(key);
    const size_t spread = siblings_[home].size();
    if (spread < 2) continue;  // nothing to re-split over
    HotKey hk;
    hk.key = key;
    hk.home = home;
    hk.cursor = static_cast<uint32_t>(HashU64(key) % spread);
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
  const uint64_t key = ReadKeyBytes(tuple + key_offset_, key_size_);
  SketchAdd(key);
  if (++epoch_fill_ >= opts_.epoch_tuples) EndEpoch();

  HotKey* hot = FindHot(key);
  if (hot == nullptr) {
    const uint32_t home = HomeTarget(key);
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
    : key_offset_(schema->offset(group_by_index)),
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

void Aggregator::Fold(TupleView tuple) {
  const uint8_t* data = tuple.data();
  const uint64_t key = ReadKeyBytes(data + key_offset_, key_size_);
  clock_->Advance(config_->agg_update_ns);

  const auto [group, inserted] = groups_.TryEmplace(key, keys_.size());
  if (inserted) {
    keys_.push_back(key);
    acc_.insert(acc_.end(), init_.begin(), init_.end());
  }
  double* acc = &acc_[*group * ops_.size()];
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    switch (op.func) {
      case AggFunc::kSum:
        acc[i] += FieldAsDouble(data + op.offset, op.type);
        break;
      case AggFunc::kCount:
        acc[i] += 1;
        break;
      case AggFunc::kMin:
        acc[i] = std::min(acc[i], FieldAsDouble(data + op.offset, op.type));
        break;
      case AggFunc::kMax:
        acc[i] = std::max(acc[i], FieldAsDouble(data + op.offset, op.type));
        break;
    }
  }
  ++tuples_folded_;
}

bool Aggregator::NextRow(AggRow* out) {
  if (output_pos_ >= keys_.size()) return false;
  const double* acc = &acc_[output_pos_ * ops_.size()];
  out->group_key = keys_[output_pos_++];
  out->values.assign(acc, acc + ops_.size());
  return true;
}

}  // namespace dfi
