#include "core/endpoint/policies.h"

#include <algorithm>
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

Partitioner Partitioner::RoundRobin(uint32_t num_targets) {
  Partitioner p;
  p.kind_ = Kind::kRoundRobin;
  p.num_targets_ = num_targets;
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
    case Kind::kRoundRobin:
      return static_cast<uint32_t>(rr_++ % num_targets_);
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

void AdaptivePartitioner::SketchAdd(uint64_t key) {
  // Misra-Gries: any key with epoch count > epoch_tuples / sketch_counters
  // survives with count no more than that margin below its true count.
  auto it = sketch_.find(key);
  if (it != sketch_.end()) {
    ++it->second;
    return;
  }
  if (sketch_.size() < opts_.sketch_counters) {
    sketch_.emplace(key, 1);
    return;
  }
  for (auto mg = sketch_.begin(); mg != sketch_.end();) {
    if (--mg->second == 0) {
      mg = sketch_.erase(mg);
    } else {
      ++mg;
    }
  }
}

void AdaptivePartitioner::EndEpoch() {
  epoch_fill_ = 0;
  ++epoch_;
  const double threshold =
      opts_.hot_factor * opts_.epoch_tuples / num_targets_;

  // Demote cooled-off keys (half the promotion threshold: hysteresis), and
  // in ordered mode rotate the single owner of keys that stay hot so one
  // hot key's load still spreads across the node's siblings over time.
  for (auto it = hot_.begin(); it != hot_.end();) {
    HotKey& hk = it->second;
    const auto seen = sketch_.find(it->first);
    const double count =
        seen == sketch_.end() ? 0.0 : static_cast<double>(seen->second);
    if (count < threshold / 2) {
      ++demotions_;
      if (opts_.ordered_handoff) {
        // Keep the entry around for one more Route(): it goes home and
        // carries the final hand-off flush of the last owner's channel.
        hk.demoted = true;
        hk.pending_flush = static_cast<int32_t>(hk.spread[hk.owner]);
        ++it;
      } else {
        it = hot_.erase(it);
      }
    } else {
      if (opts_.ordered_handoff && !hk.demoted) {
        const uint32_t next = static_cast<uint32_t>(
            HashU64(it->first ^ epoch_) % hk.spread.size());
        if (next != hk.owner) {
          hk.pending_flush = static_cast<int32_t>(hk.spread[hk.owner]);
          hk.owner = next;
        }
      }
      ++it;
    }
  }

  // Promote this epoch's heavy hitters, hottest first (key ascending as a
  // deterministic tie-break), bounded by max_hot_keys.
  std::vector<std::pair<uint64_t, uint64_t>> candidates;  // (count, key)
  for (const auto& [key, count] : sketch_) {
    if (static_cast<double>(count) >= threshold && hot_.count(key) == 0) {
      candidates.emplace_back(count, key);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [count, key] : candidates) {
    if (hot_.size() >= opts_.max_hot_keys) break;
    const uint32_t home = HomeTarget(key);
    if (siblings_[home].size() < 2) continue;  // nothing to re-split over
    HotKey hk;
    hk.spread = siblings_[home];
    hk.cursor =
        static_cast<uint32_t>(HashU64(key) % hk.spread.size());
    if (opts_.ordered_handoff) {
      hk.owner = static_cast<uint32_t>(HashU64(key ^ epoch_) %
                                       hk.spread.size());
      // Re-homing away from home: the home channel may hold staged tuples
      // of this key, so the first re-routed push flushes it first.
      if (hk.owner != 0) hk.pending_flush = static_cast<int32_t>(home);
    }
    ++promotions_;
    hot_.emplace(key, std::move(hk));
  }
  sketch_.clear();
}

uint32_t AdaptivePartitioner::RouteHot(HotKey& hot, int32_t* flush_first) {
  if (hot.pending_flush >= 0) {
    *flush_first = hot.pending_flush;
    hot.pending_flush = -1;
  }
  const uint32_t home = hot.spread[0];
  if (hot.demoted) return home;  // caller erases the entry
  uint32_t target;
  if (opts_.ordered_handoff) {
    target = hot.spread[hot.owner];
  } else {
    target = hot.spread[hot.cursor];
    hot.cursor = (hot.cursor + 1) % static_cast<uint32_t>(hot.spread.size());
    if (board_ != nullptr && opts_.react_to_backpressure &&
        board_->saturated(target)) {
      uint32_t best_depth = UINT32_MAX;
      uint32_t best = target;
      for (uint32_t sibling : hot.spread) {
        if (board_->saturated(sibling)) continue;
        const uint32_t depth = board_->depth(sibling);
        if (depth < best_depth) {
          best_depth = depth;
          best = sibling;
        }
      }
      if (best != target) {
        target = best;
        ++diverted_tuples_;
      }
    }
  }
  if (target != home) ++resplit_tuples_;
  return target;
}

AdaptivePartitioner::Decision AdaptivePartitioner::Route(
    const uint8_t* tuple) {
  const uint64_t key = ReadKeyBytes(tuple + key_offset_, key_size_);
  SketchAdd(key);
  if (++epoch_fill_ >= opts_.epoch_tuples) EndEpoch();

  Decision d;
  if (!hot_.empty()) {
    auto it = hot_.find(key);
    if (it != hot_.end()) {
      d.target = RouteHot(it->second, &d.flush_first);
      if (it->second.demoted) hot_.erase(it);
      return d;
    }
  }
  const uint32_t home = HomeTarget(key);
  d.target = home;
  // Opt-in straggler relief: a cold key bound for a saturated target is
  // diverted to the least-loaded unsaturated sibling on the same node.
  // Never taken in ordered mode (it would break per-key order) and never
  // without the board (static-determinism default).
  if (board_ != nullptr && opts_.react_to_backpressure &&
      !opts_.ordered_handoff && board_->saturated(home)) {
    const std::vector<uint32_t>& sibs = siblings_[home];
    if (sibs.size() > 1) {
      uint32_t best_depth = UINT32_MAX;
      uint32_t best = home;
      for (uint32_t sibling : sibs) {
        if (board_->saturated(sibling)) continue;
        const uint32_t depth = board_->depth(sibling);
        if (depth < best_depth) {
          best_depth = depth;
          best = sibling;
        }
      }
      if (best != home) {
        d.target = best;
        ++diverted_tuples_;
      }
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

Aggregator::Aggregator(const Schema* schema,
                       const std::vector<AggSpec>* aggregates,
                       size_t group_by_index, bool global_aggregate,
                       const net::SimConfig* config, VirtualClock* clock)
    : global_aggregate_(global_aggregate),
      key_offset_(global_aggregate ? 0 : schema->offset(group_by_index)),
      key_size_(global_aggregate ? 0 : schema->field_size(group_by_index)),
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
  const uint64_t key =
      global_aggregate_ ? 0 : ReadKeyBytes(data + key_offset_, key_size_);
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
