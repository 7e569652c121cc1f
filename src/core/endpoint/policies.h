#ifndef DFI_CORE_ENDPOINT_POLICIES_H_
#define DFI_CORE_ENDPOINT_POLICIES_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/hash.h"
#include "common/sim_time.h"
#include "core/endpoint/backpressure.h"
#include "core/flow_options.h"
#include "core/routing.h"
#include "core/schema.h"
#include "net/fault_plan.h"
#include "net/sim_config.h"

namespace dfi {

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// Routing policy plugged into a FlowEndpoint: maps one packed tuple to a
/// target index (paper Table 1 — the only source-side difference between
/// the flow types). The builtin partitioners carry their key geometry and
/// magic-number divisor; kGeneric wraps an arbitrary RoutingFn.
class Partitioner {
 public:
  Partitioner() = default;  // kSingle

  static Partitioner Single() { return Partitioner(); }

  static Partitioner KeyHash(const Schema* schema, size_t key_field_index,
                             uint32_t num_targets);
  static Partitioner Radix(const Schema* schema, size_t key_field_index,
                           uint32_t shift, uint32_t bits,
                           uint32_t num_targets);
  static Partitioner Generic(RoutingFn fn, const Schema* schema,
                             uint32_t num_targets);

  /// Builds the partitioner matching a resolved RoutingSpec (must not be
  /// kUnset; flow construction resolves the default first).
  static Partitioner FromRouting(const RoutingSpec& spec,
                                 const Schema* schema, uint32_t num_targets);

  /// Routes one packed tuple. Results may exceed num_targets for buggy
  /// kRadix/kGeneric routings; the endpoint range-checks. Key-hash routing
  /// is inline, so the default push routes without a call.
  uint32_t Route(const uint8_t* tuple) {
    if (kind_ == Kind::kKeyHash) {
      return static_cast<uint32_t>(
          mod_.Mod(HashU64(ReadKeyBytes(tuple + key_offset_, key_size_))));
    }
    return RouteOther(tuple);
  }

 private:
  enum class Kind : uint8_t {
    kSingle,   ///< everything to target 0 (1-target flows, combiner N:1)
    kKeyHash,  ///< HashU64(key) % num_targets
    kRadix,    ///< radix bits of HashU64(key)
    kGeneric,  ///< opaque user RoutingFn
  };

  /// Route() for every kind but kKeyHash.
  uint32_t RouteOther(const uint8_t* tuple);

  Kind kind_ = Kind::kSingle;
  const Schema* schema_ = nullptr;
  uint32_t num_targets_ = 1;
  size_t key_offset_ = 0;
  size_t key_size_ = 0;
  uint32_t shift_ = 0;
  uint32_t bits_ = 0;
  FastDivisor mod_;
  RoutingFn fn_;
};

// ---------------------------------------------------------------------------
// AdaptivePartitioner
// ---------------------------------------------------------------------------

/// Skew-adaptive key-hash partitioner (opt-in via
/// AdaptiveShuffleOptions::enabled). Wraps the static key-hash geometry
/// with a small per-source Misra-Gries frequency sketch evaluated at fixed
/// tuple-count epochs: keys whose epoch share exceeds
/// hot_factor / num_targets are promoted to a bounded hot set and re-split
/// across the sibling target threads on their home target's node — keys
/// never leave their home *node* (node-level co-location such as radix-join
/// partition assignment survives), only the thread-level assignment becomes
/// dynamic. Each hot tuple round-robins over the home node's sibling
/// targets via a deterministic per-key cursor, so a re-split key has no
/// per-channel order (the graph layer types an adaptive shuffle as
/// Ordering::kNone). Demotion at half the promotion threshold gives
/// hysteresis.
///
/// Every routing decision is a pure function of the source's own input
/// prefix (sketch state + epoch counter), so adaptive routing is
/// bit-deterministic. The exception is opt-in backpressure reaction
/// (react_to_backpressure): when the home target's queue-depth slot is
/// saturated, tuples divert to the least-loaded unsaturated sibling —
/// host-schedule-dependent by design, never enabled by default.
class AdaptivePartitioner {
 public:
  /// `target_nodes[t]` is the node hosting target t (defines the sibling
  /// sets); `board` may be null (no backpressure reaction regardless of
  /// the option).
  AdaptivePartitioner(const Schema* schema, size_t key_field_index,
                      const std::vector<net::NodeId>& target_nodes,
                      const AdaptiveShuffleOptions& opts,
                      const TargetLoadBoard* board);

  AdaptivePartitioner(const AdaptivePartitioner&) = delete;
  AdaptivePartitioner& operator=(const AdaptivePartitioner&) = delete;

  /// Routes one packed tuple to a target and advances the sketch/epoch
  /// state.
  uint32_t Route(const uint8_t* tuple);

  /// The static key-hash target of `key` (where the non-adaptive
  /// partitioner would send it).
  uint32_t HomeTarget(uint64_t key) const { return HomeOf(HashU64(key)); }

  // Observability for tests and benches.
  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  /// Tuples routed to a target other than their static home.
  uint64_t resplit_tuples() const { return resplit_tuples_; }
  uint64_t diverted_tuples() const { return diverted_tuples_; }

 private:
  /// Counters in the Misra-Gries frequency sketch. Bounds the number of
  /// distinct keys tracked per epoch; 64 counters resolve any key with
  /// > ~1.6% share of an epoch.
  static constexpr size_t kSketchCounters = 64;
  /// Slots of the sketch's open-addressing table: twice the counters, so
  /// probe runs stay short and always end at a free slot.
  static constexpr size_t kSketchSlots = 2 * kSketchCounters;
  /// Upper bound on simultaneously hot keys.
  static constexpr size_t kMaxHotKeys = 8;

  /// One sketch counter; count 0 marks a free slot.
  struct SketchSlot {
    uint64_t key = 0;
    uint64_t count = 0;
  };

  struct HotKey {
    uint64_t key = 0;
    /// Static home target: the key spreads over siblings_[home], whose
    /// first entry is home.
    uint32_t home = 0;
    /// Deterministic round-robin cursor over the spread.
    uint32_t cursor = 0;
  };

  /// The sketch slot of `key`, whose HashU64 is `hash`, or the free slot
  /// ending its probe run.
  SketchSlot& SketchSlotOf(uint64_t key, uint64_t hash);
  void SketchAdd(uint64_t key, uint64_t hash);
  /// The static key-hash target of a key whose HashU64 is `hash`.
  uint32_t HomeOf(uint64_t hash) const {
    return static_cast<uint32_t>(mod_.Mod(hash));
  }
  /// The hot-set entry of `key`, or null.
  HotKey* FindHot(uint64_t key);
  /// Removes `hot` (an entry of hot_) by moving the last entry into it.
  void EraseHot(HotKey* hot) { *hot = hot_[--num_hot_]; }
  /// Epoch boundary: promote/demote against the sketch, then reset it.
  void EndEpoch();
  /// Opt-in straggler relief: `target` when it is not saturated (or
  /// without the board or react_to_backpressure, the static-determinism
  /// default), else the least-loaded unsaturated target of `spread`, its
  /// node's targets.
  uint32_t Divert(const std::vector<uint32_t>& spread, uint32_t target);

  const size_t key_offset_;
  const size_t key_size_;
  const uint32_t num_targets_;
  const AdaptiveShuffleOptions opts_;
  const TargetLoadBoard* const board_;  // null: no backpressure reaction
  FastDivisor mod_;
  /// target -> sibling targets on the same node (includes itself, home
  /// first, matrix order otherwise).
  std::vector<std::vector<uint32_t>> siblings_;
  /// Misra-Gries summary of the current epoch: at most kSketchCounters
  /// live counters, linear probing from the top bits of HashU64(key).
  std::array<SketchSlot, kSketchSlots> sketch_{};
  size_t sketch_size_ = 0;
  /// The hot set, in no particular order: entries [0, num_hot_).
  std::array<HotKey, kMaxHotKeys> hot_{};
  size_t num_hot_ = 0;
  uint32_t epoch_fill_ = 0;
  uint64_t promotions_ = 0;
  uint64_t demotions_ = 0;
  uint64_t resplit_tuples_ = 0;
  uint64_t diverted_tuples_ = 0;
};

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

/// One aggregation to compute in a combiner flow.
struct AggSpec {
  AggFunc func;
  /// Field whose values are aggregated (ignored for kCount).
  size_t field_index = 0;
};

/// One aggregated output row of a combiner target.
struct AggRow {
  uint64_t group_key = 0;
  /// One accumulator per AggSpec, in spec order. Sums/min/max of integer
  /// fields are exact for |value| < 2^53.
  std::vector<double> values;
};

/// Aggregation policy plugged into a combiner target's FlowSink: folds
/// segments of tuples into per-group accumulators (SUM/COUNT/MIN/MAX,
/// paper section 4.2.3) as they arrive, then yields the aggregate rows in
/// first-seen group order.
///
/// A group is a dense index in first-seen order; one FlatHashMap maps group
/// keys to it, and every accumulator lives in one array of groups x
/// aggregates, so a fold allocates nothing except when the arrays grow.
class Aggregator {
 public:
  Aggregator(const Schema* schema, const std::vector<AggSpec>* aggregates,
             size_t group_by_index, const net::SimConfig* config,
             VirtualClock* clock);

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Folds the `n` packed tuples at `tuples` into their groups'
  /// accumulators, in tuple order, and charges each tuple
  /// tuple_consume_fixed_ns + agg_update_ns.
  void FoldSegment(const uint8_t* tuples, size_t n);

  /// Yields the next aggregate row; false once all groups were emitted.
  bool NextRow(AggRow* out);

  /// Number of input tuples folded so far.
  uint64_t tuples_folded() const { return tuples_folded_; }

 private:
  /// One aggregate with its input field resolved (unused for kCount).
  struct Op {
    AggFunc func;
    DataType type;
    size_t offset;
  };

  /// Tuples whose group lookups are in flight at once: a default 8 KiB
  /// segment of 32-byte tuples.
  static constexpr size_t kFoldBatch = 256;

  const size_t tuple_size_;
  const size_t key_offset_;
  const size_t key_size_;
  const net::SimConfig* const config_;
  VirtualClock* const clock_;
  std::vector<Op> ops_;
  /// A new group's accumulators, one per aggregate.
  std::vector<double> init_;
  uint64_t tuples_folded_ = 0;
  /// Group key -> group index.
  FlatHashMap<size_t> groups_;
  /// Group keys by group index.
  std::vector<uint64_t> keys_;
  /// Accumulator i of group g is acc_[g * ops_.size() + i].
  std::vector<double> acc_;
  size_t output_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Sequencer
// ---------------------------------------------------------------------------

/// Global-ordering policy for OUM replicate flows (paper Figure 6): tracks
/// the next expected sequence number and reorders out-of-order arrivals via
/// a next list. Gap handling (skip / supply / retransmit) advances or feeds
/// the sequencer; the transport decides *when* a gap is declared.
class Sequencer {
 public:
  /// One queued out-of-order arrival: either a receive-pool slot or an
  /// owned copy (retransmissions, application-supplied gap content).
  struct Entry {
    uint32_t slot = UINT32_MAX;  // recv-pool slot, or
    std::vector<uint8_t> copy;   // owned segment copy
    SimTime arrival = 0;
  };

  uint64_t expected() const { return expected_; }
  bool HasPending() const { return !pending_.empty(); }

  /// True when `seq` is neither consumed nor already queued (duplicates —
  /// e.g. a retransmission racing the original — must be recycled without
  /// re-crediting).
  bool Fresh(uint64_t seq) const {
    return seq >= expected_ && pending_.count(seq) == 0;
  }

  /// Queues an arrival for in-order delivery.
  void Offer(uint64_t seq, Entry entry) {
    pending_.emplace(seq, std::move(entry));
  }

  /// Pops the head entry iff it is the next expected sequence, advancing
  /// the expectation.
  bool PopReady(Entry* out) {
    auto it = pending_.begin();
    if (it == pending_.end() || it->first != expected_) return false;
    *out = std::move(it->second);
    pending_.erase(it);
    ++expected_;
    return true;
  }

  /// Skips the expected sequence (application declared the gap a no-op).
  void Skip() { ++expected_; }

 private:
  uint64_t expected_ = 0;
  std::map<uint64_t, Entry> pending_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_POLICIES_H_
