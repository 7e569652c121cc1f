#ifndef DFI_CORE_ENDPOINT_POLICIES_H_
#define DFI_CORE_ENDPOINT_POLICIES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
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
/// magic-number divisor declaratively so FlowEndpoint::PushBatch can run
/// them devirtualized over whole batches; kGeneric wraps an arbitrary
/// RoutingFn dispatched per tuple.
class Partitioner {
 public:
  enum class Kind : uint8_t {
    kSingle,      ///< everything to target 0 (1-target flows, combiner N:1)
    kKeyHash,     ///< HashU64(key) % num_targets
    kRadix,       ///< radix bits of HashU64(key)
    kRoundRobin,  ///< spread with no key (combiner global aggregates)
    kGeneric,     ///< opaque user RoutingFn
  };

  Partitioner() = default;  // kSingle

  static Partitioner Single() { return Partitioner(); }

  static Partitioner KeyHash(const Schema* schema, size_t key_field_index,
                             uint32_t num_targets);
  static Partitioner Radix(const Schema* schema, size_t key_field_index,
                           uint32_t shift, uint32_t bits,
                           uint32_t num_targets);
  static Partitioner RoundRobin(uint32_t num_targets);
  static Partitioner Generic(RoutingFn fn, const Schema* schema,
                             uint32_t num_targets);

  /// Builds the partitioner matching a resolved RoutingSpec (must not be
  /// kUnset; flow construction resolves the default first).
  static Partitioner FromRouting(const RoutingSpec& spec,
                                 const Schema* schema, uint32_t num_targets);

  /// Routes one packed tuple. Results may exceed num_targets() for buggy
  /// kRadix/kGeneric routings; the endpoint range-checks. Key-hash routing
  /// is inline, so the default push routes without a call.
  uint32_t Route(const uint8_t* tuple) {
    if (kind_ == Kind::kKeyHash) {
      return static_cast<uint32_t>(
          mod_.Mod(HashU64(ReadKeyBytes(tuple + key_offset_, key_size_))));
    }
    return RouteOther(tuple);
  }

  Kind kind() const { return kind_; }
  uint32_t num_targets() const { return num_targets_; }
  const Schema* schema() const { return schema_; }
  /// Key geometry, hoisted out of batch inner loops (kKeyHash / kRadix).
  size_t key_offset() const { return key_offset_; }
  size_t key_size() const { return key_size_; }
  uint32_t shift() const { return shift_; }
  uint32_t bits() const { return bits_; }
  const FastDivisor& mod() const { return mod_; }
  const RoutingFn& fn() const { return fn_; }

 private:
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
  uint64_t rr_ = 0;  // round-robin cursor
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
/// dynamic. Demotion at half the promotion threshold gives hysteresis.
///
/// Two spreading modes:
///  - unordered (default): each hot tuple round-robins over the home node's
///    sibling targets via a deterministic per-key cursor.
///  - ordered_handoff: a hot key has exactly one owner at a time, rotated
///    at epoch boundaries; Route() reports the previous owner in
///    `flush_first` so the endpoint flushes that channel *before* pushing
///    to the new owner. Segments of one (source, key) pair then arrive in
///    disjoint, contiguous intervals per target — a downstream Sequencer
///    ordering per (source, key) observes no inversions.
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

  struct Decision {
    uint32_t target = 0;
    /// Channel to flush before pushing (ordered hand-off re-homed the key
    /// away from this target); -1 when no hand-off happened.
    int32_t flush_first = -1;
  };

  /// Routes one packed tuple and advances the sketch/epoch state.
  Decision Route(const uint8_t* tuple);

  uint32_t num_targets() const { return num_targets_; }
  /// The static key-hash target of `key` (where the non-adaptive
  /// partitioner would send it).
  uint32_t HomeTarget(uint64_t key) const {
    return static_cast<uint32_t>(mod_.Mod(HashU64(key)));
  }
  bool IsHot(uint64_t key) const { return hot_.count(key) != 0; }

  // Observability for tests and benches.
  uint64_t promotions() const { return promotions_; }
  uint64_t demotions() const { return demotions_; }
  /// Tuples routed to a target other than their static home.
  uint64_t resplit_tuples() const { return resplit_tuples_; }
  uint64_t diverted_tuples() const { return diverted_tuples_; }

 private:
  struct HotKey {
    /// Sibling targets (home node's target threads, home first).
    std::vector<uint32_t> spread;
    /// Unordered mode: deterministic round-robin cursor over `spread`.
    uint32_t cursor = 0;
    /// Ordered mode: current single owner (index into `spread`).
    uint32_t owner = 0;
    /// Ordered mode: channel whose staged partial segment must be flushed
    /// before this key's next push (the previous owner after a re-homing);
    /// -1 when none. Surfaced once via Decision::flush_first.
    int32_t pending_flush = -1;
    /// Ordered mode: key was demoted at the last epoch boundary; its next
    /// Route() goes home (with the final hand-off flush) and erases it.
    bool demoted = false;
  };

  void SketchAdd(uint64_t key);
  /// Epoch boundary: promote/demote against the sketch, then reset it.
  void EndEpoch();
  uint32_t RouteHot(HotKey& hot, int32_t* flush_first);

  const size_t key_offset_;
  const size_t key_size_;
  const uint32_t num_targets_;
  const AdaptiveShuffleOptions opts_;
  const TargetLoadBoard* const board_;  // null: no backpressure reaction
  FastDivisor mod_;
  /// target -> sibling targets on the same node (includes itself, home
  /// first, matrix order otherwise).
  std::vector<std::vector<uint32_t>> siblings_;
  /// Misra-Gries summary of the current epoch (<= sketch_counters keys).
  std::unordered_map<uint64_t, uint64_t> sketch_;
  std::unordered_map<uint64_t, HotKey> hot_;
  uint64_t epoch_ = 0;
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
/// tuples into per-group accumulators (SUM/COUNT/MIN/MAX, paper section
/// 4.2.3), then yields the aggregate rows in first-seen group order.
///
/// A group is a dense index in first-seen order; one FlatHashMap maps group
/// keys to it, and every accumulator lives in one array of groups x
/// aggregates, so a fold allocates nothing except when the arrays grow.
class Aggregator {
 public:
  Aggregator(const Schema* schema, const std::vector<AggSpec>* aggregates,
             size_t group_by_index, bool global_aggregate,
             const net::SimConfig* config, VirtualClock* clock);

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Folds one tuple into its group's accumulators; charges agg_update_ns.
  void Fold(TupleView tuple);

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

  const bool global_aggregate_;
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
