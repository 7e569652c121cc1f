#ifndef DFI_NET_LINK_H_
#define DFI_NET_LINK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory_resource>
#include <mutex>
#include <string>

#include "common/sim_time.h"

namespace dfi::net {

/// Time window a transmission occupies on a serial resource.
struct TransferWindow {
  SimTime start = 0;
  SimTime end = 0;
};

/// A serial transmission resource in virtual time: a NIC link direction, a
/// multicast group, or any other bandwidth-limited pipe. A transmission of
/// `bytes` ready at virtual time `ready` needs bytes * ns_per_byte of idle
/// link time at or after `ready`; like a packet train interleaved with
/// other transfers on the wire, it takes the earliest idle time first,
/// filling gaps left by earlier reservations before extending the tail:
///
///   start >= ready,  end - start >= bytes * ns_per_byte
///
/// Back-to-back reservations model a saturated link; competing
/// reservations from many actors share the link by *virtual* readiness,
/// and because a reservation may use any gap, the link stays
/// work-conserving when an actor that ran ahead reserved later times
/// first. Incast and fan-out bottlenecks emerge from reserving the
/// corresponding ingress / egress schedulers (DESIGN.md §5).
///
/// Thread-safe; called concurrently by all worker threads.
class LinkScheduler {
 public:
  /// `bytes_per_ns`: capacity (e.g. 12.5 for a 100 Gbps link).
  LinkScheduler(std::string name, double bytes_per_ns);

  LinkScheduler(const LinkScheduler&) = delete;
  LinkScheduler& operator=(const LinkScheduler&) = delete;

  /// Reserves a transmission of `bytes` that may start no earlier than
  /// `ready` (virtual ns). Returns the occupied window.
  TransferWindow Reserve(SimTime ready, uint64_t bytes);

  /// Rate multiplier in (0, 1] queried per reservation at its ready time;
  /// fault plans use this to model link degradation (a 0.1 factor makes
  /// every transfer 10x longer). Install during fabric wiring, before any
  /// traffic; absent probe means full speed with no query cost.
  using RateProbe = std::function<double(SimTime)>;
  void set_rate_probe(RateProbe probe) { rate_probe_ = std::move(probe); }

  /// Virtual time at which the link becomes idle given current reservations.
  SimTime busy_until() const;

  /// Total bytes ever reserved (conservation-law checks in tests).
  uint64_t total_bytes() const;

  /// Total virtual time the link was actually occupied (busy time), which
  /// can be less than busy_until() if there were idle gaps.
  SimTime busy_time() const;

  const std::string& name() const { return name_; }
  double bytes_per_ns() const { return bytes_per_ns_; }

 private:
  using GapMap = std::pmr::map<SimTime, SimTime>;

  /// The first gap ending after `t` (gaps_.end() if none). Gaps are
  /// disjoint, so their ends ascend with their starts.
  GapMap::iterator FirstGapEndingAfter(SimTime t);
  /// Erases one gap, keeping finger_ valid; returns the next gap.
  GapMap::iterator EraseGap(GapMap::iterator it);

  const std::string name_;
  const double ns_per_byte_;
  const double bytes_per_ns_;
  RateProbe rate_probe_;

  mutable std::mutex mu_;
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t total_bytes_ = 0;
  /// Idle intervals (start -> end) left behind by out-of-order
  /// reservations, available for backfill. Gaps behind the engine's
  /// horizon are dropped. Opening a gap at the tail drops the oldest once
  /// more than kMaxGaps are held, but a backfill that splits a gap adds
  /// one without that check, so the count is not bounded by kMaxGaps.
  /// Invariant: every gap lies strictly below busy_until_. A link can hold
  /// thousands of gaps, touched on nearly every reservation; a per-link
  /// node pool keeps them together in memory instead of spread over the
  /// global heap.
  std::pmr::unsynchronized_pool_resource gap_pool_;
  GapMap gaps_{&gap_pool_};
  /// Where the last backfill walk stopped. An actor's consecutive
  /// reservations on a link land close together, so the next walk often
  /// starts within a few steps of it instead of searching the whole map.
  GapMap::iterator finger_ = gaps_.end();
  static constexpr size_t kMaxGaps = 4096;
};

}  // namespace dfi::net

#endif  // DFI_NET_LINK_H_
