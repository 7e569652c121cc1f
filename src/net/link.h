#ifndef DFI_NET_LINK_H_
#define DFI_NET_LINK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "net/fault_plan.h"

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
class LinkScheduler {
 public:
  /// `bytes_per_ns`: capacity (e.g. 12.5 for a 100 Gbps link). A node's NIC
  /// links pass the fabric's fault plan and the node's id: while the plan
  /// is active, each reservation runs at the plan's rate factor for that
  /// node at its ready time (a 0.1 factor makes every transfer 10x
  /// longer). Links without a plan (multicast groups, MPI latches) and
  /// links whose plan is empty run at full speed with no query cost.
  LinkScheduler(std::string name, double bytes_per_ns,
                const FaultPlan* fault_plan = nullptr, NodeId node = 0);

  LinkScheduler(const LinkScheduler&) = delete;
  LinkScheduler& operator=(const LinkScheduler&) = delete;

  /// Reserves a transmission of `bytes` that may start no earlier than
  /// `ready` (virtual ns). Returns the occupied window.
  TransferWindow Reserve(SimTime ready, uint64_t bytes);

  /// Virtual time at which the link becomes idle given current reservations.
  SimTime busy_until() const { return busy_until_; }

  /// Total bytes ever reserved (conservation-law checks in tests).
  uint64_t total_bytes() const { return total_bytes_; }

  /// Total virtual time the link was actually occupied (busy time), which
  /// can be less than busy_until() if there were idle gaps.
  SimTime busy_time() const { return busy_time_; }

  const std::string& name() const { return name_; }
  double bytes_per_ns() const { return bytes_per_ns_; }

 private:
  /// An idle interval [start, end) below busy_until_.
  struct Gap {
    SimTime start = 0;
    SimTime end = 0;
  };

  size_t gap_count() const {
    return (front_end_ - front_begin_) + (back_end_ - back_begin_);
  }
  /// Moves the hole to just before the first gap ending after `t`, so the
  /// back run starts with it. False, moving nothing, if no gap ends after
  /// `t`.
  bool SeekGapEndingAfter(SimTime t);
  /// Compacts both runs to the front of the buffer, doubling it first when
  /// they fill half of it, so that free slots open both in the hole and
  /// behind the back run. Each run keeps its gaps, so the hole stays at the
  /// same gap.
  void Reflow();
  /// memmove of `count` gaps from slot `from` to slot `to`.
  void MoveGaps(size_t from, size_t count, size_t to);

  const std::string name_;
  const double ns_per_byte_;
  const double bytes_per_ns_;
  const FaultPlan* const fault_plan_;
  const NodeId node_;

  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t total_bytes_ = 0;
  /// Idle intervals left behind by out-of-order reservations, available
  /// for backfill, in time order (they are disjoint, so their ends ascend
  /// with their starts). Invariant: every gap lies strictly below
  /// busy_until_. Gaps behind the engine's horizon are dropped. Opening a
  /// gap at the tail drops the oldest once more than kMaxGaps are held, but
  /// a backfill that splits a gap adds one without that check, so the
  /// count is not bounded by kMaxGaps.
  ///
  /// The gaps live in one array as a gap buffer: a front run
  /// [front_begin_, front_end_), a hole of free slots, and a back run
  /// [back_begin_, back_end_), with free slots before the front run (left
  /// by horizon drops) and after the back run (for tail appends). A
  /// backfill moves the hole to its edit point, moving only the gaps
  /// between the previous edit and this one (an actor's consecutive
  /// reservations on a link land close together), then edits at the head
  /// of the back run: a gap whose head it leaves joins the front run, a gap
  /// it consumes leaves the back run, and a split takes one hole slot.
  std::vector<Gap> buf_;
  size_t front_begin_ = 0;
  size_t front_end_ = 0;
  size_t back_begin_ = 0;
  size_t back_end_ = 0;
  static constexpr size_t kMaxGaps = 4096;
};

}  // namespace dfi::net

#endif  // DFI_NET_LINK_H_
