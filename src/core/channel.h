#ifndef DFI_CORE_CHANNEL_H_
#define DFI_CORE_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/abort_latch.h"
#include "core/flow_options.h"
#include "core/ring_sync.h"
#include "core/segment.h"
#include "rdma/queue_pair.h"
#include "rdma/rdma_env.h"

namespace dfi {

/// Result of a blocking consume call on any flow target.
enum class ConsumeResult : uint8_t {
  kOk,
  kFlowEnd,  ///< all sources closed and all data drained (paper: FLOW_END)
  kGap,      ///< ordered replicate flow with app-handled gaps: sequence gap
  kError,    ///< flow failed (deadline, peer crash, abort); see last_status()
};

/// Zero-copy view of one consumable segment returned to the target. Valid
/// until the cursor's Release() (which happens on the next consume).
struct SegmentView {
  const uint8_t* payload = nullptr;
  uint32_t bytes = 0;
  uint64_t sequence = 0;
  uint16_t source_index = 0;
  bool end_of_flow = false;
  SimTime arrival = 0;
  /// Target column (matrix target index) the segment was addressed to. With
  /// work stealing the consuming sink thread may differ from the column
  /// owner; this field always names the column.
  uint16_t target_column = 0;
};

class TargetLoadBoard;

/// State shared between the two ends of one private source->target channel.
/// Created at flow initialization; in a real deployment its coordinates
/// (rkey, ring geometry, credit counter address) are what the registry
/// publishes.
class ChannelShared {
 public:
  /// Allocates the target-side ring on `target_ctx`'s node.
  ChannelShared(rdma::RdmaContext* target_ctx, const FlowOptions& options,
                uint32_t tuple_size, uint16_t source_index);

  ChannelShared(const ChannelShared&) = delete;
  ChannelShared& operator=(const ChannelShared&) = delete;

  /// Payload capacity of one segment given options and tuple size: the
  /// configured segment size for bandwidth flows, one tuple (8-aligned) for
  /// latency flows.
  static uint32_t PayloadCapacityFor(const FlowOptions& options,
                                     uint32_t tuple_size);

  const FlowOptions& options() const { return options_; }
  uint32_t tuple_size() const { return tuple_size_; }
  uint16_t source_index() const { return source_index_; }
  const SegmentRing& ring() const { return ring_; }
  rdma::MemoryRegion* ring_mr() const { return ring_mr_; }
  net::NodeId target_node() const { return target_node_; }
  RingSync& sync() { return sync_; }

  /// Optional ready-channel gate shared by all channels of one target
  /// thread: a source announces each delivered segment by enqueuing this
  /// channel's index (== source_index), so a target blocked on "any of my
  /// rings" wakes when any channel delivers and knows *which* one did.
  void set_target_gate(ReadyGate* gate) { target_gate_ = gate; }
  ReadyGate* target_gate() const { return target_gate_; }

  /// Optional queue-depth board slot: deliveries / releases on this channel
  /// bump the depth of target column `target_index` on `board`. Advisory
  /// (see backpressure.h); null when the matrix carries no board.
  void set_load_board(TargetLoadBoard* board, uint32_t target_index) {
    load_board_ = board;
    load_target_ = target_index;
  }

  /// Optional extra wakeup for a same-node work-stealing sink group: each
  /// delivery (and teardown) bumps it in addition to the owning target's
  /// gate, so idle sibling sinks wake up to steal.
  void set_steal_wake(RingSync* wake) { steal_wake_ = wake; }
  RingSync* steal_wake() const { return steal_wake_; }

  /// Delivery/consume announcements shared by both channel halves: update
  /// the load board and (on delivery) kick the steal group's wakeup.
  void AnnounceDelivered();
  void AnnounceConsumed();

  /// Segments delivered into this channel's ring and not yet consumed.
  /// Approaches segments_per_ring only when the consumer side stalls long
  /// enough for the producer to fill the ring — the signal a deferring
  /// sink uses to tell "deep backlog" from "producer about to block".
  uint32_t inflight() const { return inflight_; }

  /// Latency-mode credit state (paper section 5.3). The credit counter
  /// (number of tuples consumed by the target) lives in its own registered
  /// region on the target node so sources refresh it with a real RDMA read.
  uint64_t LoadConsumed() const;
  void IncrementConsumed();
  rdma::RemoteRef credit_ref() const { return credit_mr_->RefAt(0); }
  /// Virtual time at which ring slot `slot` was last freed (used to charge
  /// a blocked source's virtual wait).
  SimTime& slot_free_time(uint32_t slot) { return slot_free_time_[slot]; }

  /// Fault plan of the fabric this channel lives on (never null).
  const net::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Tears the channel down: both halves observe poisoned() on their next
  /// poll and blocked threads are woken. The first cause wins; subsequent
  /// calls are no-ops.
  void Poison(const Status& cause);
  bool poisoned() const { return poison_.tripped(); }
  /// The teardown cause (OK when not poisoned).
  Status poison_status() const { return poison_.status(); }

 private:
  void StoreConsumed(uint64_t consumed);

  const FlowOptions options_;
  const uint32_t tuple_size_;
  const uint16_t source_index_;
  const net::NodeId target_node_;
  const net::FaultPlan* fault_plan_;
  rdma::MemoryRegion* ring_mr_;    // owned by the target's RdmaContext
  rdma::MemoryRegion* credit_mr_;  // latency-mode credit counter
  SegmentRing ring_;
  RingSync sync_;
  ReadyGate* target_gate_ = nullptr;
  TargetLoadBoard* load_board_ = nullptr;
  uint32_t load_target_ = 0;
  RingSync* steal_wake_ = nullptr;
  uint32_t inflight_ = 0;
  std::vector<SimTime> slot_free_time_;
  AbortLatch poison_;
};

/// Source half of a channel. Owned and driven by exactly one source thread.
///
/// Bandwidth mode (paper section 5.2): tuples are appended to the current
/// segment of a small source-side ring — the staging window, which the
/// owning FlowEndpoint fills in place through its lane — and the push that
/// fills a window seals it: the segment is written to the target ring with
/// one-sided RDMA writes, the footer travelling behind the payload. Writes
/// are signaled only on source-ring wrap-around (selective signaling);
/// while writing segment n, the footer of target segment n+1 is prefetched
/// with an RDMA read.
///
/// Latency mode (paper section 5.3): each tuple is transmitted immediately
/// as a single (inlined if small) write of a one-tuple segment; a credit
/// system replaces the per-segment footer checks on the source side.
class ChannelSource {
 public:
  ChannelSource(ChannelShared* shared, rdma::RdmaContext* source_ctx,
                VirtualClock* clock);
  ~ChannelSource();

  ChannelSource(const ChannelSource&) = delete;
  ChannelSource& operator=(const ChannelSource&) = delete;

  /// Bandwidth mode: the open staging window, i.e. the payload of the
  /// current source-ring segment, which the owner fills with whole tuples
  /// and hands back with Seal. Null in latency mode and once closed:
  /// such channels take every tuple through Push.
  uint8_t* window() {
    return latency_ || closed_ ? nullptr : staging_.payload(staging_slot_);
  }
  /// Bytes of whole tuples that fit one window. A window filled to this
  /// point is full, and the push that filled it seals it.
  uint32_t window_bytes() const { return window_bytes_; }
  /// Virtual cost of pushing one tuple (fixed cost + copy cost), rounded
  /// once at construction so push paths charge a precomputed integer.
  SimTime tuple_push_cost() const { return tuple_push_cost_ns_; }

  /// Transmits the first `fill` bytes of the window and opens the next
  /// segment of the source ring. No-op when `fill` is 0.
  Status Seal(uint32_t fill);

  /// Latency mode: charges one tuple and transmits it as its own segment.
  /// Fails with FailedPrecondition once the channel is closed.
  Status Push(const void* tuple);

  /// Transmits an externally staged segment (replicate flows stage a
  /// segment once on the source and fan it out over several channels). The
  /// buffer must have SegmentFooter space behind `payload_capacity` bytes;
  /// its footer area is overwritten. Marks the channel closed when `end`.
  Status PushSegment(uint8_t* staged_slot, uint32_t fill, bool end);

  /// Transmits the window's first `fill` bytes (0 in latency mode) with
  /// the end-of-flow marker. Idempotent.
  Status Close(uint32_t fill);

  /// Tears the channel down without a clean end-of-flow: poisons the shared
  /// state (waking both halves) and best-effort publishes a poisoned footer
  /// into the target ring so a remote footer poller discovers the abort the
  /// same way it discovers data. Marks the channel closed; all further
  /// pushes fail with `cause`.
  void Abort(const Status& cause);

  uint64_t segments_sent() const { return send_seq_; }
  /// Number of remote-footer prefetch reads issued (bandwidth mode pipelines
  /// one read per transmitted segment; observability for tests).
  uint64_t footer_reads() const { return footer_reads_; }
  VirtualClock* clock() { return clock_; }

 private:
  Status TransmitSegment(const uint8_t* payload, uint32_t fill, bool end);
  /// Blocks (real) / charges (virtual) until target slot `idx` is writable.
  /// Fails with kDeadlineExceeded / kPeerFailed / kAborted when the flow's
  /// deadline elapses or teardown is observed (the remote-ring-full case
  /// that used to hang forever on a dead consumer).
  Status EnsureRemoteWritable(uint32_t idx);
  /// Latency mode: blocks/charges until a credit is available; same failure
  /// semantics as EnsureRemoteWritable.
  Status EnsureCredit();
  /// What ends both waits early, probed at virtual time `now`: the channel's
  /// poison first, then a crashed or partitioned peer.
  Status PeerStatus(SimTime now) const;

  ChannelShared* const shared_;
  rdma::RcQueuePair* qp_ = nullptr;
  rdma::CompletionQueue* send_cq_ = nullptr;
  VirtualClock* const clock_;
  const net::SimConfig* config_;
  const bool latency_;
  SimTime tuple_push_cost_ns_ = 0;
  uint32_t window_bytes_ = 0;

  // Source-side staging ring (registered memory on the source node).
  rdma::MemoryRegion* staging_mr_ = nullptr;
  SegmentRing staging_;
  uint32_t staging_slot_ = 0;  // the open window's slot

  uint64_t send_seq_ = 0;  // segments transmitted (latency mode: tuples)
  // send_seq_ modulo the target ring's and the staging ring's slot counts,
  // advanced together with it.
  uint32_t target_slot_ = 0;
  uint32_t staging_wrap_ = 0;
  uint64_t cached_consumed_ = 0;  // latency mode: last read credit value
  uint64_t footer_reads_ = 0;
  bool signal_outstanding_ = false;
  bool closed_ = false;
  alignas(8) uint8_t scratch_footer_[sizeof(SegmentFooter)] = {};
};

/// Target half of a channel: a cursor over the target-side ring. Lives in
/// its target's column of the channel matrix (by value, in source order);
/// whichever sink consumes through it passes its own clock, so the sink
/// that eats a segment pays for it.
class ChannelTargetCursor {
 public:
  explicit ChannelTargetCursor(ChannelShared* shared) : shared_(shared) {}

  ChannelTargetCursor(const ChannelTargetCursor&) = delete;
  ChannelTargetCursor& operator=(const ChannelTargetCursor&) = delete;
  ChannelTargetCursor(ChannelTargetCursor&&) = default;

  /// Non-blocking: if the next segment is consumable, fills `view`,
  /// advances `clock` to its arrival and returns true. The previous
  /// segment (if any) is released first.
  bool TryConsume(SegmentView* view, VirtualClock* clock);

  /// Releases the segment returned by the last TryConsume at `clock`'s
  /// time, flipping it back to writable (paper: "sets the state to
  /// writable on subsequent consume calls"). No-op if nothing is held.
  void Release(VirtualClock* clock);

  /// True once the end-of-flow segment has been consumed and released.
  bool exhausted() const { return exhausted_; }

  ChannelShared* shared() const { return shared_; }

 private:
  ChannelShared* shared_;
  uint32_t consume_slot_ = 0;  // ring slot of the next segment to consume
  bool holding_ = false;
  bool exhausted_ = false;
};

}  // namespace dfi

#endif  // DFI_CORE_CHANNEL_H_
