#ifndef DFI_CORE_ENDPOINT_FLOW_SINK_H_
#define DFI_CORE_ENDPOINT_FLOW_SINK_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/channel.h"
#include "core/endpoint/abort_latch.h"
#include "core/endpoint/channel_matrix.h"
#include "core/schema.h"
#include "net/fault_plan.h"

namespace dfi {

class DeadlineWait;

/// One target column of the matrix, shared between the sink threads of a
/// same-node work-stealing group (opt-in via AdaptiveShuffleOptions). Owns
/// the per-source cursors; a cursor checked out by one sink is `busy` for
/// the others, which serializes consumption per channel and thereby keeps
/// per-channel content and order exactly as in the exclusive path. What
/// becomes scheduling-dependent is only *which* sink thread of the group
/// consumes a given segment.
class StealColumn {
 public:
  StealColumn(ChannelMatrix* matrix, uint32_t target_index);

  StealColumn(const StealColumn&) = delete;
  StealColumn& operator=(const StealColumn&) = delete;

  uint32_t target_index() const { return target_index_; }
  ReadyGate* gate() { return gate_; }
  const FlowOptions& options() const { return *options_; }

  /// Virtual clock and estimated per-segment processing cost of the
  /// column's owning sink, published by the owner on every consume call.
  /// The group schedules consumption by estimated completion times (see
  /// FlowSink::TryConsumeSegmentColumn): host threads race ahead of
  /// virtual time essentially for free, so without this a host-fast sink
  /// would vacuum up the whole group's segments and charge their cost to
  /// its own clock — *inflating* the emulated completion instead of
  /// improving it.
  SimTime owner_now = 0;
  SimTime owner_cost = 0;

  std::vector<std::unique_ptr<ChannelTargetCursor>> cursors;  // per source
  /// Cursor is checked out by some sink (its segment is being iterated).
  std::vector<uint8_t> busy;
  /// Ready-gate entries popped while their cursor was busy: replayed onto
  /// the gate when the cursor is released, so no delivery announcement is
  /// ever lost and the pop loop never cycles over busy entries.
  std::vector<uint32_t> deferred;
  uint32_t exhausted = 0;  // cursors that reached end-of-flow

  bool AllCursorsExhausted() const {
    return exhausted == static_cast<uint32_t>(cursors.size());
  }

 private:
  const uint32_t target_index_;
  ReadyGate* const gate_;
  const FlowOptions* const options_;
};

/// The same-node sink group: its columns plus one group-level wakeup that
/// every channel delivery (and release) bumps, so an idle sink wakes to
/// steal work queued for a busy sibling.
class SinkStealGroup {
 public:
  void AddColumn(StealColumn* column) { columns_.push_back(column); }
  const std::vector<StealColumn*>& columns() { return columns_; }
  ReadyGate& wake() { return wake_; }

 private:
  std::vector<StealColumn*> columns_;
  ReadyGate wake_;
};

/// Target half of the unified transport: one worker thread's view of its
/// column of the channel matrix. Owns the per-source cursors and with them
/// everything the paper's section 5 target side does — serving segments in
/// delivery order off the ready gate (O(deliveries) instead of an
/// O(num_sources) ring scan), footer-driven release/recycle, end-of-flow
/// accounting, and deadline-bounded blocking that surfaces teardown
/// (poison / flow abort), crashed peers (fault plan) and the flow deadline
/// as kError. Flow types differ only in what they do with the consumed
/// segments (iterate, aggregate).
class FlowSink {
 public:
  /// `label` names the flow type in failure messages ("shuffle",
  /// "replicate", "combiner"). `flow_abort` (optional) is checked while
  /// blocked, for flows with flow-granular teardown.
  FlowSink(ChannelMatrix* matrix, uint32_t target_index,
           const Schema* schema, const net::SimConfig* config,
           VirtualClock* clock, std::string label,
           std::vector<net::NodeId> source_nodes,
           const AbortLatch* flow_abort = nullptr);

  /// Work-stealing mode: this sink owns `column` but drains the whole
  /// `group` — its own column first, then (one-pass, opportunistic) the
  /// sibling columns. Virtual consume costs are charged to *this* sink's
  /// clock for whatever it eats, stolen or not. Flow end is the whole
  /// group drained, so a sink returns kFlowEnd only once no sibling could
  /// still hand it work.
  FlowSink(StealColumn* column, SinkStealGroup* group, const Schema* schema,
           const net::SimConfig* config, VirtualClock* clock,
           std::string label, std::vector<net::NodeId> source_nodes,
           const AbortLatch* flow_abort = nullptr);

  FlowSink(const FlowSink&) = delete;
  FlowSink& operator=(const FlowSink&) = delete;

  /// Non-blocking: releases the previously returned segment, then serves
  /// the next delivered one. Returns false if nothing is currently
  /// consumable (out_result distinguishes empty from flow end / error).
  bool TryConsumeSegment(SegmentView* out, ConsumeResult* out_result);

  /// Blocking: next whole segment, zero-copy. The view is valid until the
  /// next ConsumeSegment/Consume call.
  ConsumeResult ConsumeSegment(SegmentView* out);

  /// Blocking: next tuple out of the flow. Returns kFlowEnd once every
  /// source has closed and all segments are drained.
  ConsumeResult Consume(TupleView* out);

  /// Aborts the target side of this column: sources blocked on its full
  /// rings wake with the cause instead of waiting out their deadline.
  void Abort(const Status& cause);

  /// The failure behind the last ConsumeResult::kError (OK otherwise).
  const Status& last_status() const { return last_status_; }

  uint32_t num_sources() const {
    return static_cast<uint32_t>(
        column_ != nullptr ? column_->cursors.size() : cursors_.size());
  }
  /// Work-stealing mode: segments this sink consumed from sibling columns.
  uint64_t stolen_segments() const { return stolen_segments_; }

 private:
  /// Releases the held cursor (if any), tracking its exhaustion.
  void ReleaseHeld();
  /// One failure-poll round while blocked: surfaces flow teardown, crashed
  /// sources (fault plan), or the flow deadline as kError; ticks `wait`.
  /// Returns true when the consume call must stop. (Poison is detected in
  /// TryConsumeSegment.)
  bool CheckFailure(DeadlineWait* wait, ConsumeResult* out_result);

  // Work-stealing-mode internals (column_ != nullptr).
  void ReleaseHeldColumn();
  /// Replays deferred gate entries of cursor `idx`.
  static void ReplayDeferred(StealColumn* col, uint32_t idx);
  /// Pops and consumes from one column; fills out/out_result on success.
  bool ScanColumn(StealColumn* col, SegmentView* out,
                  ConsumeResult* out_result);
  /// True when some channel of the own column runs its ring within one
  /// segment of full — its producer may be about to block on a slot that
  /// only consumption can free, so the peak sink must not defer.
  bool OwnColumnRingPressure();
  bool TryConsumeSegmentColumn(SegmentView* out, ConsumeResult* out_result);

  ReadyGate* const gate_;
  const uint32_t target_index_;
  const Schema* const schema_;
  const net::SimConfig* const config_;
  VirtualClock* const clock_;
  const FlowOptions* const options_;
  const std::string label_;
  const std::vector<net::NodeId> source_nodes_;
  const AbortLatch* const flow_abort_;  // may be null
  std::vector<std::unique_ptr<ChannelTargetCursor>> cursors_;  // per source
  /// Work-stealing mode (else null): own column, the node group, and the
  /// own column's position within the group's scan order.
  StealColumn* const column_ = nullptr;
  SinkStealGroup* const group_ = nullptr;
  size_t own_pos_ = 0;
  StealColumn* held_col_ = nullptr;  // column of the held cursor
  uint64_t stolen_segments_ = 0;
  /// EWMA of this sink's app-side processing cost per segment (the clock
  /// advance between returning a segment and the next consume call);
  /// published on the own column for the group's completion estimates.
  SimTime my_cost_ = 0;
  bool cost_sample_armed_ = false;
  SimTime cost_sample_start_ = 0;
  SimTime last_published_now_ = 0;
  uint32_t exhausted_count_ = 0;  // cursors that reached end-of-flow
  uint64_t stale_pops_ = 0;  // ready-gate entries that raced an earlier pop
  int held_cursor_ = -1;  // cursor whose segment `current_` views
  SegmentView current_;
  uint32_t tuple_offset_ = 0;  // iteration state within current_
  Status last_status_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_FLOW_SINK_H_
