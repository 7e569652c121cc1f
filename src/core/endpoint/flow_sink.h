#ifndef DFI_CORE_ENDPOINT_FLOW_SINK_H_
#define DFI_CORE_ENDPOINT_FLOW_SINK_H_

#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/channel.h"
#include "core/endpoint/abort_latch.h"
#include "core/endpoint/channel_matrix.h"
#include "core/ring_sync.h"
#include "core/schema.h"
#include "net/fault_plan.h"

namespace dfi {

class DeadlineWait;

/// A same-node work-stealing sink group (adaptive shuffles): a set of
/// columns of one matrix whose sinks drain each other's columns, plus one
/// group-level wakeup that every channel delivery (and release) bumps, so
/// an idle sink wakes to steal work queued for a busy sibling. The columns
/// stay the matrix's; joining a group sizes their busy/deferred state.
class SinkStealGroup {
 public:
  void AddColumn(TargetColumn* column) {
    column->busy.assign(column->cursors.size(), 0);
    column->deferred.assign(column->cursors.size(), 0);
    columns_.push_back(column);
  }
  const std::vector<TargetColumn*>& columns() const { return columns_; }
  RingSync& wake() { return wake_; }

 private:
  std::vector<TargetColumn*> columns_;
  RingSync wake_;
};

/// Target half of the unified transport: one worker thread's consumer of
/// its column of the channel matrix. It does everything the paper's
/// section 5 target side does — serving segments in delivery order off the
/// ready gate (O(deliveries) instead of an O(num_sources) ring scan),
/// footer-driven release/recycle, end-of-flow accounting, and
/// deadline-bounded blocking that surfaces teardown (poison / flow abort),
/// crashed peers (fault plan) and the flow deadline as kError. Flow types
/// differ only in what they do with the consumed segments (iterate,
/// aggregate).
///
/// A sink in a steal group drains its own column first, then the sibling
/// columns, and charges whatever it eats to its own clock; it returns
/// kFlowEnd only once every column of the group is drained. A sink without
/// a group drains its own column alone and skips the group's schedule
/// (pacing, level filling, busy marking, group wakeups).
class FlowSink {
 public:
  /// Consumes column `target_index` of `matrix`; `group` is the column's
  /// steal group, or null. `label` names the flow type in failure messages
  /// ("shuffle", "replicate", "combiner"). `flow_abort` (optional) is
  /// checked while blocked, for flows with flow-granular teardown.
  FlowSink(ChannelMatrix* matrix, uint32_t target_index,
           SinkStealGroup* group, const Schema* schema,
           const net::SimConfig* config, VirtualClock* clock,
           std::string label, std::vector<net::NodeId> source_nodes,
           const AbortLatch* flow_abort = nullptr);

  FlowSink(const FlowSink&) = delete;
  FlowSink& operator=(const FlowSink&) = delete;

  /// Non-blocking: releases the previously returned segment, then serves
  /// the next delivered one. Returns false if nothing is currently
  /// consumable (out_result distinguishes empty from flow end / error).
  /// `*out` is unspecified unless the result is kOk.
  bool TryConsumeSegment(SegmentView* out, ConsumeResult* out_result);

  /// Blocking: next whole segment, zero-copy. The view is valid until the
  /// next ConsumeSegment/Consume call, and unspecified unless the result
  /// is kOk.
  ConsumeResult ConsumeSegment(SegmentView* out);

  /// Blocking: next tuple out of the flow. Returns kFlowEnd once every
  /// source has closed and all segments are drained.
  ConsumeResult Consume(TupleView* out);

  /// Aborts the target side of this column: sources blocked on its full
  /// rings wake with the cause instead of waiting out their deadline.
  void Abort(const Status& cause);

  /// The failure behind the last ConsumeResult::kError (OK otherwise).
  const Status& last_status() const { return last_status_; }

  /// Segments this sink consumed from sibling columns (0 without a group).
  uint64_t stolen_segments() const { return stolen_segments_; }

 private:
  /// Releases cursor `idx` of `col` and counts its exhaustion; in a group
  /// also frees the cursor for the siblings and wakes them.
  void Recycle(TargetColumn* col, uint32_t idx);
  /// Pops and consumes from one column; fills out/out_result on success
  /// (`*out` may be overwritten on failure too).
  bool ScanColumn(TargetColumn* col, SegmentView* out,
                  ConsumeResult* out_result);
  /// Steal group only: paces, publishes this sink's clock and cost on its
  /// column and decides the level-filling schedule. Returns whether the
  /// own column is deferred; sets `*steal` when siblings may be drained.
  bool LevelGroup(bool* steal);
  /// True when some channel of the own column runs its ring within one
  /// segment of full — its producer may be about to block on a slot that
  /// only consumption can free, so the peak sink must not defer.
  bool OwnColumnRingPressure() const;
  /// One failure-poll round while blocked: surfaces flow teardown, crashed
  /// sources (fault plan), or the flow deadline as kError; ticks `wait`.
  /// Returns true when the consume call must stop. (Poison is detected in
  /// TryConsumeSegment.)
  bool CheckFailure(DeadlineWait* wait, ConsumeResult* out_result);

  TargetColumn* const column_;
  SinkStealGroup* const group_;  // null: no siblings
  const Schema* const schema_;
  const net::SimConfig* const config_;
  VirtualClock* const clock_;
  const FlowOptions* const options_;
  const std::string label_;
  const std::vector<net::NodeId> source_nodes_;
  const AbortLatch* const flow_abort_;  // may be null
  /// The group's other columns, in scan order: rotated to start behind the
  /// own column's position in the group.
  std::vector<TargetColumn*> siblings_;
  TargetColumn* held_col_ = nullptr;  // column of the held cursor
  uint32_t held_cursor_ = 0;          // cursor whose segment `current_` views
  uint64_t stolen_segments_ = 0;
  /// Steal group only: EWMA of this sink's app-side processing cost per
  /// segment (the clock advance between returning a segment and the next
  /// consume call), published on the own column.
  SimTime my_cost_ = 0;
  bool cost_sample_armed_ = false;
  SimTime cost_sample_start_ = 0;
  SimTime last_published_now_ = 0;
  uint64_t stale_pops_ = 0;  // ready-gate entries that raced an earlier pop
  SegmentView current_;
  uint32_t tuple_offset_ = 0;  // iteration state within current_
  Status last_status_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_FLOW_SINK_H_
