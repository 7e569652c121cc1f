#include "core/endpoint/flow_sink.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/deadline.h"

namespace dfi {

FlowSink::FlowSink(ChannelMatrix* matrix, uint32_t target_index,
                   SinkStealGroup* group, const Schema* schema,
                   const net::SimConfig* config, VirtualClock* clock,
                   std::string label, std::vector<net::NodeId> source_nodes)
    : column_(matrix->column(target_index)),
      group_(group),
      config_(config),
      clock_(clock),
      options_(&matrix->options()),
      what_(std::move(label) + " consume"),
      source_nodes_(std::move(source_nodes)),
      tuples_(schema, config, clock) {
  if (group_ == nullptr) return;
  const std::vector<TargetColumn*>& cols = group_->columns();
  const auto own = std::find(cols.begin(), cols.end(), column_);
  DFI_CHECK(own != cols.end()) << "steal group lacks the sink's column";
  siblings_.assign(own + 1, cols.end());
  siblings_.insert(siblings_.end(), cols.begin(), own);
}

void FlowSink::Recycle(TargetColumn* col, uint32_t idx) {
  ChannelTargetCursor& cursor = col->cursors[idx];
  // A held cursor is never already exhausted (exhaustion happens on the
  // release of the end-of-flow segment), so exhausted() flipping true here
  // is exactly the transition.
  cursor.Release(clock_);
  if (cursor.exhausted()) ++col->exhausted;
  if (group_ == nullptr) return;
  // A release can unblock siblings: the freed cursor's next segment
  // becomes poppable (replayed entries), and a drained column moves the
  // group toward flow end. Wake the group.
  col->busy[idx] = 0;
  uint32_t replay = col->deferred[idx];
  col->deferred[idx] = 0;
  while (replay-- > 0) col->gate.Enqueue(idx);
  group_->wake().Notify();
}

bool FlowSink::ScanColumn(TargetColumn* col, SegmentView* out,
                          ConsumeResult* out_result) {
  // Pop delivered channels off the ready list instead of scanning all
  // rings: cost is O(deliveries handled), independent of how many source
  // channels sit idle.
  uint32_t idx = 0;
  while (col->gate.TryDequeue(&idx)) {
    ChannelTargetCursor& cursor = col->cursors[idx];
    if (cursor.exhausted()) continue;  // stale entry, already drained
    if (group_ != nullptr && col->busy[idx] != 0) {
      // Another sink is iterating this cursor's segment; park the
      // announcement for replay on its release instead of re-enqueueing
      // (re-enqueued entries would cycle through this pop loop forever).
      ++col->deferred[idx];
      continue;
    }
    // Consumed straight into the caller's view (unspecified unless the
    // result is kOk): a local copy would reload the fields just written.
    if (!cursor.TryConsume(out, clock_)) {
      // Entry raced an earlier pop that consumed this delivery. The stale
      // entry is an artifact of the ready list's real-time mirror of ring
      // state — how many occur depends on host scheduling, not on emulated
      // behavior — so charging virtual time here would leak host-schedule
      // noise into the consumer clock (and, through slot-release
      // timestamps, into producer wire times), breaking the determinism
      // contract. Count it for stats instead.
      ++stale_pops_;
      continue;
    }
    clock_->Advance(config_->consume_segment_fixed_ns);
    if (out->bytes == 0) {
      // Pure end-of-flow marker: recycle silently. (End markers may also
      // carry a final partial payload; those are surfaced normally.) In a
      // group the exhaustion can complete the group, so Recycle wakes it.
      Recycle(col, idx);
      continue;
    }
    held_col_ = col;
    held_cursor_ = idx;
    if (group_ != nullptr) {
      col->busy[idx] = 1;
      if (col != column_) ++stolen_segments_;
      // Arm the cost sample at the post-consume clock; the next call's
      // delta is the app's processing time for this segment.
      cost_sample_armed_ = true;
      cost_sample_start_ = clock_->now();
    }
    out->target_column = static_cast<uint16_t>(col->index);
    *out_result = ConsumeResult::kOk;
    return true;
  }
  return false;
}

bool FlowSink::OwnColumnRingPressure() const {
  // Per-channel ring occupancy, deliberately NOT the column's aggregate
  // queue depth: a skewed column's aggregate backlog stays high through
  // the whole drain even while every producer still has free ring slots,
  // and overriding deferral on the aggregate would make the slow owner
  // churn through exactly the backlog its siblings should be levelling.
  const uint32_t full = options_->segments_per_ring;
  for (const ChannelTargetCursor& cursor : column_->cursors) {
    if (!cursor.exhausted() && cursor.shared()->inflight() + 1 >= full) {
      return true;
    }
  }
  return false;
}

bool FlowSink::LevelGroup(bool* steal) {
  // The level-filling decision below reads the siblings' published clocks:
  // let siblings that lag behind in virtual time publish first.
  exec::Engine::Pace(clock_->now());
  const SimTime my_now = clock_->now();
  // Sample this sink's app-side per-segment processing cost: the clock
  // advance between handing out a segment and the next consume call.
  if (cost_sample_armed_) {
    cost_sample_armed_ = false;
    const SimTime delta = my_now - cost_sample_start_;
    my_cost_ = my_cost_ == 0 ? delta : (3 * my_cost_ + delta) / 4;
  }
  const SimTime my_cost = my_cost_ + config_->consume_segment_fixed_ns;
  column_->owner_now = my_now;
  column_->owner_cost = my_cost;
  // Level-filling scheduler over *virtual* time. Tasks run ahead of the
  // virtual clock essentially for free in host time, so whichever sink the
  // engine happens to run would otherwise eat the whole backlog and charge
  // it to one clock, inflating the emulated completion. Instead each sink
  // publishes (clock, per-segment cost) and the group keeps all clocks
  // level with the current maximum:
  //  - a sink may *steal* only while the stolen segment keeps its clock
  //    below the group max (my_now + my_cost < max) — such a move can
  //    never raise the makespan, and it strictly helps when the donor
  //    would otherwise push past the max;
  //  - the *peak* sink (my_now + my_cost >= max) defers even its own
  //    column while some sibling would take the head strictly below the
  //    max — that sibling's steal test passes, so the work is picked up,
  //    and a below-max sink never defers, so the group always makes
  //    progress.
  // On balanced load the clocks stay level and neither rule fires — the
  // sink then consumes exactly like one without siblings. Deferring also
  // stops when some channel of the own column runs its ring near full: a
  // producer may be about to block on a slot only consumption can free —
  // correctness over balance (see OwnColumnRingPressure()).
  const SimTime my_done = my_now + my_cost;
  SimTime group_max = my_now;
  SimTime best_sibling_done = my_done;
  for (const TargetColumn* col : siblings_) {
    group_max = std::max(group_max, col->owner_now);
    best_sibling_done =
        std::min(best_sibling_done, col->owner_now + col->owner_cost);
  }
  *steal = my_done < group_max;
  return my_done >= group_max && best_sibling_done < group_max &&
         !OwnColumnRingPressure();
}

bool FlowSink::TryConsumeSegment(SegmentView* out,
                                 ConsumeResult* out_result) {
  // Release the previously returned segment.
  if (held_col_ != nullptr) {
    Recycle(held_col_, held_cursor_);
    held_col_ = nullptr;
  }
  bool steal = false;
  const bool defer_own = group_ != nullptr && LevelGroup(&steal);
  // Own column first, then the siblings in the group's rotating order.
  if (!defer_own && ScanColumn(column_, out, out_result)) return true;
  bool drained = column_->AllExhausted();
  for (TargetColumn* col : siblings_) {
    if (steal && ScanColumn(col, out, out_result)) return true;
    drained = drained && col->AllExhausted();
  }
  if (drained) {
    *out_result = ConsumeResult::kFlowEnd;
    return true;  // definitive: every column this sink drains is exhausted
  }
  // Our published clock advanced (e.g. source-side pushes on an
  // interleaved worker) and we consumed nothing — a sibling's steal test
  // against our column may have just turned true while it sits blocked.
  // Bump the group wake exactly once per advance; a repeat poll with an
  // unchanged clock stays silent, so blocked waiters are not spun awake.
  if (group_ != nullptr && column_->owner_now > last_published_now_) {
    last_published_now_ = column_->owner_now;
    group_->wake().Notify();
  }
  // Nothing consumable: surface teardown through the non-blocking path too
  // (already-delivered segments above still drain ahead of the error). The
  // own column sees a channel from every source, so any source-level abort
  // is visible here.
  for (const ChannelTargetCursor& cursor : column_->cursors) {
    if (!cursor.exhausted() && cursor.shared()->poisoned()) {
      last_status_ = cursor.shared()->poison_status();
      *out_result = ConsumeResult::kError;
      return true;
    }
  }
  return false;
}

Status FlowSink::Failure(SimTime now) const {
  // A crashed source never sends its end-of-flow marker; ask the fault
  // plan so the failure surfaces as kPeerFailed instead of waiting out the
  // full deadline. The own column carries one channel per source, so
  // polling it covers every peer, with or without a steal group.
  const std::vector<ChannelTargetCursor>& cursors = column_->cursors;
  const net::FaultPlan* plan = cursors[0].shared()->fault_plan();
  if (!plan->active()) return Status::OK();
  for (uint32_t s = 0; s < cursors.size(); ++s) {
    const net::NodeId src = source_nodes_[s];
    if (!cursors[s].exhausted() && src != net::kInvalidNode &&
        !plan->NodeAlive(src, now)) {
      return Status::PeerFailed(what_ + ": source " + std::to_string(s) +
                                " on node " + std::to_string(src) +
                                " failed before closing its channel");
    }
  }
  return Status::OK();
}

ConsumeResult FlowSink::ConsumeSegment(SegmentView* out) {
  // A sink in a steal group blocks on the group-level wakeup (bumped by
  // every delivery to and release within the group); one without siblings
  // on its own ready gate.
  RingSync& wake = group_ != nullptr ? group_->wake() : column_->gate;
  ConsumeResult result;
  auto consumed = [&] { return TryConsumeSegment(out, &result); };
  auto failed = [&](SimTime now) { return Failure(now); };
  Status status =
      DeadlineWait(*options_, clock_).Until(wake, consumed, failed, what_);
  if (!status.ok()) {
    last_status_ = std::move(status);
    return ConsumeResult::kError;
  }
  return result;
}

ConsumeResult FlowSink::Consume(TupleView* out) {
  return tuples_.Next(
      out, [this](SegmentView* view) { return ConsumeSegment(view); });
}

void FlowSink::Abort(const Status& cause) {
  for (ChannelTargetCursor& cursor : column_->cursors) {
    cursor.shared()->Poison(cause);
  }
}

}  // namespace dfi
