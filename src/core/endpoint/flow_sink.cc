#include "core/endpoint/flow_sink.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/deadline.h"

namespace dfi {

// ---------------------------------------------------------------------------
// StealColumn / SinkStealGroup
// ---------------------------------------------------------------------------

StealColumn::StealColumn(ChannelMatrix* matrix, uint32_t target_index)
    : target_index_(target_index),
      gate_(matrix->target_gate(target_index)),
      options_(&matrix->options()) {
  const uint32_t n = matrix->num_sources();
  cursors.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    // The cursors have no resident clock: every consume/release charges
    // the clock of whichever group sink performs it.
    cursors.push_back(std::make_unique<ChannelTargetCursor>(
        matrix->channel(s, target_index), /*clock=*/nullptr));
  }
  busy.assign(n, 0);
  deferred.assign(n, 0);
}

// ---------------------------------------------------------------------------
// FlowSink
// ---------------------------------------------------------------------------

FlowSink::FlowSink(ChannelMatrix* matrix, uint32_t target_index,
                   const Schema* schema, const net::SimConfig* config,
                   VirtualClock* clock, std::string label,
                   std::vector<net::NodeId> source_nodes,
                   const AbortLatch* flow_abort)
    : gate_(matrix->target_gate(target_index)),
      target_index_(target_index),
      schema_(schema),
      config_(config),
      clock_(clock),
      options_(&matrix->options()),
      label_(std::move(label)),
      source_nodes_(std::move(source_nodes)),
      flow_abort_(flow_abort) {
  const uint32_t n = matrix->num_sources();
  cursors_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    cursors_.push_back(std::make_unique<ChannelTargetCursor>(
        matrix->channel(s, target_index), clock_));
  }
}

FlowSink::FlowSink(StealColumn* column, SinkStealGroup* group,
                   const Schema* schema, const net::SimConfig* config,
                   VirtualClock* clock, std::string label,
                   std::vector<net::NodeId> source_nodes,
                   const AbortLatch* flow_abort)
    : gate_(column->gate()),
      target_index_(column->target_index()),
      schema_(schema),
      config_(config),
      clock_(clock),
      options_(&column->options()),
      label_(std::move(label)),
      source_nodes_(std::move(source_nodes)),
      flow_abort_(flow_abort),
      column_(column),
      group_(group) {
  const auto& cols = group_->columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == column_) {
      own_pos_ = i;
      break;
    }
  }
}

void FlowSink::ReleaseHeld() {
  if (column_ != nullptr) {
    ReleaseHeldColumn();
    return;
  }
  if (held_cursor_ < 0) return;
  ChannelTargetCursor& held = *cursors_[held_cursor_];
  // A held cursor is never already exhausted (exhaustion happens on the
  // release of the end-of-flow segment), so exhausted() flipping true here
  // is exactly the transition.
  held.Release();
  if (held.exhausted()) ++exhausted_count_;
  held_cursor_ = -1;
}

void FlowSink::ReleaseHeldColumn() {
  if (held_col_ == nullptr) return;
  const uint32_t idx = static_cast<uint32_t>(held_cursor_);
  ChannelTargetCursor& held = *held_col_->cursors[idx];
  held.Release(clock_);
  if (held.exhausted()) ++held_col_->exhausted;
  held_col_->busy[idx] = 0;
  ReplayDeferred(held_col_, idx);
  held_col_ = nullptr;
  held_cursor_ = -1;
  // A release can unblock siblings: the freed cursor's next segment
  // becomes poppable (replayed entries), and a drained column moves the
  // group toward flow end. Wake the group.
  group_->wake().Notify();
}

void FlowSink::ReplayDeferred(StealColumn* col, uint32_t idx) {
  uint32_t replay = col->deferred[idx];
  col->deferred[idx] = 0;
  while (replay-- > 0) col->gate()->Enqueue(idx);
}

bool FlowSink::ScanColumn(StealColumn* col, SegmentView* out,
                          ConsumeResult* out_result) {
  uint32_t idx = 0;
  while (col->gate()->TryDequeue(&idx)) {
    ChannelTargetCursor& cursor = *col->cursors[idx];
    if (cursor.exhausted()) continue;  // stale entry, already drained
    if (col->busy[idx] != 0) {
      // Another sink is iterating this cursor's segment; park the
      // announcement for replay on its release instead of re-enqueueing
      // (re-enqueued entries would cycle through this pop loop forever).
      ++col->deferred[idx];
      continue;
    }
    SegmentView view;
    if (!cursor.TryConsume(&view, clock_)) {
      // Raced an earlier pop; same virtual-time rule as the exclusive
      // path: never charge host-schedule noise to the clock.
      ++stale_pops_;
      continue;
    }
    clock_->Advance(config_->consume_segment_fixed_ns);
    if (view.bytes == 0) {
      // Pure end-of-flow marker: recycle silently. The exhaustion can
      // complete the group (flow end for siblings blocked in consume), so
      // it must bump the group wake like ReleaseHeldColumn does.
      cursor.Release(clock_);
      if (cursor.exhausted()) ++col->exhausted;
      ReplayDeferred(col, idx);
      group_->wake().Notify();
      continue;
    }
    col->busy[idx] = 1;
    held_col_ = col;
    held_cursor_ = static_cast<int>(idx);
    if (col != column_) ++stolen_segments_;
    view.target_column = static_cast<uint16_t>(col->target_index());
    *out = view;
    *out_result = ConsumeResult::kOk;
    return true;
  }
  return false;
}

bool FlowSink::OwnColumnRingPressure() {
  // Per-channel ring occupancy, deliberately NOT the column's aggregate
  // queue depth: a skewed column's aggregate backlog stays high through
  // the whole drain even while every producer still has free ring slots,
  // and overriding deferral on the aggregate would make the slow owner
  // churn through exactly the backlog its siblings should be levelling.
  const uint32_t full = column_->options().segments_per_ring;
  for (const auto& cursor : column_->cursors) {
    if (!cursor->exhausted() && cursor->shared()->inflight() + 1 >= full) {
      return true;
    }
  }
  return false;
}

bool FlowSink::TryConsumeSegmentColumn(SegmentView* out,
                                       ConsumeResult* out_result) {
  ReleaseHeldColumn();
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
  const auto& cols = group_->columns();
  const size_t n = cols.size();
  // Level-filling scheduler over *virtual* time. Host threads burn
  // through segments essentially for free in host time, so whoever the
  // host happens to schedule would otherwise eat the whole backlog and
  // charge it to one clock, inflating the emulated completion. Instead
  // each sink publishes (clock, per-segment cost) and the group keeps all
  // clocks level with the current maximum:
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
  // adaptive sink then consumes exactly like the exclusive one. Deferring
  // also stops when some channel of the own column runs its ring near
  // full: a producer may be about to block on a slot only consumption can
  // free — correctness over balance (see OwnColumnRingPressure()).
  const SimTime my_done = my_now + my_cost;
  SimTime group_max = my_now;
  SimTime best_sibling_done = my_done;
  for (StealColumn* col : cols) {
    const SimTime sib_now = col->owner_now;
    group_max = std::max(group_max, sib_now);
    if (col != column_) {
      best_sibling_done =
          std::min(best_sibling_done, sib_now + col->owner_cost);
    }
  }
  const bool defer_own = my_done >= group_max &&
                         best_sibling_done < group_max &&
                         !OwnColumnRingPressure();
  bool all_exhausted = true;
  // Own column first, then the siblings in rotating group order.
  for (size_t i = 0; i < n; ++i) {
    StealColumn* col = cols[(own_pos_ + i) % n];
    const bool skip = col == column_ ? defer_own : my_done >= group_max;
    if (!skip && ScanColumn(col, out, out_result)) {
      // Arm the cost sample at the post-consume clock; the next call's
      // delta is the app's processing time for this segment.
      cost_sample_armed_ = true;
      cost_sample_start_ = clock_->now();
      return true;
    }
    all_exhausted = all_exhausted && col->AllCursorsExhausted();
  }
  if (all_exhausted) {
    *out_result = ConsumeResult::kFlowEnd;
    return true;  // definitive: every column of the group is drained
  }
  // Our published clock advanced (e.g. source-side pushes on an
  // interleaved worker) and we consumed nothing — a sibling's steal test
  // against our column may have just turned true while it sits blocked.
  // Bump the group wake exactly once per advance; a repeat poll with an
  // unchanged clock stays silent, so blocked waiters are not spun awake.
  if (my_now > last_published_now_) {
    last_published_now_ = my_now;
    group_->wake().Notify();
  }
  // Nothing consumable: surface teardown through the non-blocking path.
  // The own column sees a channel from every source, so any source-level
  // abort is visible here.
  for (auto& cursor : column_->cursors) {
    if (!cursor->exhausted() && cursor->shared()->poisoned()) {
      last_status_ = cursor->shared()->poison_status();
      *out_result = ConsumeResult::kError;
      return true;
    }
  }
  return false;
}

bool FlowSink::TryConsumeSegment(SegmentView* out,
                                 ConsumeResult* out_result) {
  if (column_ != nullptr) return TryConsumeSegmentColumn(out, out_result);
  // Release the previously returned segment.
  ReleaseHeld();
  // Pop delivered channels off the ready list instead of scanning all
  // rings: cost is O(deliveries handled), independent of how many source
  // channels sit idle.
  uint32_t idx = 0;
  while (gate_->TryDequeue(&idx)) {
    ChannelTargetCursor& cursor = *cursors_[idx];
    if (cursor.exhausted()) continue;  // stale entry, already drained
    SegmentView view;
    if (!cursor.TryConsume(&view)) {
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
    if (view.bytes == 0) {
      // Pure end-of-flow marker: recycle silently. (End markers may also
      // carry a final partial payload; those are surfaced normally.)
      cursor.Release();
      if (cursor.exhausted()) ++exhausted_count_;
      continue;
    }
    held_cursor_ = static_cast<int>(idx);
    view.target_column = static_cast<uint16_t>(target_index_);
    *out = view;
    *out_result = ConsumeResult::kOk;
    return true;
  }
  if (exhausted_count_ == cursors_.size()) {
    *out_result = ConsumeResult::kFlowEnd;
    return true;  // definitive answer
  }
  // Nothing consumable: surface teardown through the non-blocking path too
  // (already-delivered segments above still drain ahead of the error).
  for (auto& cursor : cursors_) {
    if (!cursor->exhausted() && cursor->shared()->poisoned()) {
      last_status_ = cursor->shared()->poison_status();
      *out_result = ConsumeResult::kError;
      return true;
    }
  }
  return false;
}

bool FlowSink::CheckFailure(DeadlineWait* wait, ConsumeResult* out_result) {
  // Flow-level teardown first (flows with flow-granular abort semantics).
  if (flow_abort_ != nullptr && flow_abort_->tripped()) {
    last_status_ = flow_abort_->status();
    wait->Commit();
    *out_result = ConsumeResult::kError;
    return true;
  }
  // A crashed source never sends its end-of-flow marker; ask the fault
  // plan so the failure surfaces as kPeerFailed instead of waiting out the
  // full deadline. (Poison is detected in TryConsumeSegment.) In
  // work-stealing mode the own column carries one channel per source, so
  // polling it covers every peer.
  int dead_source = -1;
  uint32_t open_channels = 0;
  const SimTime now = wait->ProvisionalNow();
  auto poll = [&](const std::vector<std::unique_ptr<ChannelTargetCursor>>&
                      cursors) {
    const net::FaultPlan* plan =
        cursors.empty() ? nullptr : cursors[0]->shared()->fault_plan();
    const bool active = plan != nullptr && plan->active();
    for (uint32_t s = 0; s < cursors.size(); ++s) {
      if (cursors[s]->exhausted()) continue;
      ++open_channels;
      const net::NodeId src = source_nodes_[s];
      if (active && dead_source < 0 && src != net::kInvalidNode &&
          !plan->NodeAlive(src, now)) {
        dead_source = static_cast<int>(s);
      }
    }
  };
  if (column_ != nullptr) {
    poll(column_->cursors);
  } else {
    poll(cursors_);
  }
  if (dead_source >= 0) {
    last_status_ = Status::PeerFailed(
        label_ + " source " + std::to_string(dead_source) + " on node " +
        std::to_string(source_nodes_[dead_source]) +
        " failed before closing its channel");
    wait->Commit();
    *out_result = ConsumeResult::kError;
    return true;
  }
  if (!wait->Tick()) {
    last_status_ = Status::DeadlineExceeded(
        label_ + " consume deadline elapsed with " +
        std::to_string(open_channels) + " source channel(s) still open");
    wait->Commit();
    *out_result = ConsumeResult::kError;
    return true;
  }
  return false;
}

ConsumeResult FlowSink::ConsumeSegment(SegmentView* out) {
  DeadlineWait wait(*options_, clock_);
  // Work-stealing mode blocks on the group-level wakeup (bumped by every
  // delivery to and release within the group); exclusive mode on the own
  // ready gate.
  ReadyGate& wake = group_ != nullptr ? group_->wake() : *gate_;
  for (;;) {
    // Capture the version before scanning so a delivery racing with the
    // scan is never missed.
    const uint64_t version = wake.version();
    ConsumeResult result;
    if (TryConsumeSegment(out, &result)) return result;
    if (CheckFailure(&wait, &result)) return result;
    wait.Block(wake, version);
  }
}

ConsumeResult FlowSink::Consume(TupleView* out) {
  const uint32_t tuple_size =
      static_cast<uint32_t>(schema_->tuple_size());
  for (;;) {
    if (current_.payload != nullptr &&
        tuple_offset_ + tuple_size <= current_.bytes) {
      *out = TupleView(current_.payload + tuple_offset_, schema_);
      tuple_offset_ += tuple_size;
      clock_->Advance(config_->tuple_consume_fixed_ns);
      return ConsumeResult::kOk;
    }
    current_ = SegmentView{};
    tuple_offset_ = 0;
    SegmentView view;
    const ConsumeResult r = ConsumeSegment(&view);
    if (r != ConsumeResult::kOk) return r;
    current_ = view;
  }
}

void FlowSink::Abort(const Status& cause) {
  if (column_ != nullptr) {
    for (auto& cursor : column_->cursors) cursor->shared()->Poison(cause);
    return;
  }
  for (auto& cursor : cursors_) cursor->shared()->Poison(cause);
}

}  // namespace dfi
