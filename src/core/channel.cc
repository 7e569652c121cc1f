#include "core/channel.h"

#include <algorithm>
#include <cstring>

#include "common/exec/engine.h"
#include "common/logging.h"
#include "core/deadline.h"
#include "core/endpoint/backpressure.h"

namespace dfi {
namespace {

uint32_t RoundUp8(uint32_t v) { return (v + 7u) & ~7u; }

}  // namespace

// ---------------------------------------------------------------------------
// ChannelShared
// ---------------------------------------------------------------------------

uint32_t ChannelShared::PayloadCapacityFor(const FlowOptions& options,
                                           uint32_t tuple_size) {
  if (options.optimization == FlowOptimization::kLatency) {
    return RoundUp8(tuple_size);
  }
  return std::max(RoundUp8(options.segment_size), RoundUp8(tuple_size));
}

ChannelShared::ChannelShared(rdma::RdmaContext* target_ctx,
                             const FlowOptions& options, uint32_t tuple_size,
                             uint16_t source_index)
    : options_(options),
      tuple_size_(tuple_size),
      source_index_(source_index),
      target_node_(target_ctx->node_id()),
      fault_plan_(&target_ctx->env().fabric().fault_plan()) {
  const uint32_t capacity = PayloadCapacityFor(options, tuple_size);
  const uint32_t num_segments = options.segments_per_ring;
  DFI_CHECK_GT(num_segments, 1u) << "a ring needs at least 2 segments";
  const size_t ring_bytes =
      static_cast<size_t>(capacity + sizeof(SegmentFooter)) * num_segments;
  ring_mr_ = target_ctx->AllocateRegion(ring_bytes);
  ring_ = SegmentRing(ring_mr_->addr(), capacity, num_segments);
  // Registered memory starts unspecified. Every footer starts zeroed,
  // hence writable: sources check it and targets poll its flags before
  // any source wrote the slot. Payload bytes are read only once written.
  for (uint32_t i = 0; i < num_segments; ++i) {
    *ring_.footer(i) = SegmentFooter{};
  }
  credit_mr_ = target_ctx->AllocateRegion(64);
  // The latency-mode credit word (tuples consumed) starts at 0.
  StoreConsumed(0);
  slot_free_time_.assign(num_segments, 0);
}

uint64_t ChannelShared::LoadConsumed() const {
  uint64_t consumed;
  std::memcpy(&consumed, credit_mr_->addr(), sizeof(consumed));
  return consumed;
}

void ChannelShared::StoreConsumed(uint64_t consumed) {
  std::memcpy(credit_mr_->addr(), &consumed, sizeof(consumed));
}

void ChannelShared::IncrementConsumed() { StoreConsumed(LoadConsumed() + 1); }

void ChannelShared::Poison(const Status& cause) {
  if (!poison_.Trip(cause)) return;  // first cause wins
  sync_.Notify();
  if (target_gate_ != nullptr) target_gate_->Notify();
  if (steal_wake_ != nullptr) steal_wake_->Notify();
}

void ChannelShared::AnnounceDelivered() {
  ++inflight_;
  if (load_board_ != nullptr) load_board_->OnDelivered(load_target_);
  if (steal_wake_ != nullptr) steal_wake_->Notify();
}

void ChannelShared::AnnounceConsumed() {
  --inflight_;
  if (load_board_ != nullptr) load_board_->OnConsumed(load_target_);
}

// ---------------------------------------------------------------------------
// ChannelSource
// ---------------------------------------------------------------------------

ChannelSource::ChannelSource(ChannelShared* shared,
                             rdma::RdmaContext* source_ctx,
                             VirtualClock* clock)
    : shared_(shared),
      clock_(clock),
      config_(&source_ctx->config()),
      latency_(shared->options().optimization ==
               FlowOptimization::kLatency) {
  const uint32_t tuple_size = shared_->tuple_size();
  tuple_push_cost_ns_ =
      config_->tuple_push_fixed_ns +
      RoundNs(tuple_size * config_->tuple_copy_ns_per_byte);
  send_cq_ = source_ctx->CreateCq();
  qp_ = source_ctx->CreateRcQp(shared_->target_node(), send_cq_);
  const uint32_t capacity = shared_->ring().payload_capacity();
  window_bytes_ = capacity / tuple_size * tuple_size;
  const uint32_t staging_slots =
      latency_ ? 1 : std::max(2u, shared_->options().source_segments);
  const size_t staging_bytes =
      static_cast<size_t>(capacity + sizeof(SegmentFooter)) * staging_slots;
  staging_mr_ = source_ctx->AllocateRegion(staging_bytes);
  staging_ = SegmentRing(staging_mr_->addr(), capacity, staging_slots);
}

ChannelSource::~ChannelSource() {
  // A poisoned channel was torn down on purpose (flow abort, crashed
  // peer): its target observes the teardown, not a missing end-of-flow.
  if (!closed_ && !shared_->poisoned()) {
    DFI_LOG(WARNING) << "ChannelSource destroyed without Close(); the "
                        "target will never observe end-of-flow";
  }
}

Status ChannelSource::Seal(uint32_t fill) {
  if (fill == 0) return Status::OK();
  const uint8_t* payload = staging_.payload(staging_slot_);
  staging_slot_ = staging_.next_slot(staging_slot_);
  return TransmitSegment(payload, fill, /*end=*/false);
}

Status ChannelSource::Push(const void* tuple) {
  if (closed_) {
    return Status::FailedPrecondition("push on closed channel");
  }
  DFI_DCHECK(latency_);  // open bandwidth channels stage through window()
  clock_->Advance(tuple_push_cost_ns_);
  // One tuple = one segment, transmitted immediately (flow control via
  // credits inside TransmitSegment).
  const uint32_t len = shared_->tuple_size();
  std::memcpy(staging_.payload(0), tuple, len);
  return TransmitSegment(staging_.payload(0), len, /*end=*/false);
}

Status ChannelSource::PushSegment(uint8_t* staged_slot, uint32_t fill,
                                  bool end) {
  if (closed_) {
    return Status::FailedPrecondition("push on closed channel");
  }
  DFI_RETURN_IF_ERROR(TransmitSegment(staged_slot, fill, end));
  if (end) closed_ = true;
  return Status::OK();
}

void ChannelSource::Abort(const Status& cause) {
  const bool was_poisoned = shared_->poisoned();
  shared_->Poison(cause);
  closed_ = true;
  if (was_poisoned) return;
  // Best-effort poisoned footer publication into the slot the target polls
  // next (its cursor trails our send sequence in ring order), so a remote
  // footer poller discovers the teardown through the data path itself. If
  // the write fails — e.g. our own node is the one the fault plan crashed —
  // the shared poison state above already did the job.
  const SegmentRing& ring = shared_->ring();
  uint8_t poison_flag = kFlagPoisoned;
  rdma::WriteDesc desc;
  desc.local = &poison_flag;
  desc.remote = shared_->ring_mr()->RefAt(ring.footer_offset(target_slot_) +
                                          sizeof(SegmentFooter) - 1);
  desc.length = 1;
  desc.wr_id = send_seq_;
  desc.signaled = false;
  desc.inlined = true;
  (void)qp_->PostWrite(desc, clock_);
  shared_->sync().Notify();
  if (ReadyGate* gate = shared_->target_gate(); gate != nullptr) {
    gate->Notify();
  }
  if (RingSync* wake = shared_->steal_wake(); wake != nullptr) {
    wake->Notify();
  }
}

Status ChannelSource::Close(uint32_t fill) {
  if (closed_) return Status::OK();
  if (shared_->poisoned()) {
    closed_ = true;
    return shared_->poison_status();
  }
  DFI_RETURN_IF_ERROR(TransmitSegment(staging_.payload(staging_slot_), fill,
                                      /*end=*/true));
  closed_ = true;
  return Status::OK();
}

Status ChannelSource::EnsureRemoteWritable(uint32_t idx) {
  const SegmentRing& ring = shared_->ring();
  if (ring.LoadFlags(idx) == kFlagWritable) {
    // Fast path: the pipelined footer prefetch (issued together with the
    // previous write of this ring) already told us the slot is free.
    return Status::OK();
  }
  // The slot looks busy, but the consumer may merely lag behind in virtual
  // time: let it catch up. A slot it then released before now is one the
  // prefetch of a concurrently running consumer would have found free.
  exec::Engine::Pace(clock_->now());
  if (ring.LoadFlags(idx) == kFlagWritable &&
      ring.footer(idx)->arrival_sim_time <= clock_->now()) {
    return Status::OK();
  }
  // Slow path: the remote ring is full. On hardware the source polls the
  // footer with RDMA reads and capped exponential backoff; here the caller
  // parks its engine fiber while DeadlineWait keeps the virtual backoff
  // ledger. A successful wait charges from the footer's free timestamp;
  // teardown, a dead consumer, or the flow deadline end the wait with an
  // error instead of hanging forever.
  auto writable = [&] { return ring.LoadFlags(idx) == kFlagWritable; };
  auto failed = [&](SimTime now) { return PeerStatus(now); };
  DFI_RETURN_IF_ERROR(DeadlineWait(shared_->options(), clock_)
                          .Until(shared_->sync(), writable, failed,
                                 "remote ring full"));
  clock_->AdvanceTo(ring.footer(idx)->arrival_sim_time);
  rdma::ReadDesc read;
  read.local = scratch_footer_;
  read.remote = shared_->ring_mr()->RefAt(ring.footer_offset(idx));
  read.length = sizeof(SegmentFooter);
  auto timing = qp_->PostRead(read, clock_);
  if (!timing.ok()) return timing.status();
  clock_->AdvanceTo(timing->arrival);
  ++footer_reads_;
  return Status::OK();
}

Status ChannelSource::EnsureCredit() {
  const uint32_t slots = shared_->ring().num_segments();
  const uint64_t threshold = std::max<uint64_t>(1, slots / 4);
  uint64_t avail = slots - (send_seq_ - cached_consumed_);
  if (avail > threshold) return Status::OK();
  // The refresh reads the consumer's counter: let a consumer that lags
  // behind in virtual time catch up first, or the read sees stale credit.
  exec::Engine::Pace(clock_->now());

  // Running low: refresh the cached copy of the remote credit counter with
  // an RDMA read (paper section 5.3).
  auto refresh = [&]() -> Status {
    rdma::ReadDesc read;
    read.local = scratch_footer_;
    read.remote = shared_->credit_ref();
    read.length = sizeof(uint64_t);
    auto timing = qp_->PostRead(read, clock_);
    if (!timing.ok()) return timing.status();
    cached_consumed_ = shared_->LoadConsumed();
    clock_->AdvanceTo(timing->arrival);
    return Status::OK();
  };
  DFI_RETURN_IF_ERROR(refresh());
  avail = slots - (send_seq_ - cached_consumed_);

  // Out of credit: wait until the consumer's counter moves, then charge
  // from the freed slot's timestamp and re-read it. A refresh that moved
  // the counter always yields credit; one that fails ends the wait.
  Status read;
  auto credited = [&] {
    if (avail == 0 && shared_->LoadConsumed() > cached_consumed_) {
      clock_->AdvanceTo(shared_->slot_free_time(target_slot_));
      read = refresh();
      avail = slots - (send_seq_ - cached_consumed_);
    }
    return avail > 0 || !read.ok();
  };
  auto failed = [&](SimTime now) { return PeerStatus(now); };
  DFI_RETURN_IF_ERROR(DeadlineWait(shared_->options(), clock_)
                          .Until(shared_->sync(), credited, failed,
                                 "latency credit"));
  return read;
}

Status ChannelSource::PeerStatus(SimTime now) const {
  if (shared_->poisoned()) return shared_->poison_status();
  return qp_->CheckConnected(now);
}

Status ChannelSource::TransmitSegment(const uint8_t* payload, uint32_t fill,
                                      bool end) {
  if (shared_->poisoned()) return shared_->poison_status();
  const SegmentRing& ring = shared_->ring();
  // Sealing a batch (footer bookkeeping, fill accounting) is a bandwidth-
  // path cost; the latency path writes a single prepared tuple slot.
  clock_->Advance(latency_ ? config_->segment_seal_ns / 4
                           : config_->segment_seal_ns);
  const uint32_t idx = target_slot_;

  if (latency_) {
    DFI_RETURN_IF_ERROR(EnsureCredit());
  } else {
    DFI_RETURN_IF_ERROR(EnsureRemoteWritable(idx));
  }

  // Selective signaling: request a completion only when the source ring
  // wraps around (paper section 5.2); latency mode is unsignaled + inlined.
  const bool wrap =
      !latency_ && staging_wrap_ == staging_.num_segments() - 1;
  if (wrap && signal_outstanding_) {
    // Reap the completion of the *previous* wrap before overwriting more
    // staging slots. In steady state that ack lies in the past (it was
    // posted a full ring ago), so this does not stall the pipeline.
    rdma::Completion c;
    while (send_cq_->TryPoll(&c, clock_)) {
    }
    signal_outstanding_ = false;
  }

  // Build the footer in the staging slot right behind the payload we were
  // given (payload always points at a staging slot base).
  auto* footer = reinterpret_cast<SegmentFooter*>(
      const_cast<uint8_t*>(payload) + ring.payload_capacity());
  footer->sequence = send_seq_;
  footer->fill_bytes = fill;
  footer->source_index = shared_->source_index();
  footer->reserved = 0;
  footer->flags = static_cast<uint8_t>(kFlagConsumable |
                                       (end ? kFlagEndOfFlow : 0));

  // A segment is "full" when no further tuple fits; it is then transmitted
  // as a single contiguous write of the whole slot (payload + footer, the
  // footer landing last thanks to increasing-address DMA order).
  const bool full_slot =
      fill + shared_->tuple_size() > ring.payload_capacity();
  if (full_slot || latency_) {
    const uint32_t len =
        ring.payload_capacity() + sizeof(SegmentFooter);
    const bool inlined = latency_ && len <= config_->max_inline_bytes;
    rdma::OpTiming t = qp_->PlanWrite(len, inlined, clock_);
    footer->arrival_sim_time = t.arrival;
    rdma::WriteDesc desc;
    desc.local = payload;
    desc.remote = shared_->ring_mr()->RefAt(ring.slot_offset(idx));
    desc.length = len;
    desc.wr_id = send_seq_;
    desc.signaled = wrap;
    desc.inlined = inlined;
    DFI_RETURN_IF_ERROR(qp_->CommitWrite(desc, t));
  } else {
    // Partial segment: payload write followed by a small footer write; the
    // RC queue pair keeps them ordered, so the footer still lands last.
    if (fill > 0) {
      rdma::WriteDesc body;
      body.local = payload;
      body.remote = shared_->ring_mr()->RefAt(ring.slot_offset(idx));
      body.length = fill;
      body.wr_id = send_seq_;
      auto t = qp_->PostWrite(body, clock_);
      if (!t.ok()) return t.status();
    }
    const bool inlined = sizeof(SegmentFooter) <= config_->max_inline_bytes;
    rdma::OpTiming t =
        qp_->PlanWrite(sizeof(SegmentFooter), inlined, clock_);
    footer->arrival_sim_time = t.arrival;
    rdma::WriteDesc fdesc;
    fdesc.local = footer;
    fdesc.remote = shared_->ring_mr()->RefAt(ring.footer_offset(idx));
    fdesc.length = sizeof(SegmentFooter);
    fdesc.wr_id = send_seq_;
    fdesc.signaled = wrap;
    fdesc.inlined = inlined;
    DFI_RETURN_IF_ERROR(qp_->CommitWrite(fdesc, t));
  }

  if (wrap) signal_outstanding_ = true;
  shared_->sync().Notify();
  if (ReadyGate* gate = shared_->target_gate(); gate != nullptr) {
    // Announce the delivery: the target pops this channel's index instead
    // of scanning all of its rings.
    gate->Enqueue(shared_->source_index());
  }
  shared_->AnnounceDelivered();

  if (!latency_) {
    // Pipelined prefetch of the *next* target footer (paper section 5.2):
    // issued back-to-back with this write so the next transmit usually
    // finds the slot state already known.
    const uint32_t next_idx = ring.next_slot(idx);
    rdma::ReadDesc prefetch;
    prefetch.local = scratch_footer_;
    prefetch.remote = shared_->ring_mr()->RefAt(ring.footer_offset(next_idx));
    prefetch.length = sizeof(SegmentFooter);
    auto t = qp_->PostRead(prefetch, clock_);
    if (!t.ok()) return t.status();
    ++footer_reads_;
  }
  ++send_seq_;
  target_slot_ = ring.next_slot(idx);
  staging_wrap_ = staging_.next_slot(staging_wrap_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ChannelTargetCursor
// ---------------------------------------------------------------------------

bool ChannelTargetCursor::TryConsume(SegmentView* view, VirtualClock* clock) {
  Release(clock);
  if (exhausted_) return false;
  const SegmentRing& ring = shared_->ring();
  const uint32_t idx = consume_slot_;
  const uint8_t flags = ring.LoadFlags(idx);
  if ((flags & kFlagPoisoned) != 0) {
    // The source published a poisoned footer (Abort mid-flow); latch the
    // teardown so the target's consume loop surfaces kError.
    shared_->Poison(Status::Aborted("peer aborted flow"));
    return false;
  }
  if ((flags & kFlagConsumable) == 0) return false;

  const SegmentFooter* footer = ring.footer(idx);
  view->payload = ring.payload(idx);
  view->bytes = footer->fill_bytes;
  view->sequence = footer->sequence;
  view->source_index = footer->source_index;
  view->end_of_flow = (flags & kFlagEndOfFlow) != 0;
  view->arrival = footer->arrival_sim_time;
  clock->AdvanceTo(footer->arrival_sim_time);
  holding_ = true;
  return true;
}

void ChannelTargetCursor::Release(VirtualClock* clock) {
  if (!holding_) return;
  const SegmentRing& ring = shared_->ring();
  const uint32_t idx = consume_slot_;
  SegmentFooter* footer = ring.footer(idx);
  const bool end = footer->end_of_flow();
  footer->fill_bytes = 0;
  footer->arrival_sim_time = clock->now();
  ring.StoreFlags(idx, kFlagWritable);
  if (shared_->options().optimization == FlowOptimization::kLatency) {
    shared_->slot_free_time(idx) = clock->now();
    shared_->IncrementConsumed();
  }
  shared_->AnnounceConsumed();
  shared_->sync().Notify();
  consume_slot_ = ring.next_slot(idx);
  holding_ = false;
  if (end) exhausted_ = true;
}

}  // namespace dfi
