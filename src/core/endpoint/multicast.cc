#include "core/endpoint/multicast.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/exec/engine.h"
#include "common/logging.h"
#include "common/units.h"
#include "core/deadline.h"

namespace dfi {
namespace {

/// Ordered replicate flows: virtual-time gap-detection timeout before a
/// lost segment is reported or re-requested.
constexpr SimTime kGapTimeoutNs = 50 * kMicrosecond;

uint32_t RoundUp8(uint32_t v) { return (v + 7u) & ~7u; }

}  // namespace

// ---------------------------------------------------------------------------
// MulticastState
// ---------------------------------------------------------------------------

MulticastState::MulticastState(rdma::RdmaEnv* env,
                               const FlowOptions& options,
                               uint32_t tuple_size, uint32_t num_sources,
                               std::vector<net::NodeId> target_nodes,
                               const AbortLatch* flow_abort)
    : env_(env),
      options_(options),
      num_sources_(num_sources),
      target_nodes_(std::move(target_nodes)),
      flow_abort_(flow_abort) {
  const net::SimConfig& cfg = env_->config();
  pool_slots_ = options_.segments_per_ring;

  // Segments must fit one datagram.
  const uint32_t mtu_payload =
      (cfg.ud_mtu_bytes - sizeof(SegmentFooter)) & ~7u;
  if (options_.optimization == FlowOptimization::kLatency) {
    payload_capacity_ = RoundUp8(tuple_size);
  } else {
    payload_capacity_ =
        std::min(RoundUp8(options_.segment_size), mtu_payload);
    payload_capacity_ = std::max(payload_capacity_, RoundUp8(tuple_size));
  }
  DFI_CHECK_LE(payload_capacity_ + sizeof(SegmentFooter), cfg.ud_mtu_bytes)
      << "tuple too large for one multicast datagram";
  if (cfg.multicast_loss_probability > 0) {
    DFI_CHECK(ordered()) << "loss injection requires a globally ordered "
                            "replicate flow (gap detection + retransmit)";
  }

  group_ = env_->fabric().network_switch().CreateGroup();
  target_qps_.resize(num_targets());
  recv_pools_.resize(num_targets());
  credit_mrs_.resize(num_targets());
  consume_time_.assign(num_targets(), 0);
  ends_seen_.assign(num_targets(), 0);
  for (uint32_t t = 0; t < num_targets(); ++t) {
    rdma::RdmaContext* ctx = env_->context(target_nodes_[t]);
    rdma::CompletionQueue* recv_cq = ctx->CreateCq();
    target_qps_[t] = ctx->CreateUdQp(ctx->CreateCq(), recv_cq);
    DFI_CHECK_OK(target_qps_[t]->AttachMulticast(group_));
    recv_pools_[t] =
        ctx->AllocateRegion(static_cast<size_t>(slot_bytes()) * pool_slots_);
    for (uint32_t i = 0; i < pool_slots_; ++i) {
      target_qps_[t]->PostRecv(recv_pools_[t]->addr() +
                                   static_cast<size_t>(i) * slot_bytes(),
                               slot_bytes(), i);
    }
    credit_mrs_[t] = ctx->AllocateRegion(64);
    // Registered memory starts unspecified: target t's credit word
    // (segments it consumed) starts at 0.
    std::memset(credit_mrs_[t]->addr(), 0, sizeof(uint64_t));
  }
  if (ordered()) {
    sequencer_mr_ = env_->context(sequencer_node())->AllocateRegion(64);
    // The sequencer word (the next global position) starts at 0.
    std::memset(sequencer_mr_->addr(), 0, sizeof(uint64_t));
    histories_.resize(num_sources_);
    for (auto& h : histories_) h = std::make_unique<History>();
  }
}

uint8_t* MulticastState::recv_slot(uint32_t target, uint32_t slot) {
  return recv_pools_[target]->addr() +
         static_cast<size_t>(slot) * slot_bytes();
}

StatusOr<uint64_t> MulticastState::AcquirePosition(rdma::RcQueuePair* seq_qp,
                                                   VirtualClock* clock) {
  if (!ordered()) {
    return unordered_positions_++;
  }
  // Tuple sequencer: RDMA fetch-and-add on a global counter (paper 5.4).
  // Fails with kPeerFailed when the sequencer node crashed or is
  // partitioned away — the flow cannot make ordered progress then.
  return seq_qp->FetchAdd(sequencer_ref(), 1, clock);
}

uint64_t MulticastState::LoadConsumed(uint32_t target) const {
  uint64_t consumed;
  std::memcpy(&consumed, credit_mrs_[target]->addr(), sizeof(consumed));
  return consumed;
}

rdma::RemoteRef MulticastState::credit_ref(uint32_t target) const {
  return credit_mrs_[target]->RefAt(0);
}

void MulticastState::ReportConsumed(uint32_t target, SimTime now) {
  consume_time_[target] = now;
  const uint64_t consumed = LoadConsumed(target) + 1;
  std::memcpy(credit_mrs_[target]->addr(), &consumed, sizeof(consumed));
  credit_sync_.Notify();
}

void MulticastState::WakeWaiters() {
  credit_sync_.Notify();
  for (rdma::UdQueuePair* qp : target_qps_) qp->recv_cq()->Wake();
}

Status MulticastState::WaitForCredit(
    uint64_t position, std::vector<rdma::RcQueuePair*>& credit_qps,
    VirtualClock* clock) {
  const uint64_t slots = pool_slots_;
  auto min_consumed = [&] {
    uint64_t m = UINT64_MAX;
    for (uint32_t t = 0; t < num_targets(); ++t) {
      m = std::min(m, LoadConsumed(t));
    }
    return m;
  };
  // Periodic credit refresh: one 8-byte RDMA read per target each time the
  // cached window is half used (paper: "remote credit is read once the
  // local credit counter reaches a certain threshold").
  if (slots >= 2 && position % (slots / 2) == (slots / 2) - 1) {
    alignas(8) uint8_t scratch[8];
    for (uint32_t t = 0; t < num_targets(); ++t) {
      rdma::ReadDesc read;
      read.local = scratch;
      read.remote = credit_ref(t);
      read.length = sizeof(uint64_t);
      auto timing = credit_qps[t]->PostRead(read, clock);
      DFI_RETURN_IF_ERROR(timing.status());
    }
  }
  if (position < min_consumed() + slots) return Status::OK();
  // Targets that lag behind in virtual time may release the window once
  // they catch up.
  exec::Engine::Pace(clock->now());

  // Blocked: wait until every target caught up. A dead or aborted target
  // never reports consumption, so the wait is deadline-bounded and checks
  // teardown / fault-plan state every round instead of hanging forever.
  auto credited = [&] { return position < min_consumed() + slots; };
  auto failed = [&](SimTime now) -> Status {
    if (flow_abort_ != nullptr && flow_abort_->tripped()) {
      return flow_abort_->status();
    }
    const net::FaultPlan& plan = fault_plan();
    if (!plan.active()) return Status::OK();
    for (uint32_t t = 0; t < num_targets(); ++t) {
      if (!plan.NodeAlive(target_nodes_[t], now)) {
        return Status::PeerFailed("replicate target " + std::to_string(t) +
                                  " on node " +
                                  std::to_string(target_nodes_[t]) +
                                  " failed; credit window cannot advance");
      }
    }
    return Status::OK();
  };
  DFI_RETURN_IF_ERROR(DeadlineWait(options_, clock)
                          .Until(credit_sync_, credited, failed,
                                 "multicast credit"));

  // Success: charge virtual time from the limiting target's consume
  // timestamp plus one discovering read (fault-free timing unchanged).
  SimTime limit = 0;
  for (uint32_t t = 0; t < num_targets(); ++t) {
    limit = std::max(limit, consume_time_[t]);
  }
  clock->AdvanceTo(limit);
  alignas(8) uint8_t scratch[8];
  rdma::ReadDesc read;
  read.local = scratch;
  read.remote = credit_ref(0);
  read.length = sizeof(uint64_t);
  auto timing = credit_qps[0]->PostRead(read, clock);
  DFI_RETURN_IF_ERROR(timing.status());
  clock->AdvanceTo(timing->arrival);
  return Status::OK();
}

void MulticastState::RecordHistory(uint32_t source, uint64_t seq,
                                   const uint8_t* data, uint32_t len) {
  History& h = *histories_[source];
  h.segments.emplace(seq, std::vector<uint8_t>(data, data + len));
  while (h.segments.size() > kHistoryDepth) {
    h.segments.erase(h.segments.begin());
  }
}

bool MulticastState::LookupHistory(uint64_t seq,
                                   std::vector<uint8_t>* out) const {
  for (const auto& hp : histories_) {
    auto it = hp->segments.find(seq);
    if (it != hp->segments.end()) {
      *out = it->second;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// MulticastSendEndpoint
// ---------------------------------------------------------------------------

MulticastSendEndpoint::MulticastSendEndpoint(MulticastState* mcast,
                                             uint32_t source_index,
                                             rdma::RdmaContext* ctx,
                                             const net::SimConfig* config,
                                             const AbortLatch* flow_abort,
                                             VirtualClock* clock)
    : FanoutEndpoint(ctx, mcast->options(), mcast->payload_capacity(),
                     config, flow_abort, clock),
      mcast_(mcast),
      source_index_(source_index) {
  rdma::CompletionQueue* cq = ctx->CreateCq();
  ud_qp_ = ctx->CreateUdQp(cq, ctx->CreateCq());
  if (mcast_->ordered()) {
    seq_qp_ = ctx->CreateRcQp(mcast_->sequencer_node(), cq);
  }
  for (uint32_t t = 0; t < mcast_->num_targets(); ++t) {
    credit_qps_.push_back(ctx->CreateRcQp(mcast_->target_node(t), cq));
  }
}

Status MulticastSendEndpoint::Transmit(uint32_t fill, bool end) {
  DFI_ASSIGN_OR_RETURN(const uint64_t position,
                       mcast_->AcquirePosition(seq_qp_, clock_));
  DFI_RETURN_IF_ERROR(
      mcast_->WaitForCredit(position, credit_qps_, clock_));

  uint8_t* slot = staging_payload();
  auto* footer = reinterpret_cast<SegmentFooter*>(
      slot + staging().payload_capacity());
  footer->sequence = position;
  footer->fill_bytes = fill;
  footer->source_index = static_cast<uint16_t>(source_index_);
  footer->reserved = 0;
  footer->arrival_sim_time = 0;  // per-target arrival comes from the CQE
  footer->flags = static_cast<uint8_t>(kFlagConsumable |
                                       (end ? kFlagEndOfFlow : 0));
  if (mcast_->ordered()) {
    mcast_->RecordHistory(source_index_, position, slot,
                          mcast_->slot_bytes());
  }
  clock_->Advance(config_->segment_seal_ns);
  auto timing = ud_qp_->PostSendMulticast(mcast_->group(), slot,
                                          mcast_->slot_bytes(), position,
                                          /*signaled=*/false, clock_);
  DFI_RETURN_IF_ERROR(timing.status());
  ++send_count_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MulticastSink
// ---------------------------------------------------------------------------

MulticastSink::MulticastSink(MulticastState* mcast, uint32_t target_index,
                             const Schema* schema,
                             const net::SimConfig* config,
                             VirtualClock* clock, std::string label,
                             std::vector<net::NodeId> source_nodes,
                             const AbortLatch* flow_abort)
    : mcast_(mcast),
      target_index_(target_index),
      config_(config),
      clock_(clock),
      what_(std::move(label) + " consume"),
      source_nodes_(std::move(source_nodes)),
      flow_abort_(flow_abort),
      tuples_(schema, config, clock) {}

const SegmentFooter* MulticastSink::SlotFooter(uint32_t slot) const {
  return reinterpret_cast<const SegmentFooter*>(
      mcast_->recv_slot(target_index_, slot) + mcast_->payload_capacity());
}

void MulticastSink::ReleaseHeld() {
  if (held_slot_ >= 0) {
    mcast_->target_qp(target_index_)
        ->PostRecv(mcast_->recv_slot(target_index_,
                                     static_cast<uint32_t>(held_slot_)),
                   mcast_->slot_bytes(), static_cast<uint32_t>(held_slot_));
    mcast_->ReportConsumed(target_index_, clock_->now());
    held_slot_ = -1;
  }
  if (!held_copy_.empty()) {
    held_copy_.clear();
    mcast_->ReportConsumed(target_index_, clock_->now());
  }
}

Status MulticastSink::Failure(SimTime now) const {
  // Flow-level teardown first.
  if (flow_abort_->tripped()) return flow_abort_->status();
  // A crashed source never sequences its end-of-flow marker, so the flow
  // can never finish; surface it as kPeerFailed. (Multicast end markers are
  // counted, not per-source, so any dead source fails the flow — membership
  // semantics.)
  const net::FaultPlan& plan = mcast_->fault_plan();
  if (!plan.active()) return Status::OK();
  for (uint32_t s = 0; s < source_nodes_.size(); ++s) {
    const net::NodeId src = source_nodes_[s];
    if (!plan.NodeAlive(src, now)) {
      return Status::PeerFailed(what_ + ": source " + std::to_string(s) +
                                " on node " + std::to_string(src) +
                                " failed before closing the flow");
    }
  }
  return Status::OK();
}

ConsumeResult MulticastSink::ConsumeSegment(SegmentView* out) {
  ReleaseHeld();
  ConsumeResult result = ConsumeResult::kOk;
  Status status = mcast_->ordered() ? ConsumeOrdered(out, &result)
                                    : ConsumeUnordered(out, &result);
  if (!status.ok()) {
    last_status_ = std::move(status);
    return ConsumeResult::kError;
  }
  return result;
}

Status MulticastSink::ConsumeUnordered(SegmentView* out,
                                       ConsumeResult* result) {
  rdma::CompletionQueue* cq = mcast_->target_qp(target_index_)->recv_cq();
  uint32_t& ends = mcast_->ends_seen(target_index_);
  auto received = [&] {
    rdma::Completion c;
    for (;;) {
      if (ends == mcast_->num_sources()) {
        *result = ConsumeResult::kFlowEnd;
        return true;
      }
      if (!cq->TryPoll(&c, clock_)) return false;
      const uint32_t slot = static_cast<uint32_t>(c.wr_id);
      const SegmentFooter* footer = SlotFooter(slot);
      if (footer->end_of_flow()) {
        ++ends;
        if (footer->fill_bytes == 0) {
          // Pure end marker: recycle.
          mcast_->target_qp(target_index_)
              ->PostRecv(mcast_->recv_slot(target_index_, slot),
                         mcast_->slot_bytes(), slot);
          mcast_->ReportConsumed(target_index_, clock_->now());
          continue;
        }
        // End marker carrying the source's final partial segment: deliver.
      }
      clock_->Advance(config_->consume_segment_fixed_ns);
      held_slot_ = static_cast<int>(slot);
      *out = SegmentView{mcast_->recv_slot(target_index_, slot),
                         footer->fill_bytes,
                         footer->sequence,
                         footer->source_index,
                         footer->end_of_flow(),
                         c.time};
      return true;
    }
  };
  auto failed = [&](SimTime now) { return Failure(now); };
  return DeadlineWait(mcast_->options(), clock_)
      .Until(*cq, received, failed, what_);
}

Status MulticastSink::ConsumeOrdered(SegmentView* out,
                                     ConsumeResult* result) {
  rdma::CompletionQueue* cq = mcast_->target_qp(target_index_)->recv_cq();
  uint32_t& ends = mcast_->ends_seen(target_index_);
  bool parked = false;  // a round found nothing and parked
  auto received = [&] {
    if (parked && RecoverGap(out)) {
      *result = ConsumeResult::kGap;
      return true;
    }
    for (;;) {
      if (ends == mcast_->num_sources()) {
        *result = ConsumeResult::kFlowEnd;
        return true;
      }
      // Serve in order from the next list (paper Figure 6).
      Sequencer::Entry entry;
      if (seq_.PopReady(&entry)) {
        const uint8_t* base;
        if (entry.slot != UINT32_MAX) {
          base = mcast_->recv_slot(target_index_, entry.slot);
        } else {
          held_copy_ = std::move(entry.copy);
          base = held_copy_.data();
        }
        const auto* footer = reinterpret_cast<const SegmentFooter*>(
            base + mcast_->payload_capacity());
        if (footer->end_of_flow()) {
          // End markers are sequenced like data.
          ++ends;
          if (footer->fill_bytes == 0) {
            // Pure marker: recycle.
            if (entry.slot != UINT32_MAX) {
              held_slot_ = static_cast<int>(entry.slot);
            }
            ReleaseHeld();
            continue;
          }
          // Marker carrying the final partial segment: fall through and
          // deliver the payload.
        }
        clock_->Advance(config_->consume_segment_fixed_ns);
        clock_->AdvanceTo(entry.arrival);
        if (entry.slot != UINT32_MAX) {
          held_slot_ = static_cast<int>(entry.slot);
        }
        *out = SegmentView{base,
                           footer->fill_bytes,
                           footer->sequence,
                           footer->source_index,
                           footer->end_of_flow(),
                           entry.arrival};
        return true;
      }

      // Pull arrivals into the next list.
      rdma::Completion c;
      if (!cq->TryPoll(&c, clock_)) {
        parked = true;  // nothing arrived: this round parks
        return false;
      }
      const uint32_t slot = static_cast<uint32_t>(c.wr_id);
      const uint64_t seq = SlotFooter(slot)->sequence;
      if (!seq_.Fresh(seq)) {
        // Duplicate (e.g. a retransmission raced the original): recycle the
        // slot without reporting consumption — the sequence was already
        // credited once.
        mcast_->target_qp(target_index_)
            ->PostRecv(mcast_->recv_slot(target_index_, slot),
                       mcast_->slot_bytes(), slot);
        continue;
      }
      seq_.Offer(seq, Sequencer::Entry{slot, {}, c.time});
    }
  };
  auto failed = [&](SimTime now) { return Failure(now); };
  return DeadlineWait(mcast_->options(), clock_)
      .Until(*cq, received, failed, what_);
}

bool MulticastSink::RecoverGap(SegmentView* out) {
  // Gap recovery (paper section 5.4). With loss injection disabled nothing
  // can be lost — the head sequence is merely still in flight (e.g. its
  // sender was descheduled), so keep polling instead of issuing spurious
  // recoveries.
  if (config_->multicast_loss_probability <= 0 &&
      !mcast_->fault_plan().HasLossBursts()) {
    return false;
  }
  if (mcast_->options().app_handles_gaps) {
    // Evidence of loss is either a later segment already queued, or the
    // missing sequence recorded in a sender's history (covers tail loss,
    // where nothing later will ever arrive).
    std::vector<uint8_t> probe;
    if (!seq_.HasPending() &&
        !mcast_->LookupHistory(seq_.expected(), &probe)) {
      return false;  // nothing proves a gap yet
    }
    clock_->Advance(kGapTimeoutNs);
    out->payload = nullptr;
    out->bytes = 0;
    out->sequence = seq_.expected();  // the missing sequence number
    out->end_of_flow = false;
    out->arrival = clock_->now();
    return true;
  }
  // Transparent recovery: request a retransmission. In-process this pulls
  // straight from the source's retransmit history, charging the unicast
  // round-trip it would cost on the wire. Otherwise the segment is still
  // in flight (or not yet sent); keep waiting.
  std::vector<uint8_t> copy;
  if (mcast_->LookupHistory(seq_.expected(), &copy)) {
    const net::SimConfig& cfg = *config_;
    clock_->Advance(kGapTimeoutNs);
    clock_->Advance(cfg.propagation_ns * 2 + cfg.ud_send_overhead_ns +
                    static_cast<SimTime>(mcast_->slot_bytes() /
                                         cfg.LinkBytesPerNs()));
    seq_.Offer(seq_.expected(),
               Sequencer::Entry{UINT32_MAX, std::move(copy), clock_->now()});
  }
  return false;
}

void MulticastSink::SkipGap() {
  DFI_CHECK(mcast_->ordered() && mcast_->options().app_handles_gaps);
  seq_.Skip();
  mcast_->ReportConsumed(target_index_, clock_->now());
}

void MulticastSink::SupplyGap(const void* data, uint32_t bytes) {
  DFI_CHECK(mcast_->ordered() && mcast_->options().app_handles_gaps);
  DFI_CHECK_LE(bytes, mcast_->payload_capacity());
  std::vector<uint8_t> copy(mcast_->slot_bytes(), 0);
  std::memcpy(copy.data(), data, bytes);
  auto* footer = reinterpret_cast<SegmentFooter*>(
      copy.data() + mcast_->payload_capacity());
  footer->sequence = seq_.expected();
  footer->fill_bytes = bytes;
  footer->flags = kFlagConsumable;
  footer->arrival_sim_time = clock_->now();
  seq_.Offer(seq_.expected(),
             Sequencer::Entry{UINT32_MAX, std::move(copy), clock_->now()});
}

}  // namespace dfi
