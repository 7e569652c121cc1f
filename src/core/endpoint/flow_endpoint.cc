#include "core/endpoint/flow_endpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dfi {

// ---------------------------------------------------------------------------
// FlowEndpoint
// ---------------------------------------------------------------------------

FlowEndpoint::FlowEndpoint(ChannelMatrix* matrix, uint32_t source_index,
                           rdma::RdmaContext* source_ctx,
                           VirtualClock* clock)
    : clock_(clock), tuple_size_(matrix->tuple_size()) {
  const uint32_t m = matrix->num_targets();
  channels_.reserve(m);
  for (uint32_t t = 0; t < m; ++t) {
    channels_.push_back(std::make_unique<ChannelSource>(
        matrix->channel(source_index, t), source_ctx, clock));
  }
  // Every channel of the matrix shares the flow's options and tuple size.
  push_cost_ = channels_[0]->tuple_push_cost();
  window_bytes_ = channels_[0]->window_bytes();
  lanes_.resize(m);
  for (uint32_t t = 0; t < m; ++t) OpenLane(t);
}

void FlowEndpoint::OpenLane(uint32_t target) {
  uint8_t* window = channels_[target]->window();
  lanes_[target] =
      Lane{window, window == nullptr ? nullptr : window + window_bytes_};
}

Status FlowEndpoint::Seal(uint32_t target) {
  Status status = channels_[target]->Seal(Fill(target));
  OpenLane(target);
  return status;
}

Status FlowEndpoint::BadTarget(const char* what, uint32_t target) const {
  return Status::OutOfRange(std::string(what) + " " + std::to_string(target) +
                            " of " + std::to_string(num_targets()));
}

Status FlowEndpoint::PushAdaptive(const void* tuple,
                                  AdaptivePartitioner* router) {
  const uint32_t target = router->Route(static_cast<const uint8_t*>(tuple));
  if (target >= num_targets()) {
    return BadTarget("adaptive routing returned target", target);
  }
  return Stage(tuple, target);
}

Status FlowEndpoint::BroadcastSegment(uint8_t* staged_slot, uint32_t fill,
                                      bool end) {
  for (auto& ch : channels_) {
    DFI_RETURN_IF_ERROR(ch->PushSegment(staged_slot, fill, end));
  }
  return Status::OK();
}

Status FlowEndpoint::Flush() {
  for (uint32_t t = 0; t < num_targets(); ++t) {
    DFI_RETURN_IF_ERROR(Seal(t));
  }
  return Status::OK();
}

Status FlowEndpoint::Close() {
  Status first;
  for (uint32_t t = 0; t < num_targets(); ++t) {
    Status s = channels_[t]->Close(Fill(t));
    OpenLane(t);
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

void FlowEndpoint::Abort(const Status& cause) {
  for (uint32_t t = 0; t < num_targets(); ++t) {
    channels_[t]->Abort(cause);
    OpenLane(t);
  }
}

// ---------------------------------------------------------------------------
// FanoutEndpoint
// ---------------------------------------------------------------------------

FanoutEndpoint::FanoutEndpoint(rdma::RdmaContext* ctx,
                               const FlowOptions& options,
                               uint32_t payload_capacity,
                               const net::SimConfig* config,
                               const AbortLatch* flow_abort,
                               VirtualClock* clock)
    : clock_(clock),
      config_(config),
      options_(options),
      flow_abort_(flow_abort),
      push_charge_(config->tuple_push_fixed_ns) {
  const uint32_t staging_slots =
      options_.optimization == FlowOptimization::kLatency
          ? 1
          : std::max(2u, options_.source_segments);
  staging_mr_ = ctx->AllocateRegion(
      static_cast<size_t>(payload_capacity + sizeof(SegmentFooter)) *
      staging_slots);
  staging_ = SegmentRing(staging_mr_->addr(), payload_capacity,
                         staging_slots);
}

FanoutEndpoint::~FanoutEndpoint() = default;

Status FanoutEndpoint::Push(const void* tuple, uint32_t len) {
  if (closed_) {
    return Status::FailedPrecondition("push on closed replicate source");
  }
  if (flow_abort_ != nullptr && flow_abort_->tripped()) {
    return flow_abort_->status();
  }
  // The tuple is staged once regardless of target count; replication
  // happens in the NIC (naive: parallel writes) or in the switch
  // (multicast) — see paper section 6.1.2. Every push of a flow has the
  // same length, so the charge is rounded once.
  if (len != charged_len_) [[unlikely]] {
    charged_len_ = len;
    push_charge_ = config_->tuple_push_fixed_ns +
                   RoundNs(len * config_->tuple_copy_ns_per_byte);
  }
  clock_->Advance(push_charge_);

  if (options_.optimization == FlowOptimization::kLatency) {
    std::memcpy(staging_.payload(0), tuple, len);
    return Transmit(len, false);
  }
  const uint32_t capacity = staging_.payload_capacity();
  if (fill_ + len > capacity) {
    DFI_RETURN_IF_ERROR(Flush());
  }
  std::memcpy(staging_.payload(staging_slot_) + fill_, tuple, len);
  fill_ += len;
  if (fill_ + len > capacity) {
    DFI_RETURN_IF_ERROR(Flush());
  }
  return Status::OK();
}

Status FanoutEndpoint::Flush() {
  if (fill_ == 0) return Status::OK();
  const uint32_t fill = fill_;
  fill_ = 0;
  Status s = Transmit(fill, false);
  staging_slot_ = staging_.next_slot(staging_slot_);
  return s;
}

Status FanoutEndpoint::Close() {
  if (closed_) return Status::OK();
  const uint32_t fill = fill_;
  fill_ = 0;
  DFI_RETURN_IF_ERROR(Transmit(fill, true));
  closed_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// BroadcastEndpoint
// ---------------------------------------------------------------------------

BroadcastEndpoint::BroadcastEndpoint(ChannelMatrix* matrix,
                                     uint32_t source_index,
                                     rdma::RdmaContext* ctx,
                                     const net::SimConfig* config,
                                     const AbortLatch* flow_abort,
                                     VirtualClock* clock)
    : FanoutEndpoint(ctx, matrix->options(),
                     ChannelShared::PayloadCapacityFor(
                         matrix->options(), matrix->tuple_size()),
                     config, flow_abort, clock),
      fanout_(matrix, source_index, ctx, clock) {}

Status BroadcastEndpoint::Transmit(uint32_t fill, bool end) {
  return fanout_.BroadcastSegment(staging_payload(), fill, end);
}

}  // namespace dfi
