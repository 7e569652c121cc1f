#include "core/endpoint/flow_endpoint.h"

#include <algorithm>
#include <cmath>
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
  const AdaptivePartitioner::Decision d =
      router->Route(static_cast<const uint8_t*>(tuple));
  if (d.flush_first >= 0) {
    DFI_RETURN_IF_ERROR(Seal(static_cast<uint32_t>(d.flush_first)));
  }
  if (d.target >= num_targets()) {
    return BadTarget("adaptive routing returned target", d.target);
  }
  return Stage(tuple, d.target);
}

Status FlowEndpoint::PushBatchAdaptive(const void* tuples, size_t count,
                                       AdaptivePartitioner* router) {
  const uint8_t* base = static_cast<const uint8_t*>(tuples);
  for (size_t i = 0; i < count; ++i) {
    DFI_RETURN_IF_ERROR(PushAdaptive(base + i * tuple_size_, router));
  }
  return Status::OK();
}

Status FlowEndpoint::PushBatch(const void* tuples, size_t count,
                               Partitioner* partitioner) {
  const uint8_t* p = static_cast<const uint8_t*>(tuples);
  // Locals, not members: the tuple stores below may alias any byte of
  // this object, which would force a reload of each member per tuple.
  const uint32_t ts = tuple_size_;
  const SimTime cost = push_cost_;
  Lane* const lanes = lanes_.data();
  // Charges of staged tuples not yet applied to the clock. Only a seal (or
  // the caller, after the batch) reads this source's clock, and every
  // tuple that may seal goes through Stage() with the backlog applied, so
  // each segment is sealed at Push's tuple and virtual time.
  SimTime owed = 0;
  uint32_t target[kRouteBlock];
  for (size_t done = 0; done < count;) {
    const size_t n = std::min(kRouteBlock, count - done);
    const size_t routed = RouteBlock(partitioner, p, n, target);
    for (size_t j = 0; j < routed; ++j, p += ts) {
      Lane& lane = lanes[target[j]];
      if (lane.dst == nullptr || lane.dst + ts == lane.end) [[unlikely]] {
        clock_->Advance(std::exchange(owed, 0));
        DFI_RETURN_IF_ERROR(Stage(p, target[j]));
        continue;
      }
      owed += cost;
      CopyTuple(lane.dst, p, ts);
      lane.dst += ts;
    }
    if (routed < n) {
      clock_->Advance(owed);
      return BadTarget("routing function returned target", target[routed]);
    }
    done += n;
  }
  clock_->Advance(owed);
  return Status::OK();
}

size_t FlowEndpoint::RouteBlock(Partitioner* partitioner, const uint8_t* p,
                                size_t n, uint32_t* target) const {
  const uint32_t ts = tuple_size_;
  const uint32_t m = num_targets();
  if (m == 1 || partitioner->kind() == Partitioner::Kind::kSingle) {
    // Degenerate partitioning: everything goes to target 0, unrouted.
    std::fill_n(target, n, 0u);
    return n;
  }
  const size_t off = partitioner->key_offset();
  const size_t key_size = partitioner->key_size();
  switch (partitioner->kind()) {
    case Partitioner::Kind::kKeyHash: {
      // A tight hash loop (SIMD via HashKeys8 when the tuple is an 8-byte
      // key), then the magic-number modulo: the hash chain pipelines
      // independently of the staging pass.
      uint64_t hash[kRouteBlock];
      if (ts == 8 && off == 0 && key_size == 8) {
        HashKeys8(p, n, hash);
      } else {
        for (size_t j = 0; j < n; ++j, p += ts) {
          hash[j] = HashU64(ReadKeyBytes(p + off, key_size));
        }
      }
      const FastDivisor& mod = partitioner->mod();
      for (size_t j = 0; j < n; ++j) {
        target[j] = static_cast<uint32_t>(mod.Mod(hash[j]));
      }
      return n;
    }
    case Partitioner::Kind::kRadix: {
      for (size_t j = 0; j < n; ++j, p += ts) {
        target[j] = RadixBits(ReadKeyBytes(p + off, key_size),
                              partitioner->shift(), partitioner->bits());
        if (target[j] >= m) return j;
      }
      return n;
    }
    default: {  // kRoundRobin / kGeneric
      for (size_t j = 0; j < n; ++j, p += ts) {
        target[j] = partitioner->Route(p);
        if (target[j] >= m) return j;
      }
      return n;
    }
  }
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
      flow_abort_(flow_abort) {
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
  // (multicast) — see paper section 6.1.2.
  clock_->Advance(config_->tuple_push_fixed_ns +
                  static_cast<SimTime>(
                      std::llround(len * config_->tuple_copy_ns_per_byte)));

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
  staging_slot_ = (staging_slot_ + 1) % staging_.num_segments();
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

void BroadcastEndpoint::Abort(const Status& cause) {
  MarkClosed();
  fanout_.Abort(cause);
}

}  // namespace dfi
