#ifndef DFI_CORE_ENDPOINT_FLOW_ENDPOINT_H_
#define DFI_CORE_ENDPOINT_FLOW_ENDPOINT_H_

#include <cstring>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/channel.h"
#include "core/abort_latch.h"
#include "core/endpoint/channel_matrix.h"
#include "core/endpoint/policies.h"

namespace dfi {

/// Source half of the unified transport: one worker thread's view of its
/// row of the channel matrix. Owns the per-target ChannelSources and with
/// them everything the paper's section 5 source side does — staging-ring
/// wrap, selective signaling, footer prefetch, deadline-bounded blocking on
/// a full remote ring, and poisoned-footer teardown. Flow types differ only
/// in the Partitioner they pass in (paper Table 1).
///
/// Every push kind stages through one lane per target: the open window of
/// that channel's current segment. A push routes, charges the per-tuple
/// cost, copies the tuple to the lane and, when the tuple fills the window,
/// seals it (transmits the segment) before returning. Latency-mode and
/// closed channels have no window and take ChannelSource::Push.
class FlowEndpoint {
 public:
  FlowEndpoint(ChannelMatrix* matrix, uint32_t source_index,
               rdma::RdmaContext* source_ctx, VirtualClock* clock);

  FlowEndpoint(const FlowEndpoint&) = delete;
  FlowEndpoint& operator=(const FlowEndpoint&) = delete;

  uint32_t num_targets() const {
    return static_cast<uint32_t>(channels_.size());
  }
  uint32_t tuple_size() const { return tuple_size_; }
  ChannelSource* channel(uint32_t target) { return channels_[target].get(); }

  /// Pushes one packed tuple, routed by `partitioner`.
  Status Push(const void* tuple, Partitioner* partitioner) {
    const uint32_t target =
        partitioner->Route(static_cast<const uint8_t*>(tuple));
    if (target >= num_targets()) [[unlikely]] {
      return BadTarget("routing function returned target", target);
    }
    return Stage(tuple, target);
  }

  /// Pushes with an explicit target (paper section 4.2.1, option (3)).
  Status PushTo(const void* tuple, uint32_t target_index) {
    if (target_index >= num_targets()) [[unlikely]] {
      return BadTarget("target index", target_index);
    }
    return Stage(tuple, target_index);
  }

  /// Pushes one packed tuple routed by an AdaptivePartitioner (opt-in skew
  /// adaptation).
  Status PushAdaptive(const void* tuple, AdaptivePartitioner* router);

  /// Fans an externally staged segment out to every target (replicate
  /// flows stage once and write per target; see ChannelSource::PushSegment).
  Status BroadcastSegment(uint8_t* staged_slot, uint32_t fill, bool end);

  /// Transmits all partially-filled segments.
  Status Flush();

  /// Flushes and signals end-of-flow to every target. Idempotent. Attempts
  /// every channel even after a failure: targets whose channel did close
  /// should not be starved of their end-of-flow marker because a sibling
  /// channel's close failed; the first error wins.
  Status Close();

  /// Aborts this endpoint's channels without a clean end-of-flow: every
  /// target observes the poisoned footer / shared poison state and its
  /// consume returns kError. Staged tuples are discarded.
  void Abort(const Status& cause);

 private:
  /// One target's staging lane: the open window of its channel's current
  /// segment (ChannelSource::window). A push copies its tuple to `dst`; the
  /// push that moves `dst` to `end` seals the window. `dst` is null while
  /// the channel has no window (latency mode, closed).
  struct Lane {
    uint8_t* dst = nullptr;
    uint8_t* end = nullptr;
  };

  /// Copies one tuple. Sizes that are multiples of 8 up to 64 B move in
  /// 8-byte words instead of through a libc memcpy call.
  static void CopyTuple(uint8_t* dst, const void* src, uint32_t size) {
    if (size % 8 != 0 || size > 64) {
      std::memcpy(dst, src, size);
      return;
    }
    const auto* from = static_cast<const uint8_t*>(src);
    for (uint32_t i = 0; i < size; i += 8) std::memcpy(dst + i, from + i, 8);
  }

  /// Stages one tuple in `target`'s lane and seals the window it fills.
  Status Stage(const void* tuple, uint32_t target) {
    Lane& lane = lanes_[target];
    if (lane.dst == nullptr) [[unlikely]] {
      return channels_[target]->Push(tuple);
    }
    clock_->Advance(push_cost_);
    CopyTuple(lane.dst, tuple, tuple_size_);
    lane.dst += tuple_size_;
    if (lane.dst == lane.end) [[unlikely]] return Seal(target);
    return Status::OK();
  }

  /// Bytes staged in `target`'s lane.
  uint32_t Fill(uint32_t target) const {
    const Lane& lane = lanes_[target];
    return lane.dst == nullptr
               ? 0
               : window_bytes_ - static_cast<uint32_t>(lane.end - lane.dst);
  }
  /// Transmits `target`'s staged tuples, if any, and reopens its lane.
  Status Seal(uint32_t target);
  /// Points `target`'s lane at its channel's current window.
  void OpenLane(uint32_t target);

  Status BadTarget(const char* what, uint32_t target) const;

  VirtualClock* const clock_;
  /// Per-flow constants of every channel (tuple size, per-tuple charge,
  /// window size), cached so the hot path never re-derives them.
  const uint32_t tuple_size_;
  SimTime push_cost_ = 0;
  uint32_t window_bytes_ = 0;
  std::vector<Lane> lanes_;  // one per target
  std::vector<std::unique_ptr<ChannelSource>> channels_;  // one per target
};

/// Source half of a fan-out (replicate) flow: tuples are staged once into
/// a local segment regardless of target count, and replication happens at
/// transmit time — in the NIC (naive: one write per target) or in the
/// switch (multicast) — see paper section 6.1.2. Subclasses supply the
/// Transmit step; this base owns the staging ring, the push/flush/close
/// protocol and the flow-abort check.
class FanoutEndpoint {
 public:
  virtual ~FanoutEndpoint();

  FanoutEndpoint(const FanoutEndpoint&) = delete;
  FanoutEndpoint& operator=(const FanoutEndpoint&) = delete;

  /// Stages one tuple for all targets (latency mode transmits it
  /// immediately).
  Status Push(const void* tuple, uint32_t len);

  /// Transmits the staged partial segment, if any.
  Status Flush();

  /// Transmits the final (possibly empty) segment with the end-of-flow
  /// marker. Idempotent.
  Status Close();

  /// Marks the endpoint closed without an end-of-flow, on an abort: the
  /// flow's teardown (ReplicateFlowState::Abort) fails every participant.
  void MarkClosed() { closed_ = true; }

  bool closed() const { return closed_; }

 protected:
  FanoutEndpoint(rdma::RdmaContext* ctx, const FlowOptions& options,
                 uint32_t payload_capacity, const net::SimConfig* config,
                 const AbortLatch* flow_abort, VirtualClock* clock);

  /// Transmits the current staging slot's first `fill` bytes to every
  /// target.
  virtual Status Transmit(uint32_t fill, bool end) = 0;

  uint8_t* staging_payload() { return staging_.payload(staging_slot_); }
  const SegmentRing& staging() const { return staging_; }

  VirtualClock* const clock_;
  const net::SimConfig* const config_;

 private:
  const FlowOptions options_;
  const AbortLatch* const flow_abort_;  // may be null
  rdma::MemoryRegion* staging_mr_ = nullptr;
  SegmentRing staging_;
  uint32_t staging_slot_ = 0;
  uint32_t fill_ = 0;
  /// Push's clock charge for a tuple of charged_len_ bytes.
  uint32_t charged_len_ = 0;
  SimTime push_charge_;
  bool closed_ = false;
};

/// Naive fan-out transport: the staged segment is written once per target
/// over the per-pair one-sided channels of a ChannelMatrix row.
class BroadcastEndpoint : public FanoutEndpoint {
 public:
  BroadcastEndpoint(ChannelMatrix* matrix, uint32_t source_index,
                    rdma::RdmaContext* ctx, const net::SimConfig* config,
                    const AbortLatch* flow_abort, VirtualClock* clock);

 protected:
  Status Transmit(uint32_t fill, bool end) override;

 private:
  FlowEndpoint fanout_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_FLOW_ENDPOINT_H_
