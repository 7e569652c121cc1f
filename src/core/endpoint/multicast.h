#ifndef DFI_CORE_ENDPOINT_MULTICAST_H_
#define DFI_CORE_ENDPOINT_MULTICAST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/abort_latch.h"
#include "core/endpoint/flow_endpoint.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/policies.h"
#include "core/ring_sync.h"
#include "core/segment.h"
#include "net/fault_plan.h"
#include "rdma/rdma_env.h"
#include "rdma/ud_queue_pair.h"

namespace dfi {

/// Shared switch-replication machinery of a multicast flow: the multicast
/// group, per-target UD receive pools, the credit window (paper section
/// 5.4), and — when globally ordered — the tuple sequencer plus per-source
/// retransmit histories. Owned by the flow state; endpoints and sinks hold
/// pointers.
class MulticastState {
 public:
  MulticastState(rdma::RdmaEnv* env, const FlowOptions& options,
                 uint32_t tuple_size, uint32_t num_sources,
                 std::vector<net::NodeId> target_nodes,
                 const AbortLatch* flow_abort);

  MulticastState(const MulticastState&) = delete;
  MulticastState& operator=(const MulticastState&) = delete;

  uint32_t num_sources() const { return num_sources_; }
  uint32_t num_targets() const {
    return static_cast<uint32_t>(target_nodes_.size());
  }
  bool ordered() const { return options_.global_ordering; }
  const FlowOptions& options() const { return options_; }
  uint32_t payload_capacity() const { return payload_capacity_; }
  uint32_t slot_bytes() const {
    return payload_capacity_ + sizeof(SegmentFooter);
  }
  net::MulticastGroupId group() const { return group_; }
  rdma::UdQueuePair* target_qp(uint32_t target) {
    return target_qps_[target];
  }
  uint8_t* recv_slot(uint32_t target, uint32_t slot);
  net::NodeId target_node(uint32_t target) const {
    return target_nodes_[target];
  }
  const net::FaultPlan& fault_plan() const {
    return env_->fabric().fault_plan();
  }

  /// Credit protocol (paper section 5.4): a message with position `p` may
  /// only be sent once every target has consumed more than
  /// `p - pool_slots` messages. Targets report consumption through a
  /// back-flow counter; sources cache and refresh it with RDMA reads.
  /// AcquirePosition fails with kPeerFailed when the sequencer node is
  /// down; WaitForCredit fails with kDeadlineExceeded / kPeerFailed /
  /// kAborted when the window cannot advance (dead or aborted target).
  StatusOr<uint64_t> AcquirePosition(rdma::RcQueuePair* seq_qp,
                                     VirtualClock* clock);
  Status WaitForCredit(uint64_t position,
                       std::vector<rdma::RcQueuePair*>& credit_qps,
                       VirtualClock* clock);
  void ReportConsumed(uint32_t target, SimTime now);
  uint64_t LoadConsumed(uint32_t target) const;
  rdma::RemoteRef credit_ref(uint32_t target) const;
  rdma::RemoteRef sequencer_ref() const { return sequencer_mr_->RefAt(0); }
  net::NodeId sequencer_node() const { return target_nodes_[0]; }

  /// Ordered mode: retransmit history. Sources record every sent segment
  /// (bounded) before sending; a target that timed out on a gap pulls the
  /// segment from here (the emulation's stand-in for the paper's
  /// lost-segment request back-flow).
  void RecordHistory(uint32_t source, uint64_t seq, const uint8_t* data,
                     uint32_t len);
  bool LookupHistory(uint64_t seq, std::vector<uint8_t>* out) const;

  /// End-of-flow bookkeeping for multicast targets.
  uint32_t& ends_seen(uint32_t target) { return ends_seen_[target]; }

  /// Flow teardown: wakes sources blocked on the credit window and every
  /// target's consumer parked on its receive queue.
  void WakeWaiters();

 private:
  rdma::RdmaEnv* const env_;
  const FlowOptions options_;
  const uint32_t num_sources_;
  const std::vector<net::NodeId> target_nodes_;
  const AbortLatch* const flow_abort_;
  uint32_t payload_capacity_ = 0;
  uint32_t pool_slots_ = 0;

  net::MulticastGroupId group_ = 0;
  std::vector<rdma::UdQueuePair*> target_qps_;
  std::vector<rdma::MemoryRegion*> recv_pools_;
  std::vector<rdma::MemoryRegion*> credit_mrs_;  // one consumed counter each
  std::vector<SimTime> consume_time_;
  rdma::MemoryRegion* sequencer_mr_ = nullptr;
  uint64_t unordered_positions_ = 0;
  RingSync credit_sync_;
  std::vector<uint32_t> ends_seen_;

  // Ordered mode retransmit history (per source).
  struct History {
    std::map<uint64_t, std::vector<uint8_t>> segments;
  };
  std::vector<std::unique_ptr<History>> histories_;
  static constexpr size_t kHistoryDepth = 4096;
};

/// Switch-replication fan-out transport: the staged segment is sequenced
/// (ordered mode), credit-gated, and sent once as a UD multicast datagram;
/// the switch replicates it to every target (paper section 4.2.2).
class MulticastSendEndpoint : public FanoutEndpoint {
 public:
  MulticastSendEndpoint(MulticastState* mcast, uint32_t source_index,
                        rdma::RdmaContext* ctx, const net::SimConfig* config,
                        const AbortLatch* flow_abort, VirtualClock* clock);

 protected:
  Status Transmit(uint32_t fill, bool end) override;

 private:
  MulticastState* const mcast_;
  const uint32_t source_index_;
  rdma::UdQueuePair* ud_qp_ = nullptr;
  rdma::RcQueuePair* seq_qp_ = nullptr;  // sequencer fetch-and-add
  std::vector<rdma::RcQueuePair*> credit_qps_;
  uint64_t send_count_ = 0;
};

/// Target half of a multicast flow: consumes segments from the UD receive
/// pool. Ordered flows compose a Sequencer to deliver the global sequence,
/// reordering out-of-order arrivals (paper Figure 6) and handling gaps by
/// timeout + retransmission — or by surfacing kGap to the application when
/// FlowOptions::app_handles_gaps is set.
class MulticastSink {
 public:
  MulticastSink(MulticastState* mcast, uint32_t target_index,
                const Schema* schema, const net::SimConfig* config,
                VirtualClock* clock, std::string label,
                std::vector<net::NodeId> source_nodes,
                const AbortLatch* flow_abort);

  MulticastSink(const MulticastSink&) = delete;
  MulticastSink& operator=(const MulticastSink&) = delete;

  ConsumeResult ConsumeSegment(SegmentView* out);
  ConsumeResult Consume(TupleView* out) {
    return tuples_.Next(
        out, [this](SegmentView* view) { return ConsumeSegment(view); });
  }

  /// Ordered + app_handles_gaps: skip the missing sequence the last kGap
  /// reported (the application decided it is a no-op). Reports the skipped
  /// position as consumed so the credit window keeps moving.
  void SkipGap();

  /// Ordered + app_handles_gaps: adopt `data` as the content of the missing
  /// sequence the last kGap reported (the application recovered it through
  /// its own protocol, e.g. NOPaxos gap agreement).
  void SupplyGap(const void* data, uint32_t bytes);

  const Status& last_status() const { return last_status_; }

 private:
  /// The two blocking consumes: each waits on the receive queue until it
  /// has a segment (or kFlowEnd / kGap) for `*result`.
  Status ConsumeUnordered(SegmentView* out, ConsumeResult* result);
  Status ConsumeOrdered(SegmentView* out, ConsumeResult* result);
  /// Ordered mode, on a wait round after a park: when loss is possible,
  /// reports the missing head sequence as a gap (app_handles_gaps; returns
  /// true and fills `out`) or pulls it from a retransmit history.
  bool RecoverGap(SegmentView* out);
  void ReleaseHeld();
  /// What ends a blocked consume early, probed at virtual time `now`: the
  /// flow's teardown, or a source that crashed (fault plan).
  Status Failure(SimTime now) const;
  /// Parses the footer at the end of a received datagram slot.
  const SegmentFooter* SlotFooter(uint32_t slot) const;

  MulticastState* const mcast_;
  const uint32_t target_index_;
  const net::SimConfig* const config_;
  VirtualClock* const clock_;
  /// Names this sink's wait in failure messages ("replicate consume").
  const std::string what_;
  const std::vector<net::NodeId> source_nodes_;
  const AbortLatch* const flow_abort_;

  int held_slot_ = -1;
  std::vector<uint8_t> held_copy_;  // retransmitted segment storage
  Sequencer seq_;                   // ordered mode
  TupleIterator tuples_;
  Status last_status_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_MULTICAST_H_
