#ifndef DFI_CORE_REPLICATE_FLOW_H_
#define DFI_CORE_REPLICATE_FLOW_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/abort_latch.h"
#include "core/endpoint/channel_matrix.h"
#include "core/endpoint/flow_endpoint.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/multicast.h"
#include "core/flow_options.h"
#include "core/nodes.h"
#include "core/schema.h"
#include "registry/registry_types.h"
#include "rdma/rdma_env.h"

namespace dfi {

/// Declarative description of a replicate flow (paper section 4.2.2): every
/// tuple pushed by any source is delivered to *all* targets. Topologies 1:N
/// and N:M. Options: bandwidth/latency, naive one-sided vs. RDMA multicast
/// transport, and a global ordering guarantee (all targets consume the same
/// sequence — the OUM primitive used by NOPaxos).
struct ReplicateFlowSpec {
  std::string name;
  DfiNodes sources;
  DfiNodes targets;
  Schema schema;
  FlowOptions options;
};

/// Shared state of a replicate flow. For the naive transport this is the
/// same private channel matrix as a shuffle flow (one ring per
/// source/target pair, written one-sided). For multicast it is the shared
/// MulticastState (switch group, per-target UD receive machinery, credit
/// window and — when globally ordered — the tuple sequencer and retransmit
/// histories). Teardown has flow granularity either way: an AbortLatch
/// shared by all participants, tripped only by Abort.
class ReplicateFlowState : public FlowStateBase {
 public:
  ReplicateFlowState(ReplicateFlowSpec spec, rdma::RdmaEnv* env);

  const ReplicateFlowSpec& spec() const { return spec_; }
  rdma::RdmaEnv* env() { return env_; }
  uint32_t num_sources() const {
    return static_cast<uint32_t>(spec_.sources.size());
  }
  uint32_t num_targets() const {
    return static_cast<uint32_t>(spec_.targets.size());
  }
  bool multicast() const { return spec_.options.use_multicast; }
  bool ordered() const { return spec_.options.global_ordering; }
  uint32_t payload_capacity() const {
    return mcast_ ? mcast_->payload_capacity() : payload_capacity_;
  }

  ChannelMatrix* matrix() { return &matrix_; }          // naive transport
  MulticastState* mcast() { return mcast_.get(); }      // multicast
  AbortLatch* abort_latch() { return &latch_; }

  net::NodeId source_node(uint32_t source) const {
    return source_nodes_[source];
  }
  net::NodeId target_node(uint32_t target) const {
    return target_nodes_[target];
  }
  const std::vector<net::NodeId>& source_nodes() const {
    return source_nodes_;
  }

  /// Tears the whole flow down, from whichever endpoint aborts. Replication
  /// is all-to-all (every target consumes every tuple), so teardown has
  /// flow granularity: it trips the latch (checked by every source push and
  /// by the multicast waits), poisons every naive-mode channel and wakes
  /// every blocked participant — multicast sources on the credit window and
  /// consumers on their receive queues. First cause wins.
  void Abort(const Status& cause) override;
  bool aborted() const { return latch_.tripped(); }

 private:
  const ReplicateFlowSpec spec_;
  rdma::RdmaEnv* const env_;
  std::vector<net::NodeId> source_nodes_;
  std::vector<net::NodeId> target_nodes_;
  uint32_t payload_capacity_ = 0;  // naive transport
  AbortLatch latch_;
  ChannelMatrix matrix_;                   // naive transport
  std::unique_ptr<MulticastState> mcast_;  // multicast transport
};

/// Source handle of a replicate flow: a FanoutEndpoint — tuples are staged
/// once regardless of target count; the transport (BroadcastEndpoint for
/// naive, MulticastSendEndpoint for switch replication) fans the segment
/// out at transmit time.
class ReplicateSource {
 public:
  ReplicateSource(std::shared_ptr<ReplicateFlowState> state,
                  uint32_t source_index);

  ReplicateSource(const ReplicateSource&) = delete;
  ReplicateSource& operator=(const ReplicateSource&) = delete;

  /// Pushes one tuple to *all* targets.
  Status Push(const void* tuple) {
    return endpoint_->Push(
        tuple, static_cast<uint32_t>(schema().tuple_size()));
  }
  Status Flush() { return endpoint_->Flush(); }
  Status Close() { return endpoint_->Close(); }

  /// Aborts without a clean end-of-flow. Replication is all-to-all, so the
  /// whole flow is torn down (ReplicateFlowState::Abort): every blocked
  /// participant wakes, and every other participant's next operation fails
  /// with `cause`, sibling sources included. This source's own later
  /// pushes fail as pushes on a closed source.
  void Abort(const Status& cause) {
    endpoint_->MarkClosed();
    state_->Abort(cause);
  }

  const Schema& schema() const { return state_->spec().schema; }
  VirtualClock& clock() { return clock_; }

 private:
  std::shared_ptr<ReplicateFlowState> state_;
  const uint32_t source_index_;
  VirtualClock clock_;
  std::unique_ptr<FanoutEndpoint> endpoint_;
};

/// Target handle of a replicate flow: a FlowSink (naive transport) or a
/// MulticastSink (switch replication). For ordered flows, consume returns
/// segments in global sequence order, reordering out-of-order arrivals via
/// the Sequencer policy (paper Figure 6) and handling gaps by timeout +
/// retransmission (or by surfacing kGap to the application when
/// FlowOptions::app_handles_gaps is set; out->sequence then holds the
/// missing sequence number).
class ReplicateTarget {
 public:
  ReplicateTarget(std::shared_ptr<ReplicateFlowState> state,
                  uint32_t target_index);

  ReplicateTarget(const ReplicateTarget&) = delete;
  ReplicateTarget& operator=(const ReplicateTarget&) = delete;

  /// Blocking consume of the next segment (zero-copy into the receive
  /// pool / ring). Tuples are packed in the payload as in shuffle flows.
  ConsumeResult ConsumeSegment(SegmentView* out) {
    return sink_ ? sink_->ConsumeSegment(out)
                 : mcast_sink_->ConsumeSegment(out);
  }

  /// Blocking consume of the next single tuple.
  ConsumeResult Consume(TupleView* out) {
    return sink_ ? sink_->Consume(out) : mcast_sink_->Consume(out);
  }

  /// Ordered + app_handles_gaps: skip the missing sequence the last kGap
  /// reported (the application decided it is a no-op). Reports the skipped
  /// position as consumed so the credit window keeps moving.
  void SkipGap();

  /// Ordered + app_handles_gaps: adopt `data` as the content of the missing
  /// sequence the last kGap reported (the application recovered it through
  /// its own protocol, e.g. NOPaxos gap agreement).
  void SupplyGap(const void* data, uint32_t bytes);

  /// Aborts the whole flow (see ReplicateFlowState::Abort).
  void Abort(const Status& cause) { state_->Abort(cause); }

  /// The failure behind the last ConsumeResult::kError (OK otherwise).
  const Status& last_status() const {
    return sink_ ? sink_->last_status() : mcast_sink_->last_status();
  }

  const Schema& schema() const { return state_->spec().schema; }
  uint32_t target_index() const { return target_index_; }
  VirtualClock& clock() { return clock_; }

 private:
  std::shared_ptr<ReplicateFlowState> state_;
  const uint32_t target_index_;
  VirtualClock clock_;
  std::optional<FlowSink> sink_;            // naive transport
  std::optional<MulticastSink> mcast_sink_;  // multicast transport
};

}  // namespace dfi

#endif  // DFI_CORE_REPLICATE_FLOW_H_
