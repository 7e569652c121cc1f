#ifndef DFI_CORE_SHUFFLE_FLOW_H_
#define DFI_CORE_SHUFFLE_FLOW_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/endpoint/channel_matrix.h"
#include "core/endpoint/flow_endpoint.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/policies.h"
#include "core/flow_options.h"
#include "core/nodes.h"
#include "core/routing.h"
#include "core/schema.h"
#include "registry/registry_types.h"
#include "rdma/rdma_env.h"

namespace dfi {

/// Declarative description of a shuffle flow (paper Figure 1 / Table 1):
/// N source threads route tuples to M target threads, supporting 1:1, N:1,
/// 1:N and N:M topologies.
struct ShuffleFlowSpec {
  std::string name;
  DfiNodes sources;
  DfiNodes targets;
  Schema schema;
  /// Field used by the default key-hash routing.
  size_t shuffle_key_index = 0;
  /// Optional routing override: either a builtin partitioner
  /// (KeyHashRouting / RadixRouting) or an arbitrary RoutingFn (assignable
  /// directly; dispatched per tuple).
  RoutingSpec routing;
  FlowOptions options;
};

/// Shared state of one initialized shuffle flow; published in the registry.
/// A shuffle flow is pure transport — the whole state is the channel
/// matrix.
class ShuffleFlowState : public FlowStateBase {
 public:
  ShuffleFlowState(ShuffleFlowSpec spec, rdma::RdmaEnv* env);

  const ShuffleFlowSpec& spec() const { return spec_; }
  rdma::RdmaEnv* env() { return env_; }
  ChannelMatrix* matrix() { return &matrix_; }
  uint32_t num_sources() const {
    return static_cast<uint32_t>(spec_.sources.size());
  }
  uint32_t num_targets() const {
    return static_cast<uint32_t>(spec_.targets.size());
  }

  net::NodeId source_node(uint32_t source) const {
    return source_nodes_[source];
  }
  const std::vector<net::NodeId>& source_nodes() const {
    return source_nodes_;
  }
  const std::vector<net::NodeId>& target_nodes() const {
    return target_nodes_;
  }

  /// Work-stealing plane (adaptive shuffles): the steal group of the
  /// target's node, over the matrix columns of its targets. Null when the
  /// flow is not adaptive: its sinks have no siblings.
  SinkStealGroup* steal_group_of(uint32_t target) const {
    return group_of_target_.empty() ? nullptr : group_of_target_[target];
  }

  /// Registered bytes of all rings of this flow on `node` (memory
  /// accounting, paper section 6.1.4; excludes source-side staging which is
  /// counted when sources are created).
  uint64_t RingBytesOnNode(net::NodeId node) const {
    return matrix_.RingBytesOnNode(node);
  }

  /// Tears down the whole flow: poisons every channel so all participants'
  /// next (or currently blocked) operation returns `cause`. Safe from any
  /// thread; endpoint-level Abort() calls funnel here.
  void Abort(const Status& cause) override { matrix_.PoisonAll(cause); }

 private:
  const ShuffleFlowSpec spec_;
  rdma::RdmaEnv* const env_;
  std::vector<net::NodeId> source_nodes_;
  std::vector<net::NodeId> target_nodes_;
  ChannelMatrix matrix_;
  // Work-stealing plane; empty unless adaptive (see steal_group_of()).
  std::vector<std::unique_ptr<SinkStealGroup>> steal_groups_;  // per node
  std::vector<SinkStealGroup*> group_of_target_;
};

/// Source handle of a shuffle flow, bound to one worker thread: a
/// FlowEndpoint (the unified source transport) driven by the flow's
/// Partitioner policy. Obtained from DfiRuntime::CreateShuffleSource. Push
/// is asynchronous and returns as soon as the tuple is staged (paper
/// section 3.3).
class ShuffleSource {
 public:
  ShuffleSource(std::shared_ptr<ShuffleFlowState> state,
                uint32_t source_index);

  ShuffleSource(const ShuffleSource&) = delete;
  ShuffleSource& operator=(const ShuffleSource&) = delete;

  /// Pushes one packed tuple, routed by the flow's key / routing function
  /// (or its AdaptivePartitioner when the flow opted into skew
  /// adaptation).
  Status Push(const void* tuple) {
    if (adaptive_.has_value()) {
      return endpoint_->PushAdaptive(tuple, &*adaptive_);
    }
    return endpoint_->Push(tuple, &partitioner_);
  }

  /// Pushes with an explicit target (paper section 4.2.1, option (3)).
  Status PushTo(const void* tuple, uint32_t target_index) {
    return endpoint_->PushTo(tuple, target_index);
  }

  /// Transmits all partially-filled segments.
  Status Flush() { return endpoint_->Flush(); }

  /// Flushes and signals end-of-flow to every target. Idempotent.
  Status Close() { return endpoint_->Close(); }

  /// Aborts this source's channels without a clean end-of-flow: every
  /// target observes the poisoned footer / shared poison state and its
  /// consume returns kError. Used when the worker cannot finish (crash
  /// simulation, upstream failure).
  void Abort(const Status& cause) { endpoint_->Abort(cause); }

  const Schema& schema() const { return state_->spec().schema; }
  uint32_t source_index() const { return source_index_; }
  VirtualClock& clock() { return clock_; }

  /// The skew-adaptation policy, when the flow opted in (observability:
  /// promotions/demotions/re-split counts).
  const AdaptivePartitioner* adaptive() const {
    return adaptive_.has_value() ? &*adaptive_ : nullptr;
  }

 private:
  std::shared_ptr<ShuffleFlowState> state_;
  const uint32_t source_index_;
  VirtualClock clock_;
  Partitioner partitioner_;  // resolved routing policy (never kUnset)
  std::optional<AdaptivePartitioner> adaptive_;  // opt-in skew adaptation
  std::optional<FlowEndpoint> endpoint_;
};

/// Target handle of a shuffle flow, bound to one worker thread: a FlowSink
/// (the unified target transport) with no consume-side policy — shuffle
/// targets surface segments and tuples as-is.
class ShuffleTarget {
 public:
  ShuffleTarget(std::shared_ptr<ShuffleFlowState> state,
                uint32_t target_index);

  ShuffleTarget(const ShuffleTarget&) = delete;
  ShuffleTarget& operator=(const ShuffleTarget&) = delete;

  /// Blocking: next tuple out of the flow. Returns kFlowEnd once every
  /// source has closed and all segments are drained.
  ConsumeResult Consume(TupleView* out) { return sink_->Consume(out); }

  /// Blocking: next whole segment, zero-copy. The view is valid until the
  /// next ConsumeSegment/Consume call.
  ConsumeResult ConsumeSegment(SegmentView* out) {
    return sink_->ConsumeSegment(out);
  }

  /// Non-blocking variant; returns false if nothing is currently
  /// consumable (out_result distinguishes empty from flow end).
  bool TryConsumeSegment(SegmentView* out, ConsumeResult* out_result) {
    return sink_->TryConsumeSegment(out, out_result);
  }

  /// Aborts the target side: sources blocked on this target's full rings
  /// wake with kAborted instead of waiting out their deadline.
  void Abort(const Status& cause) { sink_->Abort(cause); }

  /// The failure behind the last ConsumeResult::kError (OK otherwise).
  const Status& last_status() const { return sink_->last_status(); }

  const Schema& schema() const { return state_->spec().schema; }
  uint32_t target_index() const { return target_index_; }
  VirtualClock& clock() { return clock_; }

  /// Work-stealing mode: segments consumed from same-node siblings'
  /// columns (0 on the exclusive path).
  uint64_t stolen_segments() const { return sink_->stolen_segments(); }

 private:
  std::shared_ptr<ShuffleFlowState> state_;
  const uint32_t target_index_;
  VirtualClock clock_;
  std::optional<FlowSink> sink_;
};

}  // namespace dfi

#endif  // DFI_CORE_SHUFFLE_FLOW_H_
