#include "core/replicate_flow.h"

#include <utility>

#include "common/logging.h"

namespace dfi {

// ---------------------------------------------------------------------------
// ReplicateFlowState
// ---------------------------------------------------------------------------

ReplicateFlowState::ReplicateFlowState(ReplicateFlowSpec spec,
                                       rdma::RdmaEnv* env)
    : spec_(std::move(spec)), env_(env) {
  auto sources = spec_.sources.Resolve(env_->fabric());
  DFI_CHECK(sources.ok()) << sources.status();
  source_nodes_ = std::move(sources).value();
  auto targets = spec_.targets.Resolve(env_->fabric());
  DFI_CHECK(targets.ok()) << targets.status();
  target_nodes_ = std::move(targets).value();
  DFI_CHECK_GT(num_sources(), 0u);
  DFI_CHECK_GT(num_targets(), 0u);

  const uint32_t tuple_size =
      static_cast<uint32_t>(spec_.schema.tuple_size());
  if (multicast()) {
    mcast_ = std::make_unique<MulticastState>(env_, spec_.options,
                                              tuple_size, num_sources(),
                                              target_nodes_, &latch_);
    return;
  }
  DFI_CHECK(!ordered()) << "global ordering requires the multicast "
                           "transport in this implementation";
  payload_capacity_ =
      ChannelShared::PayloadCapacityFor(spec_.options, tuple_size);
  matrix_ = ChannelMatrix(env_, spec_.options, tuple_size, num_sources(),
                          target_nodes_);
}

void ReplicateFlowState::Abort(const Status& cause) {
  if (!latch_.Trip(cause)) return;  // first cause wins
  matrix_.PoisonAll(latch_.status());  // naive transport, if any
  if (mcast_) mcast_->WakeWaiters();
}

// ---------------------------------------------------------------------------
// ReplicateSource
// ---------------------------------------------------------------------------

ReplicateSource::ReplicateSource(std::shared_ptr<ReplicateFlowState> state,
                                 uint32_t source_index)
    : state_(std::move(state)), source_index_(source_index) {
  DFI_CHECK_LT(source_index_, state_->num_sources());
  rdma::RdmaContext* ctx =
      state_->env()->context(state_->source_node(source_index_));
  const net::SimConfig* config = &state_->env()->config();
  if (state_->multicast()) {
    endpoint_ = std::make_unique<MulticastSendEndpoint>(
        state_->mcast(), source_index_, ctx, config,
        state_->abort_latch(), &clock_);
  } else {
    endpoint_ = std::make_unique<BroadcastEndpoint>(
        state_->matrix(), source_index_, ctx, config,
        state_->abort_latch(), &clock_);
  }
}

// ---------------------------------------------------------------------------
// ReplicateTarget
// ---------------------------------------------------------------------------

ReplicateTarget::ReplicateTarget(std::shared_ptr<ReplicateFlowState> state,
                                 uint32_t target_index)
    : state_(std::move(state)), target_index_(target_index) {
  DFI_CHECK_LT(target_index_, state_->num_targets());
  const ReplicateFlowSpec& spec = state_->spec();
  const net::SimConfig* config = &state_->env()->config();
  if (state_->multicast()) {
    mcast_sink_.emplace(state_->mcast(), target_index_, &spec.schema,
                        config, &clock_, "replicate",
                        state_->source_nodes(), state_->abort_latch());
  } else {
    sink_.emplace(state_->matrix(), target_index_, /*group=*/nullptr,
                  &spec.schema, config, &clock_, "replicate",
                  state_->source_nodes());
  }
}

void ReplicateTarget::SkipGap() {
  DFI_CHECK(mcast_sink_.has_value())
      << "gap handling requires the multicast transport";
  mcast_sink_->SkipGap();
}

void ReplicateTarget::SupplyGap(const void* data, uint32_t bytes) {
  DFI_CHECK(mcast_sink_.has_value())
      << "gap handling requires the multicast transport";
  mcast_sink_->SupplyGap(data, bytes);
}

}  // namespace dfi
