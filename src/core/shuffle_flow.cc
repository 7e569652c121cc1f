#include "core/shuffle_flow.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dfi {

// ---------------------------------------------------------------------------
// ShuffleFlowState
// ---------------------------------------------------------------------------

ShuffleFlowState::ShuffleFlowState(ShuffleFlowSpec spec, rdma::RdmaEnv* env)
    : spec_(std::move(spec)), env_(env) {
  auto sources = spec_.sources.Resolve(env_->fabric());
  DFI_CHECK(sources.ok()) << sources.status();
  source_nodes_ = std::move(sources).value();
  auto targets = spec_.targets.Resolve(env_->fabric());
  DFI_CHECK(targets.ok()) << targets.status();
  target_nodes_ = std::move(targets).value();
  DFI_CHECK_GT(num_sources(), 0u);
  DFI_CHECK_GT(num_targets(), 0u);
  matrix_ = ChannelMatrix(
      env_, spec_.options,
      static_cast<uint32_t>(spec_.schema.tuple_size()), num_sources(),
      target_nodes_);

  // Work-stealing plane: the matrix columns grouped per node, plus the
  // group wakeups every delivery bumps. A node that hosts one target keeps
  // its one-column group, so that sink runs the group's schedule too.
  if (spec_.options.adaptive.enabled) {
    group_of_target_.resize(num_targets());
    std::vector<net::NodeId> group_nodes;
    for (uint32_t t = 0; t < num_targets(); ++t) {
      const size_t g = std::find(group_nodes.begin(), group_nodes.end(),
                                 target_nodes_[t]) -
                       group_nodes.begin();
      if (g == group_nodes.size()) {
        group_nodes.push_back(target_nodes_[t]);
        steal_groups_.push_back(std::make_unique<SinkStealGroup>());
      }
      SinkStealGroup* group = steal_groups_[g].get();
      group->AddColumn(matrix_.column(t));
      group_of_target_[t] = group;
      for (uint32_t s = 0; s < num_sources(); ++s) {
        matrix_.channel(s, t)->set_steal_wake(&group->wake());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShuffleSource
// ---------------------------------------------------------------------------

ShuffleSource::ShuffleSource(std::shared_ptr<ShuffleFlowState> state,
                             uint32_t source_index)
    : state_(std::move(state)), source_index_(source_index) {
  DFI_CHECK_LT(source_index_, state_->num_sources());
  const RoutingSpec routing =
      state_->spec().routing.set()
          ? state_->spec().routing
          : KeyHashRouting(state_->spec().shuffle_key_index);
  partitioner_ = Partitioner::FromRouting(routing, &state_->spec().schema,
                                          state_->num_targets());
  if (state_->spec().options.adaptive.enabled) {
    // Adaptive routing wraps the key-hash geometry; InitShuffleFlow
    // rejects adaptive specs with a non-key-hash routing override.
    DFI_CHECK(routing.kind() == RoutingSpec::Kind::kKeyHash)
        << "adaptive shuffle requires key-hash routing";
    adaptive_.emplace(&state_->spec().schema, routing.key_field_index(),
                      state_->target_nodes(),
                      state_->spec().options.adaptive,
                      state_->matrix()->load_board());
  }
  endpoint_.emplace(
      state_->matrix(), source_index_,
      state_->env()->context(state_->source_node(source_index_)), &clock_);
}

// ---------------------------------------------------------------------------
// ShuffleTarget
// ---------------------------------------------------------------------------

ShuffleTarget::ShuffleTarget(std::shared_ptr<ShuffleFlowState> state,
                             uint32_t target_index)
    : state_(std::move(state)), target_index_(target_index) {
  DFI_CHECK_LT(target_index_, state_->num_targets());
  sink_.emplace(state_->matrix(), target_index_,
                state_->steal_group_of(target_index_),
                &state_->spec().schema, &state_->env()->config(), &clock_,
                "shuffle", state_->source_nodes());
}

}  // namespace dfi
