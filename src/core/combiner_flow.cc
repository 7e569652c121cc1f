#include "core/combiner_flow.h"

#include <utility>

#include "common/logging.h"

namespace dfi {

// ---------------------------------------------------------------------------
// CombinerFlowState
// ---------------------------------------------------------------------------

CombinerFlowState::CombinerFlowState(CombinerFlowSpec spec,
                                     rdma::RdmaEnv* env)
    : spec_(std::move(spec)), env_(env) {
  DFI_CHECK(!spec_.aggregates.empty())
      << "combiner flow needs at least one aggregate";
  auto sources = spec_.sources.Resolve(env_->fabric());
  DFI_CHECK(sources.ok()) << sources.status();
  source_nodes_ = std::move(sources).value();
  auto targets = spec_.targets.Resolve(env_->fabric());
  DFI_CHECK(targets.ok()) << targets.status();
  target_nodes_ = std::move(targets).value();
  // Topology validation (N:1) happens in DfiRuntime::InitCombinerFlow,
  // where it can return a clean Status.
  matrix_ = ChannelMatrix(
      env_, spec_.options,
      static_cast<uint32_t>(spec_.schema.tuple_size()), num_sources(),
      target_nodes_);
}

// ---------------------------------------------------------------------------
// CombinerSource
// ---------------------------------------------------------------------------

CombinerSource::CombinerSource(std::shared_ptr<CombinerFlowState> state,
                               uint32_t source_index)
    : state_(std::move(state)), source_index_(source_index) {
  DFI_CHECK_LT(source_index_, state_->num_sources());
  const CombinerFlowSpec& spec = state_->spec();
  const uint32_t m = state_->num_targets();
  if (m > 1) {
    partitioner_ = Partitioner::KeyHash(&spec.schema, spec.group_by_index, m);
  } else {
    partitioner_ = Partitioner::Single();
  }
  endpoint_.emplace(
      state_->matrix(), source_index_,
      state_->env()->context(state_->source_node(source_index_)), &clock_);
}

// ---------------------------------------------------------------------------
// CombinerTarget
// ---------------------------------------------------------------------------

CombinerTarget::CombinerTarget(std::shared_ptr<CombinerFlowState> state,
                               uint32_t target_index)
    : state_(std::move(state)),
      target_index_(target_index),
      config_(&state_->env()->config()) {
  DFI_CHECK_LT(target_index_, state_->num_targets());
  const CombinerFlowSpec& spec = state_->spec();
  sink_.emplace(state_->matrix(), target_index_, /*group=*/nullptr,
                &spec.schema, config_, &clock_, "combiner",
                state_->source_nodes());
  aggregator_.emplace(&spec.schema, &spec.aggregates, spec.group_by_index,
                      config_, &clock_);
}

Status CombinerTarget::Drain() {
  const size_t tuple_size = state_->spec().schema.tuple_size();
  // Fold segments as the unified transport serves them (aggregation
  // happens as segments arrive, paper section 4.2.3).
  for (;;) {
    SegmentView view;
    const ConsumeResult r = sink_->ConsumeSegment(&view);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r != ConsumeResult::kOk) return sink_->last_status();
    aggregator_->FoldSegment(view.payload, view.bytes / tuple_size);
  }
  drained_ = true;
  return Status::OK();
}

ConsumeResult CombinerTarget::ConsumeAggregate(AggRow* out) {
  if (!drained_) {
    Status s = Drain();
    if (!s.ok()) {
      last_status_ = std::move(s);
      return ConsumeResult::kError;
    }
  }
  if (!aggregator_->NextRow(out)) return ConsumeResult::kFlowEnd;
  clock_.Advance(config_->tuple_consume_fixed_ns);
  return ConsumeResult::kOk;
}

}  // namespace dfi
