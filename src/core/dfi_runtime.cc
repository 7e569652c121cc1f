#include "core/dfi_runtime.h"

#include <utility>

#include "common/logging.h"
#include "core/combiner_flow.h"
#include "core/graph/diagnostics.h"
#include "core/replicate_flow.h"

namespace dfi {

DfiRuntime::DfiRuntime(net::Fabric* fabric)
    : fabric_(fabric),
      rdma_(std::make_unique<rdma::RdmaEnv>(fabric)),
      registry_service_(/*fabric=*/nullptr),  // loopback control plane
      registry_client_(&registry_service_) {
  DFI_CHECK(fabric != nullptr);
}

DfiRuntime::~DfiRuntime() = default;

template <typename StateT>
StatusOr<std::shared_ptr<StateT>> DfiRuntime::LookupState(
    const std::string& flow_name) const {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<FlowStateBase> base,
                       registry_client_.Retrieve(flow_name));
  auto state = std::dynamic_pointer_cast<StateT>(base);
  if (state == nullptr) {
    return Status::InvalidArgument("flow '" + flow_name +
                                   "' has a different flow type");
  }
  return state;
}

// ---- Shuffle ---------------------------------------------------------------

Status DfiRuntime::InitShuffleFlow(ShuffleFlowSpec spec) {
  // Single-edge slice of the graph layer's typed diagnostic pass (a
  // standalone flow is a one-edge graph with anonymous endpoints).
  std::vector<graph::Diagnostic> diags;
  graph::ValidateShuffleSpec(spec, /*source_vertex=*/"", /*target_vertex=*/"",
                             &diags);
  DFI_RETURN_IF_ERROR(graph::DiagnosticsToStatus(diags));
  const std::string name = spec.name;
  auto state = std::make_shared<ShuffleFlowState>(std::move(spec),
                                                  rdma_.get());
  return registry_client_.Publish(name, std::move(state));
}

StatusOr<std::unique_ptr<ShuffleSource>> DfiRuntime::CreateShuffleSource(
    const std::string& flow_name, uint32_t source_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<ShuffleFlowState> state,
                       LookupState<ShuffleFlowState>(flow_name));
  if (source_index >= state->num_sources()) {
    return Status::OutOfRange("source index " + std::to_string(source_index));
  }
  return std::make_unique<ShuffleSource>(std::move(state), source_index);
}

StatusOr<std::unique_ptr<ShuffleTarget>> DfiRuntime::CreateShuffleTarget(
    const std::string& flow_name, uint32_t target_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<ShuffleFlowState> state,
                       LookupState<ShuffleFlowState>(flow_name));
  if (target_index >= state->num_targets()) {
    return Status::OutOfRange("target index " + std::to_string(target_index));
  }
  return std::make_unique<ShuffleTarget>(std::move(state), target_index);
}

// ---- Replicate -------------------------------------------------------------

Status DfiRuntime::InitReplicateFlow(ReplicateFlowSpec spec) {
  std::vector<graph::Diagnostic> diags;
  graph::ValidateReplicateSpec(spec, /*source_vertex=*/"",
                               /*target_vertex=*/"", &diags);
  DFI_RETURN_IF_ERROR(graph::DiagnosticsToStatus(diags));
  const std::string name = spec.name;
  auto state = std::make_shared<ReplicateFlowState>(std::move(spec),
                                                    rdma_.get());
  return registry_client_.Publish(name, std::move(state));
}

StatusOr<std::unique_ptr<ReplicateSource>> DfiRuntime::CreateReplicateSource(
    const std::string& flow_name, uint32_t source_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<ReplicateFlowState> state,
                       LookupState<ReplicateFlowState>(flow_name));
  if (source_index >= state->num_sources()) {
    return Status::OutOfRange("source index " + std::to_string(source_index));
  }
  return std::make_unique<ReplicateSource>(std::move(state), source_index);
}

StatusOr<std::unique_ptr<ReplicateTarget>> DfiRuntime::CreateReplicateTarget(
    const std::string& flow_name, uint32_t target_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<ReplicateFlowState> state,
                       LookupState<ReplicateFlowState>(flow_name));
  if (target_index >= state->num_targets()) {
    return Status::OutOfRange("target index " + std::to_string(target_index));
  }
  return std::make_unique<ReplicateTarget>(std::move(state), target_index);
}

// ---- Combiner --------------------------------------------------------------

Status DfiRuntime::InitCombinerFlow(CombinerFlowSpec spec) {
  std::vector<net::NodeId> target_nodes;
  if (!spec.targets.empty()) {
    DFI_ASSIGN_OR_RETURN(target_nodes, spec.targets.Resolve(*fabric_));
  }
  std::vector<graph::Diagnostic> diags;
  graph::ValidateCombinerSpec(spec, /*source_vertex=*/"",
                              /*target_vertex=*/"", &target_nodes, &diags);
  DFI_RETURN_IF_ERROR(graph::DiagnosticsToStatus(diags));
  const std::string name = spec.name;
  auto state = std::make_shared<CombinerFlowState>(std::move(spec),
                                                   rdma_.get());
  return registry_client_.Publish(name, std::move(state));
}

StatusOr<std::unique_ptr<CombinerSource>> DfiRuntime::CreateCombinerSource(
    const std::string& flow_name, uint32_t source_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<CombinerFlowState> state,
                       LookupState<CombinerFlowState>(flow_name));
  if (source_index >= state->num_sources()) {
    return Status::OutOfRange("source index " + std::to_string(source_index));
  }
  return std::make_unique<CombinerSource>(std::move(state), source_index);
}

StatusOr<std::unique_ptr<CombinerTarget>> DfiRuntime::CreateCombinerTarget(
    const std::string& flow_name, uint32_t target_index) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<CombinerFlowState> state,
                       LookupState<CombinerFlowState>(flow_name));
  if (target_index >= state->num_targets()) {
    return Status::OutOfRange("target index " + std::to_string(target_index));
  }
  return std::make_unique<CombinerTarget>(std::move(state), target_index);
}

Status DfiRuntime::RemoveFlow(const std::string& flow_name) {
  return registry_client_.Close(flow_name);
}

Status DfiRuntime::RemoveFlows(const std::vector<std::string>& flow_names) {
  DFI_ASSIGN_OR_RETURN(std::vector<reg::OpResult> results,
                       registry_client_.CloseBatch(flow_names));
  for (const reg::OpResult& r : results) {
    DFI_RETURN_IF_ERROR(r.status);
  }
  return Status::OK();
}

Status DfiRuntime::AbortFlow(const std::string& flow_name,
                             const Status& cause) {
  DFI_ASSIGN_OR_RETURN(std::shared_ptr<FlowStateBase> base,
                       registry_client_.Retrieve(flow_name));
  base->Abort(cause);
  return Status::OK();
}

uint64_t DfiRuntime::RegisteredBytesOnNode(net::NodeId node) const {
  return fabric_->node(node).registered_bytes();
}

}  // namespace dfi
