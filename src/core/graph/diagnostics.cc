#include "core/graph/diagnostics.h"

#include "core/combiner_flow.h"
#include "core/replicate_flow.h"
#include "core/shuffle_flow.h"

namespace dfi::graph {
namespace {

/// Shorthand for the common InvalidArgument diagnostic.
Diagnostic Diag(DiagCode code, const std::string& vertex,
                const std::string& edge, std::string message) {
  return Diagnostic{code, vertex, edge, std::move(message)};
}

/// Shared source/target placement rule of every flow kind.
template <typename SpecT>
bool ValidateEndpoints(const SpecT& spec, const std::string& source_vertex,
                       const std::string& target_vertex,
                       std::vector<Diagnostic>* out) {
  bool ok = true;
  if (spec.name.empty()) {
    out->push_back(Diag(DiagCode::kEmptyName, "", "",
                        "flow name must not be empty"));
    ok = false;
  }
  if (spec.sources.empty()) {
    out->push_back(Diag(DiagCode::kNoWorkers, source_vertex, spec.name,
                        "flow '" + spec.name +
                            "' needs at least one source endpoint"));
    ok = false;
  }
  if (spec.targets.empty()) {
    out->push_back(Diag(DiagCode::kNoWorkers, target_vertex, spec.name,
                        "flow '" + spec.name +
                            "' needs at least one target endpoint"));
    ok = false;
  }
  return ok;
}

}  // namespace

const char* DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kEmptyName:
      return "empty-name";
    case DiagCode::kDuplicateName:
      return "duplicate-name";
    case DiagCode::kUnknownVertex:
      return "unknown-vertex";
    case DiagCode::kNoWorkers:
      return "no-workers";
    case DiagCode::kArity:
      return "arity";
    case DiagCode::kCycle:
      return "cycle";
    case DiagCode::kSchemaMismatch:
      return "schema-mismatch";
    case DiagCode::kKeyOutOfRange:
      return "key-out-of-range";
    case DiagCode::kAdaptiveRouting:
      return "adaptive-routing";
    case DiagCode::kOrderingUnsatisfied:
      return "ordering-unsatisfied";
    case DiagCode::kCombinerTopology:
      return "combiner-topology";
    case DiagCode::kNoAggregates:
      return "no-aggregates";
    case DiagCode::kMissingBody:
      return "missing-body";
    case DiagCode::kParamOutOfRange:
      return "param-out-of-range";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out;
  if (!vertex.empty()) out += "vertex '" + vertex + "'";
  if (!edge.empty()) {
    if (!out.empty()) out += " / ";
    out += "edge '" + edge + "'";
  }
  if (!out.empty()) out += ": ";
  out += "[";
  out += DiagCodeName(code);
  out += "] ";
  out += message;
  return out;
}

Status DiagnosticsToStatus(const std::vector<Diagnostic>& diags) {
  if (diags.empty()) return Status::OK();
  std::string message;
  for (const Diagnostic& d : diags) {
    if (!message.empty()) message += "; ";
    message += d.ToString();
  }
  return Status(diags.front().status_code, std::move(message));
}

void ValidateShuffleSpec(const ShuffleFlowSpec& spec,
                         const std::string& source_vertex,
                         const std::string& target_vertex,
                         std::vector<Diagnostic>* out) {
  ValidateEndpoints(spec, source_vertex, target_vertex, out);
  if (spec.shuffle_key_index >= spec.schema.num_fields()) {
    out->push_back(Diag(
        DiagCode::kKeyOutOfRange, source_vertex, spec.name,
        "shuffle key index " + std::to_string(spec.shuffle_key_index) +
            " out of range for schema " + spec.schema.ToString()));
  }
  if (spec.options.adaptive.enabled && spec.routing.set() &&
      spec.routing.kind() != RoutingSpec::Kind::kKeyHash) {
    // Adaptive routing re-splits around the key-hash home function; radix
    // and generic routings carry no geometry it could wrap.
    out->push_back(Diag(DiagCode::kAdaptiveRouting, source_vertex, spec.name,
                        "adaptive shuffle requires key-hash (or default) "
                        "routing"));
  }
}

void ValidateReplicateSpec(const ReplicateFlowSpec& spec,
                           const std::string& source_vertex,
                           const std::string& target_vertex,
                           std::vector<Diagnostic>* out) {
  ValidateEndpoints(spec, source_vertex, target_vertex, out);
  if (spec.options.global_ordering && !spec.options.use_multicast) {
    Diagnostic d =
        Diag(DiagCode::kOrderingUnsatisfied, target_vertex, spec.name,
             "global ordering requires the multicast transport");
    // Historical contract: the naive transport could order but is not
    // wired to the sequencer — Unimplemented, not InvalidArgument.
    d.status_code = StatusCode::kUnimplemented;
    out->push_back(d);
  }
}

void ValidateCombinerSpec(const CombinerFlowSpec& spec,
                          const std::string& source_vertex,
                          const std::string& target_vertex,
                          const std::vector<net::NodeId>* target_nodes,
                          std::vector<Diagnostic>* out) {
  ValidateEndpoints(spec, source_vertex, target_vertex, out);
  if (spec.aggregates.empty()) {
    out->push_back(Diag(DiagCode::kNoAggregates, target_vertex, spec.name,
                        "combiner flow needs >= 1 aggregate"));
  }
  if (spec.group_by_index >= spec.schema.num_fields()) {
    out->push_back(Diag(
        DiagCode::kKeyOutOfRange, target_vertex, spec.name,
        "group-by index " + std::to_string(spec.group_by_index) +
            " out of range for schema " + spec.schema.ToString()));
  }
  for (const AggSpec& agg : spec.aggregates) {
    if (agg.func != AggFunc::kCount &&
        agg.field_index >= spec.schema.num_fields()) {
      out->push_back(Diag(
          DiagCode::kKeyOutOfRange, target_vertex, spec.name,
          "aggregate field index " + std::to_string(agg.field_index) +
              " out of range for schema " + spec.schema.ToString()));
    }
  }
  // N:1 (paper section 4.2.3): every target thread on one node.
  if (target_nodes != nullptr) {
    for (net::NodeId t : *target_nodes) {
      if (t != (*target_nodes)[0]) {
        out->push_back(Diag(
            DiagCode::kCombinerTopology, target_vertex, spec.name,
            "combiner targets span multiple nodes; the combiner is N:1"));
        break;
      }
    }
  }
}

}  // namespace dfi::graph
