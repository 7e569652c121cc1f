#ifndef DFI_CORE_GRAPH_DIAGNOSTICS_H_
#define DFI_CORE_GRAPH_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"

namespace dfi {

struct ShuffleFlowSpec;
struct ReplicateFlowSpec;
struct CombinerFlowSpec;

namespace graph {

/// What a graph-validation diagnostic is about. One code per rule so tests
/// and tools can match structurally instead of grepping messages.
enum class DiagCode : uint8_t {
  kEmptyName,            ///< vertex/edge/flow without a name
  kDuplicateName,        ///< vertex or edge name used twice
  kUnknownVertex,        ///< edge endpoint names no declared vertex
  kNoWorkers,            ///< vertex/flow side with an empty placement
  kArity,                ///< in/out degree illegal for the operator kind
  kCycle,                ///< the graph is not a DAG
  kSchemaMismatch,       ///< produced schema incompatible with the edge type
  kKeyOutOfRange,        ///< shuffle key / group-by / aggregate field index
  kAdaptiveRouting,      ///< adaptive shuffle on non-key-hash routing
  kOrderingUnsatisfied,  ///< required ordering the edge cannot deliver
  kCombinerTopology,     ///< combiner targets spanning several nodes
  kNoAggregates,         ///< combiner edge without aggregate specs
  kMissingBody,          ///< operator kind requires a callback it lacks
  kParamOutOfRange,      ///< operator parameter the run cannot execute
};

const char* DiagCodeName(DiagCode code);

/// One finding of the typed validation pass: the rule, the offending vertex
/// and/or edge by name, and a human-readable explanation. `status_code` is
/// what the finding maps to when surfaced as a Status (kInvalidArgument for
/// everything except transports that exist but are not wired up, which keep
/// their historical kUnimplemented).
struct Diagnostic {
  DiagCode code;
  std::string vertex;  ///< offending vertex name ("" when edge-only)
  std::string edge;    ///< offending edge/flow name ("" when vertex-only)
  std::string message;
  StatusCode status_code = StatusCode::kInvalidArgument;

  /// "vertex 'w' / edge 'shuffle': [adaptive-routing] ..." — the rendering
  /// used in joined Status messages.
  std::string ToString() const;
};

/// OK when empty; otherwise a Status whose code is the first diagnostic's
/// status_code and whose message joins every finding ("; "-separated).
Status DiagnosticsToStatus(const std::vector<Diagnostic>& diags);

// ---- Shared per-flow validators -------------------------------------------
// One rule set serving both entry points: DfiRuntime::Init*Flow (a single
// edge, no vertex context) and Graph::Build (every edge, with the adjacent
// vertices named). `vertex` names the producing vertex for source-side
// rules and the consuming vertex for target-side rules; pass "" from the
// standalone flow APIs.

void ValidateShuffleSpec(const ShuffleFlowSpec& spec,
                         const std::string& source_vertex,
                         const std::string& target_vertex,
                         std::vector<Diagnostic>* out);

void ValidateReplicateSpec(const ReplicateFlowSpec& spec,
                           const std::string& source_vertex,
                           const std::string& target_vertex,
                           std::vector<Diagnostic>* out);

/// `target_nodes` are the resolved fabric nodes of the target placement
/// (the N:1 topology rule needs them); pass nullptr to skip that rule when
/// no fabric is at hand.
void ValidateCombinerSpec(const CombinerFlowSpec& spec,
                          const std::string& source_vertex,
                          const std::string& target_vertex,
                          const std::vector<net::NodeId>* target_nodes,
                          std::vector<Diagnostic>* out);

}  // namespace graph
}  // namespace dfi

#endif  // DFI_CORE_GRAPH_DIAGNOSTICS_H_
