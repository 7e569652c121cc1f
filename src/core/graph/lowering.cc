#include "core/graph/lowering.h"

namespace dfi::graph {

ShuffleFlowSpec LowerShuffleEdge(const EdgeSpec& edge, const VertexSpec& from,
                                 const VertexSpec& to) {
  ShuffleFlowSpec spec;
  spec.name = edge.name;
  spec.sources = from.workers;
  spec.targets = to.workers;
  spec.schema = edge.type.schema;
  spec.shuffle_key_index = edge.key_index;
  spec.routing = edge.routing;
  spec.options = edge.options;
  return spec;
}

ReplicateFlowSpec LowerReplicateEdge(const EdgeSpec& edge,
                                     const VertexSpec& from,
                                     const VertexSpec& to) {
  ReplicateFlowSpec spec;
  spec.name = edge.name;
  spec.sources = from.workers;
  spec.targets = to.workers;
  spec.schema = edge.type.schema;
  spec.options = edge.options;
  return spec;
}

CombinerFlowSpec LowerCombinerEdge(const EdgeSpec& edge,
                                   const VertexSpec& from,
                                   const VertexSpec& to) {
  CombinerFlowSpec spec;
  spec.name = edge.name;
  spec.sources = from.workers;
  spec.targets = to.workers;
  spec.schema = edge.type.schema;
  spec.group_by_index = edge.key_index;
  spec.aggregates = edge.aggregates;
  spec.options = edge.options;
  return spec;
}

}  // namespace dfi::graph
