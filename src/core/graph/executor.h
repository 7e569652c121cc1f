#ifndef DFI_CORE_GRAPH_EXECUTOR_H_
#define DFI_CORE_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/exec/engine.h"
#include "common/status.h"
#include "core/combiner_flow.h"
#include "core/graph/graph.h"
#include "core/replicate_flow.h"
#include "core/shuffle_flow.h"

namespace dfi::graph {

/// One instantiated (lowered) dataflow graph: every edge's flow state is
/// constructed and published through a single batched control-plane RPC,
/// and each built-in operator runs one actor per worker endpoint.
/// Obtained from Graph::Instantiate; lifecycle:
///
///   auto run = DFI_TRY(g.Instantiate(&dfi));
///   DFI_CHECK_OK(run->Start());     // spawns the operator actors
///   DFI_CHECK_OK(run->Finish());    // joins actors, removes the flows
///
/// Start/Finish must be called from inside a running engine task: the
/// operators become engine actors (ActorGroup) in their placement's node
/// domain.
class GraphRun {
 public:
  ~GraphRun();

  GraphRun(const GraphRun&) = delete;
  GraphRun& operator=(const GraphRun&) = delete;

  /// Spawns one actor per worker of every vertex. Idempotence is not
  /// supported; call once.
  Status Start();

  /// Joins all operator actors, then removes every edge's flow from the
  /// registry (one batched RPC). Returns the first operator failure; on
  /// failure the whole graph was already torn down (every edge poisoned) so
  /// no actor deadlocks on a dead peer.
  Status Finish();

  /// First operator failure so far (OK while healthy). Operators run as
  /// tasks of the one engine thread, so any task may read it.
  Status status() const;

  // ---- Observability ------------------------------------------------------
  /// Post-Finish per-vertex totals, summed over the vertex's workers.
  struct VertexStats {
    uint64_t tuples_in = 0;
    uint64_t tuples_out = 0;
    uint64_t join_matches = 0;  ///< kJoin only
    /// Max final virtual time over the vertex's driving clocks (consume
    /// side for operators with inputs, push side for sources).
    SimTime max_clock = 0;
  };
  /// Stats of vertex `name`; zeroes for an unknown vertex.
  VertexStats stats(const std::string& name) const;

  const Graph& graph() const { return graph_; }

 private:
  friend class Graph;

  /// Per-edge lowered flow state; exactly one member is set, matching the
  /// edge kind.
  struct EdgeState {
    std::shared_ptr<ShuffleFlowState> shuffle;
    std::shared_ptr<ReplicateFlowState> replicate;
    std::shared_ptr<CombinerFlowState> combiner;
  };

  GraphRun(Graph graph, DfiRuntime* dfi, std::vector<EdgeState> edges);

  /// Records the first failure and poisons every edge so blocked peers
  /// observe the teardown instead of waiting forever.
  void Fail(const std::string& vertex, const Status& status);
  void AccumulateStats(int vertex, const VertexStats& worker_stats);

  /// One operator worker, dispatched on the vertex kind. Returns the
  /// worker-local stats through `out`.
  Status RunWorker(int vertex, uint32_t worker, VertexStats* out);
  Status RunSource(int vertex, uint32_t worker, VertexStats* out);
  Status RunWindow(int vertex, uint32_t worker, VertexStats* out);
  Status RunAggregate(int vertex, uint32_t worker, VertexStats* out);
  Status RunJoin(int vertex, uint32_t worker, VertexStats* out);
  Status RunSink(int vertex, uint32_t worker, VertexStats* out);

  const Graph graph_;
  DfiRuntime* const dfi_;
  std::vector<EdgeState> edges_;
  std::vector<std::string> flow_names_;  // for the batched removal
  exec::ActorGroup actors_;
  bool started_ = false;
  bool finished_ = false;

  Status first_error_;
  std::vector<VertexStats> vertex_stats_;
};

}  // namespace dfi::graph

#endif  // DFI_CORE_GRAPH_EXECUTOR_H_
