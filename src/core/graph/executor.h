#ifndef DFI_CORE_GRAPH_EXECUTOR_H_
#define DFI_CORE_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
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
///   ...                             // drive kCustom vertices via Claim*
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

  /// Spawns one actor per worker of every built-in vertex (kCustom vertices
  /// are the application's job — see Claim*). Idempotence is not supported;
  /// call once.
  Status Start();

  /// Joins all operator actors, then removes every edge's flow from the
  /// registry (one batched RPC). Returns the first operator failure; on
  /// failure the whole graph was already torn down (every edge poisoned) so
  /// no actor deadlocks on a dead peer.
  Status Finish();

  /// First operator failure so far (OK while healthy). Threadsafe.
  Status status() const;

  // ---- kCustom endpoint claims -------------------------------------------
  /// Handles onto an edge's flow for application-driven (kCustom) vertices.
  /// `worker` is the vertex-local worker index (= endpoint index of every
  /// adjacent edge). The edge must be of the matching kind; the claimed
  /// side's vertex must be the kCustom one being driven.
  StatusOr<std::unique_ptr<ShuffleSource>> ClaimShuffleSource(
      const std::string& edge, uint32_t worker);
  StatusOr<std::unique_ptr<ShuffleTarget>> ClaimShuffleTarget(
      const std::string& edge, uint32_t worker);
  StatusOr<std::unique_ptr<ReplicateSource>> ClaimReplicateSource(
      const std::string& edge, uint32_t worker);
  StatusOr<std::unique_ptr<ReplicateTarget>> ClaimReplicateTarget(
      const std::string& edge, uint32_t worker);
  StatusOr<std::unique_ptr<CombinerSource>> ClaimCombinerSource(
      const std::string& edge, uint32_t worker);
  StatusOr<std::unique_ptr<CombinerTarget>> ClaimCombinerTarget(
      const std::string& edge, uint32_t worker);

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
  /// Stats of vertex `name`; zeroes for kCustom/unknown vertices.
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
  Status RunTransformLike(int vertex, uint32_t worker, VertexStats* out);
  Status RunAggregate(int vertex, uint32_t worker, VertexStats* out);
  Status RunJoin(int vertex, uint32_t worker, VertexStats* out);
  Status RunSink(int vertex, uint32_t worker, VertexStats* out);

  StatusOr<int> CheckClaim(const std::string& edge, EdgeKind kind,
                           uint32_t worker, bool source_side) const;

  const Graph graph_;
  DfiRuntime* const dfi_;
  std::vector<EdgeState> edges_;
  std::vector<std::string> flow_names_;  // for the batched removal
  exec::ActorGroup actors_;
  bool started_ = false;
  bool finished_ = false;

  mutable std::mutex mu_;
  Status first_error_;                     // guarded by mu_
  std::vector<VertexStats> vertex_stats_;  // guarded by mu_
};

}  // namespace dfi::graph

#endif  // DFI_CORE_GRAPH_EXECUTOR_H_
