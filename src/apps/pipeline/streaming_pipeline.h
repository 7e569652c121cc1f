#ifndef DFI_APPS_PIPELINE_STREAMING_PIPELINE_H_
#define DFI_APPS_PIPELINE_STREAMING_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/dfi_runtime.h"
#include "core/graph/executor.h"
#include "core/graph/graph.h"

namespace dfi::pipeline {

/// Configuration of the flagship streaming pipeline (DESIGN.md §14):
///
///   ingest --shuffle(adaptive)--> window --combiner--> aggregate
///     --replicate--> subscribers
///
/// Ingest workers emit {key, seq, val, ts} tuples whose keys follow a
/// zipfian distribution; the skew-adaptive shuffle spreads hot keys over
/// window workers; the window operator fuses (seq / window_size) with the
/// key into a window group key; the combiner edge folds each (window, key)
/// group into COUNT / SUM(val) / MAX(ts); aggregate workers re-emit the
/// rows over a replicate edge; every subscriber observes every row.
struct PipelineConfig {
  uint32_t num_nodes = 4;
  uint32_t sources_per_node = 2;
  uint32_t windows_per_node = 2;
  /// Aggregate workers, all placed on the first node (the paper's N:1
  /// combiner topology).
  uint32_t aggregate_workers = 2;
  uint32_t subscribers_per_node = 1;
  uint64_t tuples_per_source = 1 << 14;
  uint64_t key_domain = 1 << 10;
  /// YCSB-convention zipf skew; 0 = uniform.
  double zipf_theta = 0.0;
  /// Sequence numbers per window (window id = seq / window_size).
  uint64_t window_size = 1024;
  uint32_t window_key_bits = 20;
  /// Skew adaptation on the ingest shuffle (hot-key re-splitting + target
  /// work stealing).
  bool adaptive_shuffle = true;
  uint64_t seed = 42;
};

struct PipelineResult {
  uint64_t tuples_ingested = 0;
  uint64_t windowed_tuples = 0;
  /// Aggregate rows published over the replicate edge.
  uint64_t rows_published = 0;
  /// Row deliveries summed over all subscribers.
  uint64_t rows_delivered = 0;
  /// Max final virtual clock over the subscriber workers.
  SimTime completion = 0;
  /// End-to-end latency per delivered row: subscriber consume time minus
  /// MAX(ts) of the row's window (merged over all subscribers).
  LatencyRecorder latency;
  /// Content of every window group as observed by subscriber 0:
  /// window key -> (COUNT, SUM(val)). Exact integers, insensitive to
  /// delivery order — the determinism-test fingerprint.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> windows;
  /// Commutative content hash per subscriber. All entries must agree (a
  /// replicate edge delivers every row to every subscriber).
  std::vector<uint64_t> fingerprints;
};

/// The pipeline's dataflow graph. Exposed so tests and benches can inspect
/// or perturb the typed spec before Graph::Build; `collector` receives the
/// subscriber sink bodies' output and must outlive the returned spec's run.
/// Most callers want RunStreamingPipeline below.
struct PipelineCollector;
graph::GraphSpec MakePipelineSpec(const PipelineConfig& config,
                                  const std::vector<std::string>& nodes,
                                  PipelineCollector* collector);

/// Builds, validates, instantiates and runs the pipeline graph; blocks
/// until every operator finished. Call from inside a running engine task:
/// the operators become engine actors (deterministic content at any pool
/// size).
StatusOr<PipelineResult> RunStreamingPipeline(
    DfiRuntime* dfi, const std::vector<std::string>& nodes,
    const PipelineConfig& config);

}  // namespace dfi::pipeline

#endif  // DFI_APPS_PIPELINE_STREAMING_PIPELINE_H_
