#ifndef DFI_BENCHMARK_WORKLOAD_H_
#define DFI_BENCHMARK_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "core/dfi_runtime.h"
#include "net/fabric.h"
#include "probe.h"

namespace dfi::benchmark {

/// Everything one rep measured. The workload fills the virtual-time
/// results, stamps its phases and adds the per-layer values it can see;
/// main turns this into metrics.
struct RepResult {
  /// Oracle failures (empty when the rep's outputs were correct).
  std::vector<std::string> errors;

  /// Payload bytes the workload exists to move, over `completion` (the
  /// virtual time at which its last result was delivered).
  double useful_bytes = 0;
  SimTime completion = 0;
  /// Virtual ns from an item's emit (or a request's send) to the delivery
  /// of the result it contributes to; see README.md per workload.
  LatencyRecorder latency;
  /// Max over nodes of registered (flow-buffer) bytes after set-up.
  double registered_bytes = 0;

  /// Host wall-clock of the set-up and run phases, in seconds.
  double setup_s = 0;
  double run_s = 0;

  /// Per-layer values measured in this rep, by metric name.
  std::map<std::string, double> layer;

  /// Phase stamps: set-up starts, set-up ends and the run starts, the run
  /// ends. StopRun also records the process's CPU use over the run.
  void StartSetup();
  void StartRun();
  void StopRun();

 private:
  int64_t setup_begin_ns_ = 0;
  int64_t run_begin_ns_ = 0;
  double cpu_begin_s_ = 0;
  long invol_begin_ = 0;
};

/// One benchmark workload. The constructor generates every input from the
/// seed; Rep() then builds a fresh fabric, runtime and flows, runs the
/// workload once and tears it down. Rep() runs on the root task of an
/// engine; it spawns the actors with exec::ActorGroup.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Rep(RepTrace* trace, RepResult* out) = 0;
};

std::unique_ptr<Workload> MakeShuffleBw(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeRpcLatency(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakePipelineSkew(uint64_t seed, bool smoke);
std::unique_ptr<Workload> MakeRadixJoin(uint64_t seed, bool smoke);

// ---- Helpers shared by the workloads ---------------------------------------

/// Adds `n` nodes to `fabric`; returns their addresses.
std::vector<std::string> AddNodes(net::Fabric* fabric, size_t n);

/// Max over the fabric's nodes of the runtime's registered bytes.
double MaxRegisteredBytes(DfiRuntime& dfi);

/// Records the `net.*` link metrics: per-direction busy time over the
/// virtual completion, and wire bytes per useful byte.
void RecordNetLayer(net::Fabric& fabric, SimTime completion,
                    double useful_bytes, RepResult* out);

/// Records the `registry.*` control-plane counters of the runtime's client.
void RecordRegistryLayer(DfiRuntime& dfi, RepResult* out);

/// Adds an oracle failure unless `ok`.
void Expect(bool ok, const std::string& what, RepResult* out);

}  // namespace dfi::benchmark

#endif  // DFI_BENCHMARK_WORKLOAD_H_
