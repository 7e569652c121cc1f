#ifndef DFI_CORE_FLOW_OPTIONS_H_
#define DFI_CORE_FLOW_OPTIONS_H_

#include <cstdint>

#include "common/sim_time.h"
#include "common/units.h"

namespace dfi {

/// Declarative optimization goal of a flow (paper Table 1): bandwidth
/// optimization batches tuples into large segments; latency optimization
/// transmits each tuple immediately with credit-based flow control.
enum class FlowOptimization : uint8_t {
  kBandwidth,
  kLatency,
};

/// Aggregation functions supported by combiner flows.
enum class AggFunc : uint8_t {
  kSum,
  kCount,
  kMin,
  kMax,
};

/// Opt-in skew adaptation for shuffle flows (ROADMAP item 4; Rödiger-style
/// network-aware skew handling). Default-disabled: the static partitioner
/// path stays digit-identical when `enabled` is false.
struct AdaptiveShuffleOptions {
  /// Master switch. When set, ShuffleSource routes through an
  /// AdaptivePartitioner (hot-key detection + re-splitting) and
  /// ShuffleTarget sinks on the same node form a work-stealing group.
  bool enabled = false;

  /// Tuples per detection epoch. At every epoch boundary the sketch is
  /// evaluated: keys promoted to / demoted from the hot set, sketch reset.
  uint32_t epoch_tuples = 4096;

  /// A key is hot when its epoch share exceeds hot_factor / num_targets
  /// (i.e. it alone carries hot_factor times a fair target's share).
  /// Demotion uses half this threshold for hysteresis.
  double hot_factor = 4.0;

  /// React to per-target backpressure (queue-depth saturation, see
  /// TargetLoadBoard) by diverting traffic from a saturated target to
  /// same-node siblings. Default off: queue depths are
  /// host-schedule-dependent, so reacting to them trades bit-determinism
  /// for straggler resilience.
  bool react_to_backpressure = false;
};

/// Declarative per-flow options (paper Table 1 "flow options" plus the
/// tuning parameters of section 5).
struct FlowOptions {
  FlowOptimization optimization = FlowOptimization::kBandwidth;

  /// Payload capacity of one bandwidth-mode segment. 8 KiB "offers a good
  /// tradeoff between network bandwidth and time until the batch is filled"
  /// (paper section 6.1.1).
  uint32_t segment_size = 8 * kKiB;

  /// Segments per target-side ring (default 32, paper section 6.1.4).
  uint32_t segments_per_ring = 32;

  /// Segments per source-side ring: "much fewer ... than target-side
  /// buffers" (paper section 5.2); signaled writes only on wrap-around.
  uint32_t source_segments = 4;

  /// Replicate flows: replicate in the switch via RDMA multicast instead of
  /// one write per target (paper section 4.2.2).
  bool use_multicast = false;

  /// Replicate flows: global ordering guarantee — all targets consume
  /// tuples in the same order (OUM; paper sections 4.2.2 / 5.4).
  bool global_ordering = false;

  /// Ordered replicate flows: if true, gaps are surfaced to the application
  /// on consume() instead of triggering transparent retransmission — the
  /// NOPaxos use case drives its gap-agreement protocol this way (paper
  /// section 5.4).
  bool app_handles_gaps = false;

  /// Deadline (virtual ns) for every blocking wait inside the flow: the
  /// remote-ring-full footer poll, the credit refresh, and blocking
  /// consume calls. 0 (default) waits forever, which preserves fault-free
  /// behavior exactly; fault-tolerant applications set a deadline and
  /// handle kDeadlineExceeded. Teardown (Abort / a fault-plan crash of the
  /// peer) interrupts a blocked call regardless of the deadline. The
  /// semantics are uniform across flow types: the shared transport
  /// (FlowEndpoint / FlowSink, src/core/endpoint/) enforces it for
  /// shuffle, replicate and combiner alike.
  SimTime block_deadline_ns = 0;

  /// Skew adaptation (shuffle flows only; ignored elsewhere).
  AdaptiveShuffleOptions adaptive;
};

}  // namespace dfi

#endif  // DFI_CORE_FLOW_OPTIONS_H_
