#ifndef DFI_NET_FAULT_PLAN_H_
#define DFI_NET_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"

namespace dfi::net {

using NodeId = uint32_t;  // mirrors fabric.h (no include cycle)

/// Kinds of scripted fault events.
enum class FaultEventType : uint8_t {
  kNodeCrash,    // node stops responding at `at` (fail-stop)
  kLinkDegrade,  // node's NIC links run at `value` Gbps from `at`
  kLinkRestore,  // node's NIC links return to full speed at `at`
  kLossBurst,    // extra UD loss probability `value` during [`at`, `until`)
  kPartition,    // `island` unreachable from the rest from `at`
  kHeal,         // all partitions removed at `at`
};

/// One scheduled fault. `seq` is the insertion index; (at, seq) totally
/// orders the trace, so two identically-built plans produce identical
/// event traces regardless of wall-clock scheduling.
struct FaultEvent {
  SimTime at = 0;
  FaultEventType type = FaultEventType::kNodeCrash;
  NodeId node = UINT32_MAX;
  double value = 0.0;
  SimTime until = 0;
  std::vector<NodeId> island;
  uint64_t seq = 0;
};

/// Deterministic, virtual-time-scheduled fault injector. A plan is a script
/// of events (crash node 2 at t=2ms, degrade node 0 to 10 Gbps, a 30% loss
/// burst between 1ms and 1.5ms, partition {3,4} away, heal); the fabric,
/// switch and queue pairs consult it at the *virtual* times of their
/// operations, so the same plan plus the same seed yields the same failure
/// behavior on every run — host thread scheduling does not matter:
///
///   - queries are pure functions of (plan, virtual time);
///   - randomized decisions (loss) hash (seed, message key) instead of
///     drawing from a shared RNG whose draw order depends on thread timing.
///
/// Schedule all events before starting the workload; queries are cheap (an
/// inactive plan short-circuits on one flag).
class FaultPlan {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  explicit FaultPlan(uint64_t seed = 0x5eed) : seed_(seed) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // ---- Scripting ---------------------------------------------------------

  /// Fail-stop crash: from virtual time `at` the node accepts no RDMA ops,
  /// UD deliveries to it vanish, and peers observe kPeerFailed.
  void CrashNode(NodeId node, SimTime at);

  /// Degrades both link directions of `node` to `gbps` from `at`.
  void DegradeLink(NodeId node, SimTime at, double gbps);

  /// Restores `node`'s links to full speed from `at`.
  void RestoreLink(NodeId node, SimTime at);

  /// Adds `probability` extra per-delivery multicast loss in [from, until).
  void LossBurst(SimTime from, SimTime until, double probability);

  /// Partitions `island` from the rest of the cluster at `at`.
  void Partition(std::vector<NodeId> island, SimTime at);

  /// Removes all partitions at `at`.
  void Heal(SimTime at);

  // ---- Queries (all pure in virtual time) --------------------------------

  /// True once any event has been scheduled; the fast path for fault-free
  /// runs, which must pay nothing beyond one flag test.
  bool active() const { return active_; }

  bool NodeAlive(NodeId node, SimTime at) const;
  /// Virtual crash time of `node`, or kNever.
  SimTime CrashTime(NodeId node) const;

  /// False iff an active partition at `at` separates `a` from `b`.
  bool Reachable(NodeId a, NodeId b, SimTime at) const;

  /// Link rate multiplier in (0, 1] for `node` at `at` given the nominal
  /// `base_gbps` (1.0 when undegraded).
  double LinkRateFactor(NodeId node, SimTime at, double base_gbps) const;

  /// Extra loss probability from bursts covering `at`.
  double LossBoost(SimTime at) const;

  /// True once any loss burst was scheduled (regardless of its window).
  /// Consumers use this to decide whether a stalled head-of-line sequence
  /// can have been lost at all, or is merely still in flight.
  bool HasLossBursts() const { return has_loss_bursts_; }

  /// Deterministic Bernoulli(probability) decision for the delivery
  /// identified by `key` (e.g. hash of sequence number and target).
  bool ShouldDropDelivery(uint64_t key, double probability) const;

  /// The scheduled events sorted by (virtual time, insertion order) — the
  /// canonical deterministic trace of the run.
  std::vector<FaultEvent> Events() const;
  /// Renders Events() as one line per event ("@2000000ns crash node=2").
  std::string TraceString() const;

  uint64_t seed() const { return seed_; }

 private:
  void Append(FaultEvent e);

  const uint64_t seed_;
  bool active_ = false;
  bool has_loss_bursts_ = false;
  std::vector<FaultEvent> events_;
  std::unordered_map<NodeId, SimTime> crash_time_;
};

}  // namespace dfi::net

#endif  // DFI_NET_FAULT_PLAN_H_
