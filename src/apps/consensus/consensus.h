#ifndef DFI_APPS_CONSENSUS_CONSENSUS_H_
#define DFI_APPS_CONSENSUS_CONSENSUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/dfi_runtime.h"

namespace dfi::consensus {

/// Shared configuration of the state-machine-replication experiments
/// (paper section 6.3.2: five replicas, six clients on three nodes,
/// 64-byte requests, YCSB read-dominated 95/5).
struct ConsensusConfig {
  uint32_t num_replicas = 5;
  uint32_t num_clients = 6;
  uint32_t num_client_nodes = 3;
  uint32_t requests_per_client = 2000;
  /// Outstanding requests per client. DARE clients are strictly sequential
  /// (window 1 enforced; paper: "each DARE client cannot submit a new
  /// request until it has received the result from its previous request").
  uint32_t client_window = 8;
  /// Virtual think time between request submissions — the load knob used
  /// to sweep the throughput/latency curve of Figure 15.
  SimTime think_time_ns = 0;
  double write_fraction = 0.05;
  uint64_t key_space = 100000;
  uint64_t seed = 7;
};

/// Outcome of one run at one load point.
struct ConsensusResult {
  uint64_t completed = 0;
  /// Requests per second of *virtual* time.
  double throughput_rps = 0;
  SimTime median_latency_ns = 0;
  SimTime p95_latency_ns = 0;
};

/// Classical leader-based Multi-Paxos in normal, failure-free operation,
/// modeled exactly on the paper's Figure 3: an N:1 shuffle flow for client
/// submissions, a replicate flow (multicast) for proposals, an N:1 shuffle
/// flow for votes and a 1:N shuffle flow for replies. This is
/// RunMultiPaxosChaos with no crash: one term, no failover.
///
/// `nodes` must hold num_replicas + num_client_nodes fabric addresses
/// (replicas first).
StatusOr<ConsensusResult> RunMultiPaxos(DfiRuntime* dfi,
                                        const std::vector<std::string>& nodes,
                                        const ConsensusConfig& config);

/// NOPaxos normal operation on DFI's globally-ordered replicate flow (the
/// OUM primitive, paper sections 4.3.2/5.4): clients multicast requests
/// through the tuple sequencer; replicas consume in sequence order; the
/// leader answers while followers ack directly to the clients, which
/// collect the majority themselves. Lost OUM segments are recovered through
/// the flow's gap handling.
StatusOr<ConsensusResult> RunNoPaxos(DfiRuntime* dfi,
                                     const std::vector<std::string>& nodes,
                                     const ConsensusConfig& config);

/// DARE-like baseline [28]: a replicated KV store on a hand-crafted
/// consensus protocol over one-sided RDMA. Reproduces the two properties
/// the paper attributes DARE's disadvantage to — strictly sequential
/// clients and a serializing leader write protocol.
StatusOr<ConsensusResult> RunDare(DfiRuntime* dfi,
                                  const std::vector<std::string>& nodes,
                                  const ConsensusConfig& config);

/// Configuration of a Multi-Paxos run under a scripted fail-stop leader
/// crash. Clients keep `base.client_window` requests in flight and resubmit
/// all of them on failover.
struct ChaosConfig {
  ConsensusConfig base;
  /// Virtual time at which replica 0 (the term-1 leader) fail-stops; 0 = no
  /// crash (the failure-free run).
  SimTime crash_at_ns = 2'000'000;  // 2 ms
  /// Bounded-blocking deadline installed on every flow (virtual time);
  /// survivors must observe the failure well before this backstop.
  SimTime block_deadline_ns = 50'000'000;  // 50 ms
};

/// Outcome of one chaos failover run: the ConsensusResult over both terms
/// plus the failover's witnesses.
struct ChaosResult : ConsensusResult {
  uint64_t resubmitted = 0;  ///< requests replayed on the term-2 flows
  SimTime crash_at_ns = 0;
  /// Virtual time from the crash to the *first* client reply out of the
  /// term-2 (failover) flows — the headline recovery latency.
  SimTime recovery_first_reply_ns = 0;
  /// Virtual time from the crash until *every* client that failed over
  /// received its first term-2 reply (all clients recovered).
  SimTime recovery_all_clients_ns = 0;
  /// The fault plan's canonical event trace (determinism witness).
  std::string fault_trace;
};

/// Multi-Paxos leader failover under a FaultPlan crash: term 1 runs the
/// Figure-3 flow set with replica 0 as leader until the plan fail-stops it;
/// survivors observe kPeerFailed / poisoned teardown (never a hang), then
/// fail over to a pre-published term-2 flow set led by replica 1, where
/// clients resubmit their in-flight requests. A flow failure outside that
/// failover surfaces as the run's Status.
StatusOr<ChaosResult> RunMultiPaxosChaos(
    DfiRuntime* dfi, const std::vector<std::string>& nodes,
    const ChaosConfig& config);

}  // namespace dfi::consensus

#endif  // DFI_APPS_CONSENSUS_CONSENSUS_H_
