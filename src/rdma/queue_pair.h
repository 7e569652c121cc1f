#ifndef DFI_RDMA_QUEUE_PAIR_H_
#define DFI_RDMA_QUEUE_PAIR_H_

#include <cstdint>

#include "common/sim_time.h"
#include "common/status.h"
#include "rdma/completion_queue.h"
#include "rdma/verbs_types.h"

namespace dfi::rdma {

class RdmaEnv;

/// Emulated reliable-connection queue pair: one-sided WRITE / READ /
/// FETCH_ADD between two fixed nodes.
///
/// All verbs are asynchronous from the caller's perspective: posting
/// charges only the post cost to the caller's virtual clock; the returned
/// OpTiming carries the virtual arrival/ack milestones computed from the
/// link schedulers. Data movement is performed eagerly (a memcpy at post
/// time) so the memory contents are always consistent with "the write
/// happened".
///
/// PlanWrite/CommitWrite split one write into timing computation and
/// execution so the payload may embed its own arrival timestamp (DFI's
/// segment footers do this).
///
/// The connection is resolved once, at construction: the fabric's cost
/// model and fault plan and both nodes' NIC links, so a verb looks up
/// only the rkey it targets.
class RcQueuePair {
 public:
  RcQueuePair(RdmaEnv* env, net::NodeId local, net::NodeId remote,
              CompletionQueue* send_cq);

  RcQueuePair(const RcQueuePair&) = delete;
  RcQueuePair& operator=(const RcQueuePair&) = delete;

  /// QP error-state check against the fabric's fault plan: kPeerFailed if,
  /// at virtual time `at`, either endpoint has crashed or a partition
  /// separates them. Verbs posted on a failed connection do not vanish —
  /// signaled ones complete with an error completion (success = false) and
  /// the post returns this status, mirroring a real QP's transition to the
  /// error state where outstanding WQEs are flushed with errors.
  Status CheckConnected(SimTime at) const;

  /// Computes the virtual-time milestones of a write of `length` bytes
  /// posted now, reserving link capacity. Charges the post cost (plus the
  /// inline copy cost if `inlined`).
  OpTiming PlanWrite(uint32_t length, bool inlined, VirtualClock* clock);

  /// Executes a previously planned write: moves the bytes and, if
  /// requested, pushes a completion stamped with `timing.ack`. On a failed
  /// connection the bytes are not moved; a signaled WQE completes with an
  /// error completion instead.
  Status CommitWrite(const WriteDesc& desc, const OpTiming& timing);

  /// PlanWrite + CommitWrite in one step.
  StatusOr<OpTiming> PostWrite(const WriteDesc& desc, VirtualClock* clock);

  /// One-sided read, local <- remote. The copy is performed eagerly; the
  /// timing says when the data is virtually available.
  StatusOr<OpTiming> PostRead(const ReadDesc& desc, VirtualClock* clock);

  /// Blocking remote fetch-and-add on a uint64 at `remote` (the DFI tuple
  /// sequencer uses this). Advances the caller's clock to the response
  /// arrival and returns the previous value.
  StatusOr<uint64_t> FetchAdd(const RemoteRef& remote, uint64_t add,
                              VirtualClock* clock);

 private:
  /// Virtual round-trip of a small request with a `response_bytes` payload
  /// coming back. Shared by READ and FETCH_ADD.
  OpTiming PlanRoundTrip(uint32_t response_bytes, VirtualClock* clock);

  RdmaEnv* const env_;
  const net::SimConfig* const config_;
  const net::FaultPlan* const fault_plan_;
  const net::NodeId local_;
  const net::NodeId remote_;
  CompletionQueue* const send_cq_;
  net::LinkScheduler* const local_egress_;
  net::LinkScheduler* const local_ingress_;
  net::LinkScheduler* const remote_egress_;
  net::LinkScheduler* const remote_ingress_;
};

}  // namespace dfi::rdma

#endif  // DFI_RDMA_QUEUE_PAIR_H_
