#ifndef DFI_RDMA_UD_QUEUE_PAIR_H_
#define DFI_RDMA_UD_QUEUE_PAIR_H_

#include <cstdint>
#include <deque>
#include <optional>

#include "common/sim_time.h"
#include "common/status.h"
#include "rdma/completion_queue.h"
#include "rdma/verbs_types.h"

namespace dfi::rdma {

class RdmaEnv;

/// Emulated unreliable-datagram queue pair with multicast support.
///
/// Semantics mirrored from InfiniBand UD:
///  * two-sided only — a delivery consumes a pre-posted receive request;
///    if none is posted, the datagram is dropped (receiver-not-ready);
///  * payloads limited to the MTU (SimConfig::ud_mtu_bytes);
///  * *unreliable*: the switch may drop any delivery (loss injection), and
///    there are no acknowledgements;
///  * multicast: a message sent to a group traverses the sender's egress
///    link once, is serialized on the per-group switch resource, and is
///    replicated to every attached QP's node ingress — which is how the
///    aggregated receive bandwidth in the paper's Figure 8b exceeds the
///    sender's link speed.
class UdQueuePair {
 public:
  UdQueuePair(RdmaEnv* env, net::NodeId local, CompletionQueue* send_cq,
              CompletionQueue* recv_cq);
  ~UdQueuePair();

  UdQueuePair(const UdQueuePair&) = delete;
  UdQueuePair& operator=(const UdQueuePair&) = delete;

  uint32_t qpn() const { return qpn_; }
  net::NodeId node() const { return local_; }
  CompletionQueue* recv_cq() { return recv_cq_; }

  /// Attaches this QP to a multicast group: datagrams sent to the group are
  /// delivered to this QP's receive queue.
  Status AttachMulticast(net::MulticastGroupId group);

  /// Posts a receive buffer; consumed in FIFO order by deliveries.
  void PostRecv(void* buf, uint32_t length, uint64_t wr_id);

  /// Sends a datagram to one remote QP.
  StatusOr<OpTiming> PostSend(uint32_t dst_qpn, const void* buf,
                              uint32_t length, uint64_t wr_id, bool signaled,
                              VirtualClock* clock);

  /// Sends a datagram to a multicast group.
  StatusOr<OpTiming> PostSendMulticast(net::MulticastGroupId group,
                                       const void* buf, uint32_t length,
                                       uint64_t wr_id, bool signaled,
                                       VirtualClock* clock);

  uint64_t drops_no_recv() const { return drops_no_recv_; }

 private:
  friend class RcQueuePair;

  struct RecvWqe {
    void* buf;
    uint32_t length;
    uint64_t wr_id;
  };

  /// Called by a sender's PostSend*: consume one recv WQE and place the
  /// payload; pushes a recv completion stamped `arrival`. Returns false if
  /// dropped (no recv posted or payload too large for the buffer). `key`
  /// identifies the message for deterministic reorder injection: a
  /// reordered delivery's completion is held back and surfaces *after* the
  /// next delivery's, emulating out-of-order datagram arrival.
  bool Deliver(const void* buf, uint32_t length, SimTime arrival,
               net::NodeId src, uint64_t key);

  RdmaEnv* const env_;
  const net::NodeId local_;
  CompletionQueue* const send_cq_;
  CompletionQueue* const recv_cq_;
  uint32_t qpn_ = 0;

  std::deque<RecvWqe> recv_queue_;
  /// Completion held back by reorder injection; released (after the newer
  /// completion) by the next delivery. A tail-of-flow hold never releases,
  /// which ordered flows absorb through their gap machinery — the same
  /// contract as loss injection.
  std::optional<Completion> held_completion_;
  uint64_t drops_no_recv_ = 0;
};

}  // namespace dfi::rdma

#endif  // DFI_RDMA_UD_QUEUE_PAIR_H_
