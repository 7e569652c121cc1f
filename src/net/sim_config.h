#ifndef DFI_NET_SIM_CONFIG_H_
#define DFI_NET_SIM_CONFIG_H_

#include <cstdint>

#include "common/sim_time.h"

namespace dfi::net {

/// Calibration constants of the virtual-time performance model, the apps'
/// costs included.
///
/// The defaults model the paper's evaluation platform: InfiniBand EDR
/// (100 Gbps per NIC and direction), ConnectX-5-like verb overheads, and
/// CPU costs such that a single worker thread processes roughly 10 GiB/s of
/// tuples — the ratios that produce the saturation/crossover shapes of the
/// paper's figures. DESIGN.md section 5 lists each field with its unit,
/// where it is charged and its source.
struct SimConfig {
  // ---- Link model -------------------------------------------------------
  /// Per-NIC link speed, each direction (100 Gbps EDR).
  double link_gbps = 100.0;
  /// One-way propagation incl. switch traversal for an RC packet.
  SimTime propagation_ns = 600;
  /// NIC work-queue-element processing before a message hits the wire.
  SimTime nic_process_ns = 250;

  // ---- Verb CPU costs ---------------------------------------------------
  /// CPU cost to post any work request (doorbell + WQE build).
  SimTime post_wqe_ns = 80;
  /// Extra CPU cost when the payload is inlined into the WQE, per byte.
  double inline_copy_ns_per_byte = 0.2;
  /// Payloads at or below this size may be sent inline.
  uint32_t max_inline_bytes = 220;
  /// CPU cost of one completion-queue poll.
  SimTime poll_cq_ns = 40;

  // ---- One-sided read / atomics -----------------------------------------
  /// Extra one-way cost of READ/FETCH_ADD response generation at the
  /// responder NIC (no CPU involved).
  SimTime read_response_ns = 150;

  // ---- Unreliable datagram / multicast ------------------------------------
  /// Per-message CPU+NIC overhead of a UD send (higher than RC writes:
  /// address handles, no RC offloads).
  SimTime ud_send_overhead_ns = 450;
  /// Effective serialization rate of one multicast group inside the switch.
  /// Models the NIC/switch property that multiple sender threads in the
  /// same group do not scale (paper section 6.1.2): the group is a single
  /// serial resource slightly below link speed.
  double multicast_group_gbps = 68.0;
  /// Probability that one multicast delivery (per target) is dropped.
  double multicast_loss_probability = 0.0;
  /// Probability that one multicast delivery (per target) is delayed past
  /// its successor, arriving out of order at the receiver. Requires a flow
  /// configuration that tolerates reordering (global ordering / gap
  /// handling), like loss does.
  double multicast_reorder_probability = 0.0;
  /// Maximum UD payload (InfiniBand MTU); larger sends are rejected.
  uint32_t ud_mtu_bytes = 4096;
  /// Seed for loss injection.
  uint64_t loss_seed = 0x5eed;

  // ---- DFI cost model (charged by the core library) ----------------------
  /// Fixed CPU cost per tuple pushed into a flow (routing + bookkeeping).
  SimTime tuple_push_fixed_ns = 12;
  /// Per-byte CPU cost of staging a tuple into a send segment (~12.5 GiB/s
  /// single-thread copy bandwidth).
  double tuple_copy_ns_per_byte = 0.08;
  /// Fixed CPU cost of one consume() call that returns a segment.
  SimTime consume_segment_fixed_ns = 60;
  /// Fixed CPU cost of iterating one tuple out of a consumed segment.
  SimTime tuple_consume_fixed_ns = 8;
  /// Source-side cost of sealing + transmitting one segment.
  SimTime segment_seal_ns = 110;
  /// Combiner flows: per-tuple cost of the target-side aggregation update
  /// (hash of the group key + accumulator update).
  SimTime agg_update_ns = 14;

  // ---- Mini-MPI cost model ------------------------------------------------
  /// Per-message software overhead of MPI_Send/MPI_Recv (matching, request
  /// bookkeeping) — far above a raw verb post.
  SimTime mpi_msg_overhead_ns = 350;
  /// Messages larger than this use the rendezvous protocol (extra RTT).
  uint32_t mpi_eager_threshold = 8192;
  /// Hold time of the global MPI latch in MPI_THREAD_MULTIPLE mode.
  SimTime mpi_latch_hold_ns = 300;
  /// Additional latch hold per contending thread (cache-line bouncing);
  /// this makes multi-threaded MPI *degrade* with thread count as measured
  /// in the paper (Figure 10b).
  SimTime mpi_latch_bounce_ns = 120;
  /// Extra per-message cost when crossing process boundaries via shared
  /// memory in multi-process mode.
  SimTime mpi_shm_copy_extra_ns = 40;

  // ---- Application cost model ---------------------------------------------
  // Radix joins (src/apps/join and the graph's kJoin), per tuple, calibrated
  // to a few GB/s of single-thread partitioning.
  /// The MPI join's histogram pass, per scanned tuple.
  SimTime join_histogram_ns = 2;
  /// Assigning one tuple to its local radix partition.
  SimTime join_partition_ns = 5;
  /// Inserting one build tuple into its partition's hash table.
  SimTime join_build_ns = 10;
  /// Looking one probe tuple up in its partition's hash table.
  SimTime join_probe_ns = 10;
  // Consensus apps (Multi-Paxos, NOPaxos, DARE).
  /// One key-value store read or write.
  SimTime kv_op_ns = 100;
  /// Appending one command to a replica's log.
  SimTime log_append_ns = 50;
  /// Per-message protocol logic at a replica.
  SimTime replica_logic_ns = 60;
  /// Multi-Paxos only: the leader counting one follower's vote.
  SimTime vote_tally_ns = 30;
  /// DARE only: extra serialization in the leader's write protocol.
  SimTime dare_write_overhead_ns = 700;
  /// DARE only: per-request software overhead of the hand-crafted protocol
  /// (request detection by polling, log management).
  SimTime dare_request_overhead_ns = 3200;

  // ---- Derived ------------------------------------------------------------
  double LinkBytesPerNs() const { return link_gbps / 8.0; }
  double MulticastGroupBytesPerNs() const { return multicast_group_gbps / 8.0; }
  /// Maximum link speed in bytes/second (the red line in the paper's plots).
  double MaxLinkBytesPerSecond() const { return link_gbps / 8.0 * 1e9; }
};

}  // namespace dfi::net

#endif  // DFI_NET_SIM_CONFIG_H_
