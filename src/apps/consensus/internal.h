#ifndef DFI_APPS_CONSENSUS_INTERNAL_H_
#define DFI_APPS_CONSENSUS_INTERNAL_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "apps/consensus/consensus.h"
#include "core/replicate_flow.h"
#include "apps/consensus/messages.h"
#include "bench_util/workload.h"
#include "common/stats.h"

namespace dfi::consensus::internal {

/// Non-blocking typed drain over a ShuffleTarget: copies tuples out of
/// consumed segments into a local queue so a replica can poll several
/// incoming flows without blocking on any one of them.
template <typename T>
class TupleDrain {
 public:
  explicit TupleDrain(ShuffleTarget* target) : target_(target) {
    static_assert(std::is_trivially_copyable_v<T>);
  }

  /// Non-blocking: next message if one is available. `arrival` (optional)
  /// receives the virtual time the message reached this endpoint — the
  /// right-hand side of latency measurements (the caller's clock may run
  /// ahead of old arrivals when it pipelines a submission window).
  bool Next(T* out, SimTime* arrival = nullptr) {
    if (buffer_.empty()) Refill();
    if (buffer_.empty()) return false;
    *out = buffer_.front().first;
    if (arrival != nullptr) *arrival = buffer_.front().second;
    buffer_.pop_front();
    return true;
  }

  /// The flow ended (cleanly or by failure) and everything was drained.
  bool ended() const { return ended_ && buffer_.empty(); }

  /// The flow ended with kError (peer failure / abort) instead of a clean
  /// flow end. Chaos-aware consumers check this to fail over.
  bool errored() const { return errored_; }

  /// Blocking drain to the end of the flow (discarding messages); used at
  /// teardown so sources never block on full rings. A failed flow (kError)
  /// counts as ended — erroring calls never become productive again.
  void DrainToEnd() {
    SegmentView seg;
    while (!ended_) {
      const ConsumeResult r = target_->ConsumeSegment(&seg);
      if (r == ConsumeResult::kFlowEnd || r == ConsumeResult::kError) {
        ended_ = true;
        errored_ = errored_ || r == ConsumeResult::kError;
        break;
      }
    }
    buffer_.clear();
  }

 private:
  void Refill() {
    if (ended_) return;
    SegmentView seg;
    ConsumeResult r;
    while (target_->TryConsumeSegment(&seg, &r)) {
      if (r == ConsumeResult::kFlowEnd) {
        ended_ = true;
        return;
      }
      if (r == ConsumeResult::kError) {
        ended_ = true;
        errored_ = true;
        return;
      }
      DFI_CHECK_EQ(seg.bytes % sizeof(T), 0u);
      for (uint32_t off = 0; off + sizeof(T) <= seg.bytes;
           off += sizeof(T)) {
        T msg;
        std::memcpy(&msg, seg.payload + off, sizeof(T));
        buffer_.emplace_back(msg, seg.arrival);
      }
      return;  // one segment per refill keeps polling fair across flows
    }
  }

  ShuffleTarget* target_;
  std::deque<std::pair<T, SimTime>> buffer_;
  bool ended_ = false;
  bool errored_ = false;
};

/// Joins two endpoint clocks (a worker thread driving both a source and a
/// target owns one logical timeline).
inline void SyncClocks(VirtualClock& a, VirtualClock& b) {
  const SimTime t = std::max(a.now(), b.now());
  a.AdvanceTo(t);
  b.AdvanceTo(t);
}

/// Builds a Command for request `req` of client `c`.
inline Command MakeCommand(uint16_t client, uint32_t req,
                           const bench::KvRequest& r) {
  Command cmd{};
  cmd.client_id = client;
  cmd.is_write = r.is_write ? 1 : 0;
  cmd.req_id = req;
  cmd.key = r.key;
  std::memset(cmd.value, static_cast<int>(req & 0xFF), sizeof(cmd.value));
  return cmd;
}

/// Client endpoint for client index c (clients spread over the client
/// nodes, several client threads per node — thread-centric as everywhere).
inline Endpoint ClientEndpoint(const std::vector<std::string>& nodes,
                               const ConsensusConfig& cfg, uint32_t c) {
  return Endpoint{nodes[cfg.num_replicas + c % cfg.num_client_nodes],
                  c / cfg.num_client_nodes};
}

/// Per-client outcome of a run.
struct ClientOutcome {
  LatencyRecorder latencies;
  SimTime finish = 0;
  uint64_t completed = 0;
};

/// The shared closed-loop client driver: submits requests with a window and
/// think time, records per-request virtual latencies from matching replies.
/// Used by Multi-Paxos and DARE (NOPaxos clients additionally collect
/// follower acks and have their own driver).
inline ClientOutcome RunLeaderClient(ShuffleSource* submit,
                                     ShuffleTarget* replies,
                                     const ConsensusConfig& cfg,
                                     uint32_t client_index, uint32_t window) {
  ClientOutcome out;
  const auto requests = bench::GenerateYcsbRequests(
      cfg.requests_per_client, cfg.key_space, cfg.write_fraction,
      /*zipf_theta=*/0.0, cfg.seed + client_index);
  std::vector<SimTime> send_time(cfg.requests_per_client);
  uint32_t sent = 0, done = 0;
  out.latencies.Reserve(cfg.requests_per_client);
  while (done < cfg.requests_per_client) {
    while (sent < cfg.requests_per_client && sent - done < window) {
      SyncClocks(submit->clock(), replies->clock());
      // Think time paces steady-state submissions (one per completed
      // request); the initial window fill is a burst, otherwise the fill
      // delay would pollute the latency of the first requests.
      if (sent >= window) {
        submit->clock().Advance(cfg.think_time_ns);
      }
      replies->clock().AdvanceTo(submit->clock().now());
      const Command cmd = MakeCommand(static_cast<uint16_t>(client_index),
                                      sent, requests[sent]);
      send_time[sent] = submit->clock().now();
      DFI_CHECK_OK(submit->Push(&cmd));
      ++sent;
    }
    SegmentView seg;
    DFI_CHECK(replies->ConsumeSegment(&seg) == ConsumeResult::kOk)
        << "reply flow ended before all replies arrived";
    Reply rep;
    std::memcpy(&rep, seg.payload, sizeof(rep));
    SyncClocks(submit->clock(), replies->clock());
    // Latency against the reply's *arrival*: with a pipelined window the
    // client clock runs ahead of old arrivals (think-time pacing).
    out.latencies.Record(std::max<SimTime>(
        seg.arrival - send_time[rep.req_id], 0));
    ++done;
  }
  out.completed = done;
  out.finish = replies->clock().now();
  DFI_CHECK_OK(submit->Close());
  // Drain the end markers so the leader's reply-source Close never blocks.
  SegmentView seg;
  while (replies->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
  }
  return out;
}

}  // namespace dfi::consensus::internal

#endif  // DFI_APPS_CONSENSUS_INTERNAL_H_
