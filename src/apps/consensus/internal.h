#ifndef DFI_APPS_CONSENSUS_INTERNAL_H_
#define DFI_APPS_CONSENSUS_INTERNAL_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

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
  /// flow end; the Multi-Paxos leader ends its term on it.
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

/// Publishes the two flows a leader-based protocol's clients talk to: the
/// N:1 `<prefix>.submit` flow from every client to `leader` and the 1:N
/// `<prefix>.reply` flow back, routed by the client id in each reply.
inline Status InitClientFlows(DfiRuntime* dfi,
                              const std::vector<std::string>& nodes,
                              const ConsensusConfig& cfg,
                              const FlowOptions& options,
                              const std::string& prefix,
                              const Endpoint& leader) {
  ShuffleFlowSpec submit;
  submit.name = prefix + ".submit";
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    submit.sources.Append(ClientEndpoint(nodes, cfg, c));
  }
  submit.targets.Append(leader);
  submit.schema = Command::MakeSchema();
  submit.options = options;
  DFI_RETURN_IF_ERROR(dfi->InitShuffleFlow(std::move(submit)));

  ShuffleFlowSpec reply;
  reply.name = prefix + ".reply";
  reply.sources.Append(leader);
  for (uint32_t c = 0; c < cfg.num_clients; ++c) {
    reply.targets.Append(ClientEndpoint(nodes, cfg, c));
  }
  reply.schema = Reply::MakeSchema();
  reply.options = options;
  reply.routing = [](TupleView t, uint32_t m) {
    return t.Get<uint16_t>(0) % m;
  };
  return dfi->InitShuffleFlow(std::move(reply));
}

/// Per-client outcome of a run.
struct ClientOutcome {
  LatencyRecorder latencies;
  SimTime finish = 0;
  uint64_t completed = 0;
  /// Requests sent again on the failover flows.
  uint64_t resubmitted = 0;
  /// Virtual arrival of this client's first reply on the failover flows;
  /// -1 if the client never failed over.
  SimTime first_failover_reply = -1;
};

/// Folds per-client outcomes into a run's result: completed requests,
/// throughput over the last client's finish, median and p95 latency.
inline ConsensusResult Summarize(const std::vector<ClientOutcome>& outcomes) {
  ConsensusResult result;
  LatencyRecorder all;
  SimTime finish = 0;
  for (const auto& o : outcomes) {
    result.completed += o.completed;
    all.Merge(o.latencies);
    finish = std::max(finish, o.finish);
  }
  result.throughput_rps = static_cast<double>(result.completed) * 1e9 /
                          std::max<SimTime>(finish, 1);
  result.median_latency_ns = all.Median();
  result.p95_latency_ns = all.Quantile(0.95);
  return result;
}

/// The first error any actor of a run reports.
class FirstError {
 public:
  void Record(const Status& s) {
    if (s.ok()) return;
    if (first_.ok()) first_ = s;
  }
  Status Get() const { return first_; }

 private:
  Status first_;
};

/// A client's endpoints on one term's flows.
struct ClientFlows {
  ShuffleSource* submit = nullptr;
  ShuffleTarget* replies = nullptr;
};

/// Consumes `replies` to the end of the flow, discarding what arrives, so
/// the leader's reply-source Close never blocks. Returns kFlowEnd or kError.
inline ConsumeResult DrainReplies(ShuffleTarget* replies) {
  SegmentView seg;
  for (;;) {
    const ConsumeResult r = replies->ConsumeSegment(&seg);
    if (r == ConsumeResult::kFlowEnd || r == ConsumeResult::kError) return r;
  }
}

/// The shared closed-loop client driver of Multi-Paxos and DARE: submits
/// requests with a window and think time and records per-request virtual
/// latencies from matching replies. With `failover` flows (Multi-Paxos
/// under a leader crash), an error on the term-1 flows aborts them, moves
/// the client to the failover flows no earlier than `crash_at` and
/// resubmits every in-flight request there; the client closes its
/// submissions on the failover flows either way. Any other flow failure
/// is returned. (NOPaxos clients also collect follower acks and have
/// their own driver.)
inline StatusOr<ClientOutcome> RunLeaderClient(const ConsensusConfig& cfg,
                                               uint32_t client_index,
                                               uint32_t window,
                                               ClientFlows term1,
                                               ClientFlows failover = {},
                                               SimTime crash_at = 0) {
  ClientOutcome out;
  const auto requests = bench::GenerateYcsbRequests(
      cfg.requests_per_client, cfg.key_space, cfg.write_fraction,
      /*zipf_theta=*/0.0, cfg.seed + client_index);
  std::vector<SimTime> send_time(cfg.requests_per_client);
  out.latencies.Reserve(cfg.requests_per_client);
  ClientFlows flows = term1;
  bool failed_over = false;
  uint32_t sent = 0, done = 0;
  uint32_t resend_end = 0;  // requests below this one are resends
  // Leaving a term's flows aborts them, so no peer waits on this client.
  auto abort_flows = [&](const Status& cause) {
    flows.submit->Abort(cause);
    flows.replies->Abort(cause);
    return cause;
  };
  // Continues on the failover flows, no earlier than `t`.
  auto move_to_failover = [&](SimTime t) {
    flows = failover;
    flows.submit->clock().AdvanceTo(t);
    flows.replies->clock().AdvanceTo(t);
  };
  auto fail_over = [&] {
    abort_flows(Status::Aborted("client failed over to term 2"));
    move_to_failover(std::max({flows.submit->clock().now(),
                               flows.replies->clock().now(), crash_at}));
    failed_over = true;
    resend_end = sent;
    sent = done;
  };
  auto can_fail_over = [&] {
    return failover.submit != nullptr && !failed_over;
  };

  while (done < cfg.requests_per_client) {
    while (sent < cfg.requests_per_client && sent - done < window) {
      const bool resend = sent < resend_end;
      SyncClocks(flows.submit->clock(), flows.replies->clock());
      // Think time paces steady-state submissions (one per completed
      // request); the initial window fill is a burst, otherwise the fill
      // delay would pollute the latency of the first requests. A resend
      // replays a submission that already paid its think time.
      if (sent >= window && !resend) {
        flows.submit->clock().Advance(cfg.think_time_ns);
      }
      flows.replies->clock().AdvanceTo(flows.submit->clock().now());
      const Command cmd = MakeCommand(static_cast<uint16_t>(client_index),
                                      sent, requests[sent]);
      send_time[sent] = flows.submit->clock().now();
      if (resend) ++out.resubmitted;
      const Status pushed = flows.submit->Push(&cmd);
      ++sent;  // a failed push leaves its request in flight
      if (!pushed.ok()) {
        if (!can_fail_over()) return abort_flows(pushed);
        fail_over();
      }
    }
    SegmentView seg;
    const ConsumeResult r = flows.replies->ConsumeSegment(&seg);
    if (r == ConsumeResult::kError && can_fail_over()) {
      // The leader died with requests in flight: resubmit them on the
      // failover flows.
      fail_over();
      continue;
    }
    if (r == ConsumeResult::kError) {
      return abort_flows(flows.replies->last_status());
    }
    if (r != ConsumeResult::kOk) {
      return abort_flows(Status::Internal("reply flow ended early"));
    }
    Reply rep;
    std::memcpy(&rep, seg.payload, sizeof(rep));
    if (rep.req_id < done) continue;  // stale duplicate
    SyncClocks(flows.submit->clock(), flows.replies->clock());
    // Latency against the reply's *arrival*: with a pipelined window the
    // client clock runs ahead of old arrivals (think-time pacing).
    out.latencies.Record(std::max<SimTime>(
        seg.arrival - send_time[rep.req_id], 0));
    if (failed_over && out.first_failover_reply < 0) {
      out.first_failover_reply = seg.arrival;
    }
    ++done;
  }
  out.completed = done;
  out.finish = flows.replies->clock().now();
  if (can_fail_over()) {
    // The crash never reached this client's requests. The term-1 teardown
    // may still fail mid-drain — fine; the client closes on the failover
    // flows, whose leader ends its term once every client closed them.
    (void)term1.submit->Close();
    (void)DrainReplies(term1.replies);
    move_to_failover(std::max(term1.submit->clock().now(),
                               term1.replies->clock().now()));
  }
  DFI_RETURN_IF_ERROR(flows.submit->Close());
  if (DrainReplies(flows.replies) == ConsumeResult::kError) {
    return flows.replies->last_status();
  }
  return out;
}

}  // namespace dfi::consensus::internal

#endif  // DFI_APPS_CONSENSUS_INTERNAL_H_
