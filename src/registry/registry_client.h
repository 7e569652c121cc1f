#ifndef DFI_REGISTRY_REGISTRY_CLIENT_H_
#define DFI_REGISTRY_REGISTRY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/exec/engine.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "registry/registry_service.h"
#include "registry/registry_types.h"

namespace dfi::reg {

/// Per-call retry budget (virtual ns): total time a batch may spend on
/// silence/backoff before giving up with kDeadlineExceeded.
constexpr SimTime kRetryDeadlineNs = 50'000'000;

struct RegistryClientOptions {
  /// Dedup-window identity at the shards. Every client of one service must
  /// use a distinct id.
  uint64_t client_id = 0;
  /// Fabric node the client runs on; kNoNode for driver-thread clients
  /// (no request/reply hop cost, always reachable).
  net::NodeId node = kNoNode;
};

struct RegistryClientStats {
  uint64_t rpcs = 0;            // Execute() round trips issued
  uint64_t retries = 0;         // re-sends after observed silence
  uint64_t failovers = 0;       // batches sent to another replica of a
                                // shard than this client's previous one
};

/// Client stub of the sharded control plane: batches ops per shard, follows
/// wrong-primary redirects, and turns observed silence into deadline-bounded
/// retries with capped exponential backoff. All waiting is virtual-time
/// parking of the calling exec::Engine task.
///
/// Concurrency: a client serializes its traffic to each shard (one logical
/// FIFO connection per shard — the dedup windows require per-client
/// sequence numbers to arrive in order). Give each emulated actor its own
/// client (distinct client_id); sharing one client across engine fibers is
/// only safe in loopback mode, where no call ever parks while holding the
/// connection.
class RegistryClient {
 public:
  explicit RegistryClient(RegistryService* service,
                          RegistryClientOptions options = {},
                          VirtualClock* clock = nullptr);

  RegistryClient(const RegistryClient&) = delete;
  RegistryClient& operator=(const RegistryClient&) = delete;

  // ---- Single-op convenience (one-op batches) ---------------------------
  /// Publishes a flow; kAlreadyExists if the name is taken.
  Status Publish(const std::string& name,
                 std::shared_ptr<FlowStateBase> state);
  /// Retrieves a flow's state; kNotFound if absent.
  StatusOr<std::shared_ptr<FlowStateBase>> Retrieve(const std::string& name);
  /// Removes a flow; kNotFound if absent.
  Status Close(const std::string& name);

  // ---- Batched API (grouped per shard, one RPC per shard) ---------------
  /// Each returns one result per input, in input order; a shard-level
  /// failure (retry deadline, every replica dead) becomes the status of
  /// that shard's ops.
  StatusOr<std::vector<OpResult>> PublishBatch(
      const std::vector<std::pair<std::string,
                                  std::shared_ptr<FlowStateBase>>>& flows);
  StatusOr<std::vector<OpResult>> RetrieveBatch(
      const std::vector<std::string>& names);
  StatusOr<std::vector<OpResult>> CloseBatch(
      const std::vector<std::string>& names);

  RegistryClientStats stats() const { return stats_; }

 private:
  /// One logical connection to a shard: FIFO, per-client sequence numbers.
  struct ShardConn {
    uint64_t next_seq = 0;
    /// Replica the previous batch went to; -1 before the first batch.
    int64_t last_replica = -1;
  };

  SimTime NowVt() const { return clock_ ? clock_->now() : 0; }

  /// Sends `ops` (all owned by `shard`) as one batch; retries through
  /// redirects and silence until success, a terminal error, or the retry
  /// deadline. On success fills `results` (one per op) and advances the
  /// clock to the reply arrival.
  Status ExecuteShardBatch(ShardId shard, std::vector<Op> ops,
                           std::vector<OpResult>* results);

  /// Sends one op as a one-op batch to its owning shard.
  StatusOr<OpResult> ExecuteOne(Op op);

  /// Groups `ops` by owning shard (of op.name), executes one batch per
  /// shard, scatters per-op results back into input order.
  StatusOr<std::vector<OpResult>> ExecuteOps(std::vector<Op> ops);

  /// Deterministic virtual sleep until `until`: parks on a private
  /// WaitPoint with a timer.
  void SleepUntilVt(SimTime from, SimTime until);

  RegistryService* const service_;
  const RegistryClientOptions options_;
  VirtualClock* const clock_;

  std::vector<std::unique_ptr<ShardConn>> conns_;  // one per shard

  RegistryClientStats stats_;

  exec::WaitPoint backoff_wp_;  // never woken: pure virtual-time sleeps
};

}  // namespace dfi::reg

#endif  // DFI_REGISTRY_REGISTRY_CLIENT_H_
