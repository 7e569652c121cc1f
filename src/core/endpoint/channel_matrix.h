#ifndef DFI_CORE_ENDPOINT_CHANNEL_MATRIX_H_
#define DFI_CORE_ENDPOINT_CHANNEL_MATRIX_H_

#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "core/channel.h"
#include "core/endpoint/backpressure.h"
#include "core/flow_options.h"
#include "core/ring_sync.h"
#include "rdma/rdma_env.h"

namespace dfi {

/// One target thread's column of the matrix: the cursors over its
/// per-source rings and the consume state its sink keeps. Without work
/// stealing one sink drains the column; in a steal group (flow_sink.h)
/// every sink of the group may pop from it, and `busy`/`deferred`
/// serialize them.
struct TargetColumn {
  /// Ready-channel gate every ring of the column announces deliveries on.
  ReadyGate gate;
  uint32_t index = 0;  ///< target index within the matrix
  /// One cursor per source ring, in source order.
  std::vector<ChannelTargetCursor> cursors;
  uint32_t exhausted = 0;  ///< cursors that reached end-of-flow

  /// Steal-group state, sized when the column joins a group (empty
  /// otherwise). A cursor checked out by one sink is `busy` for the
  /// others; gate entries popped while their cursor was busy are counted
  /// in `deferred` and replayed onto the gate when it is released, so no
  /// delivery announcement is lost and the pop loop never cycles.
  std::vector<uint8_t> busy;
  std::vector<uint32_t> deferred;
  /// Virtual clock and estimated per-segment cost of the column's own
  /// sink, published on each of its consume calls; the group's
  /// level-filling schedule reads them (FlowSink::LevelGroup).
  SimTime owner_now = 0;
  SimTime owner_cost = 0;

  bool AllExhausted() const {
    return exhausted == static_cast<uint32_t>(cursors.size());
  }
};

/// The private channel fabric of one flow: an N x M matrix of
/// source->target segment-ring channels plus one TargetColumn per target
/// thread (paper Figure 5 — every (source thread, target thread) pair gets
/// its own ring so no synchronization is needed on the data path). All
/// three flow types build exactly this structure for the one-sided
/// transport; the matrix owns it once.
class ChannelMatrix {
 public:
  ChannelMatrix() = default;

  /// Allocates every ring on its target's node and wires the columns.
  ChannelMatrix(rdma::RdmaEnv* env, const FlowOptions& options,
                uint32_t tuple_size, uint32_t num_sources,
                const std::vector<net::NodeId>& target_nodes);

  ChannelMatrix(ChannelMatrix&&) = default;
  ChannelMatrix& operator=(ChannelMatrix&&) = default;

  bool empty() const { return channels_.empty(); }
  uint32_t num_sources() const { return num_sources_; }
  uint32_t num_targets() const { return num_targets_; }
  uint32_t tuple_size() const { return tuple_size_; }
  const FlowOptions& options() const { return options_; }

  ChannelShared* channel(uint32_t source, uint32_t target) const {
    return channels_[static_cast<size_t>(source) * num_targets_ + target]
        .get();
  }
  TargetColumn* column(uint32_t target) const { return &columns_[target]; }

  /// Per-target queue-depth board (null unless the flow opted into
  /// adaptive shuffling — the static path never allocates or touches it,
  /// keeping its per-segment work digit-identical).
  TargetLoadBoard* load_board() const { return load_board_.get(); }

  /// Tears the whole matrix down: poison wakes both halves of every channel
  /// (sync + target gate), so blocked sources and targets observe the
  /// teardown promptly.
  void PoisonAll(const Status& cause);

  /// Registered bytes of all rings of this flow on `node` (memory
  /// accounting, paper section 6.1.4; excludes source-side staging which is
  /// counted when sources are created).
  uint64_t RingBytesOnNode(net::NodeId node) const;

 private:
  FlowOptions options_;
  uint32_t tuple_size_ = 0;
  uint32_t num_sources_ = 0;
  uint32_t num_targets_ = 0;
  std::vector<std::unique_ptr<ChannelShared>> channels_;
  std::unique_ptr<TargetColumn[]> columns_;
  std::unique_ptr<TargetLoadBoard> load_board_;
};

}  // namespace dfi

#endif  // DFI_CORE_ENDPOINT_CHANNEL_MATRIX_H_
