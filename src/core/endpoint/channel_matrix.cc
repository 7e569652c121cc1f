#include "core/endpoint/channel_matrix.h"

#include "common/logging.h"

namespace dfi {

ChannelMatrix::ChannelMatrix(rdma::RdmaEnv* env, const FlowOptions& options,
                             uint32_t tuple_size, uint32_t num_sources,
                             const std::vector<net::NodeId>& target_nodes)
    : options_(options),
      tuple_size_(tuple_size),
      num_sources_(num_sources),
      num_targets_(static_cast<uint32_t>(target_nodes.size())) {
  DFI_CHECK_GT(num_sources_, 0u);
  DFI_CHECK_GT(num_targets_, 0u);
  columns_ = std::make_unique<TargetColumn[]>(num_targets_);
  for (uint32_t t = 0; t < num_targets_; ++t) {
    columns_[t].index = t;
    columns_[t].cursors.reserve(num_sources_);
  }
  if (options_.adaptive.enabled) {
    load_board_ = std::make_unique<TargetLoadBoard>(
        num_targets_, kBackpressureHighSegments, kBackpressureLowSegments);
  }
  channels_.resize(static_cast<size_t>(num_sources_) * num_targets_);
  for (uint32_t s = 0; s < num_sources_; ++s) {
    for (uint32_t t = 0; t < num_targets_; ++t) {
      auto channel = std::make_unique<ChannelShared>(
          env->context(target_nodes[t]), options_, tuple_size_,
          static_cast<uint16_t>(s));
      channel->set_target_gate(&columns_[t].gate);
      columns_[t].cursors.emplace_back(channel.get());
      if (load_board_ != nullptr) {
        channel->set_load_board(load_board_.get(), t);
      }
      channels_[static_cast<size_t>(s) * num_targets_ + t] =
          std::move(channel);
    }
  }
}

void ChannelMatrix::PoisonAll(const Status& cause) {
  for (auto& ch : channels_) ch->Poison(cause);
}

uint64_t ChannelMatrix::RingBytesOnNode(net::NodeId node) const {
  uint64_t bytes = 0;
  for (const auto& ch : channels_) {
    if (ch->target_node() == node) {
      bytes += ch->ring().total_bytes() + 64;  // ring + credit counter
    }
  }
  return bytes;
}

}  // namespace dfi
