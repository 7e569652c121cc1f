#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/exec/engine.h"
#include "common/logging.h"

namespace dfi::net {

LinkScheduler::LinkScheduler(std::string name, double bytes_per_ns)
    : name_(std::move(name)),
      ns_per_byte_(1.0 / bytes_per_ns),
      bytes_per_ns_(bytes_per_ns) {
  DFI_CHECK_GT(bytes_per_ns, 0.0);
}

TransferWindow LinkScheduler::Reserve(SimTime ready, uint64_t bytes) {
  double ns_per_byte = ns_per_byte_;
  if (rate_probe_) {
    const double factor = std::clamp(rate_probe_(ready), 1e-6, 1.0);
    ns_per_byte /= factor;
  }
  const SimTime duration = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * ns_per_byte));
  const SimTime horizon = exec::Engine::Horizon();
  busy_time_ += duration;
  total_bytes_ += bytes;
  // A gap that ends before every actor's next possible action can never
  // be backfilled again.
  while (!gaps_.empty() && gaps_.begin()->second <= horizon) {
    EraseGap(gaps_.begin());
  }

  // Backfill: a transfer is a train of packets, and the wire interleaves
  // the packets of concurrent transfers, so it fills the idle gaps at or
  // after `ready` in time order until its duration is used up; whatever
  // does not fit goes to the tail. Skipped when ready >= busy_until_:
  // every gap ends below busy_until_.
  SimTime remaining = duration;
  SimTime first = -1;
  SimTime end = ready;
  if (ready < busy_until_) {
    // Gaps wholly before `ready` cannot serve this reservation (though a
    // lagging sender may still use them later).
    auto it = FirstGapEndingAfter(ready);
    while (it != gaps_.end() && remaining > 0) {
      const SimTime gap_start = it->first;
      const SimTime gap_end = it->second;
      const SimTime start = std::max(ready, gap_start);
      const SimTime used = std::min(remaining, gap_end - start);
      if (first < 0) first = start;
      end = start + used;
      remaining -= used;
      // Keep what the transfer left of the gap: its head in place, its
      // tail under a new key.
      auto next = std::next(it);
      if (start > gap_start) {
        it->second = start;
      } else {
        EraseGap(it);
      }
      if (end < gap_end) next = gaps_.emplace_hint(next, end, gap_end);
      it = next;
    }
    finger_ = it;
    if (remaining == 0) return {first, end};
  }

  // Append (the rest) at the tail, remembering any idle gap created before
  // it.
  const SimTime start = std::max(ready, busy_until_);
  if (start > busy_until_) {
    gaps_.emplace_hint(gaps_.end(), busy_until_, start);
    if (gaps_.size() > kMaxGaps) EraseGap(gaps_.begin());
  }
  busy_until_ = start + remaining;
  return {first < 0 ? start : first, busy_until_};
}

LinkScheduler::GapMap::iterator LinkScheduler::FirstGapEndingAfter(
    SimTime t) {
  auto it = finger_;
  for (int step = 0; step < 4; ++step) {
    if (it != gaps_.begin() && std::prev(it)->second > t) {
      --it;
    } else if (it != gaps_.end() && it->second <= t) {
      ++it;
    } else {
      return it;
    }
  }
  it = gaps_.lower_bound(t);
  if (it != gaps_.begin() && std::prev(it)->second > t) --it;
  return it;
}

LinkScheduler::GapMap::iterator LinkScheduler::EraseGap(GapMap::iterator it) {
  const bool at_finger = it == finger_;
  it = gaps_.erase(it);
  if (at_finger) finger_ = it;
  return it;
}

}  // namespace dfi::net
