#include "net/link.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/exec/engine.h"
#include "common/logging.h"

namespace dfi::net {

namespace {

/// Smallest gap buffer a link allocates, on its first gap: one 4 KiB page.
constexpr size_t kMinGapSlots = 256;

}  // namespace

LinkScheduler::LinkScheduler(std::string name, double bytes_per_ns,
                             const FaultPlan* fault_plan, NodeId node)
    : name_(std::move(name)),
      ns_per_byte_(1.0 / bytes_per_ns),
      bytes_per_ns_(bytes_per_ns),
      fault_plan_(fault_plan),
      node_(node) {
  DFI_CHECK_GT(bytes_per_ns, 0.0);
}

TransferWindow LinkScheduler::Reserve(SimTime ready, uint64_t bytes) {
  double ns_per_byte = ns_per_byte_;
  if (fault_plan_ != nullptr && fault_plan_->active()) {
    // Degraded-link modeling; the nominal rate in Gbps is 8 bits per byte.
    ns_per_byte /=
        fault_plan_->LinkRateFactor(node_, ready, bytes_per_ns_ * 8.0);
  }
  const SimTime duration = RoundNs(static_cast<double>(bytes) * ns_per_byte);
  const SimTime horizon = exec::Engine::Horizon();
  busy_time_ += duration;
  total_bytes_ += bytes;
  // A gap that ends before every actor's next possible action can never
  // be backfilled again.
  while (front_begin_ < front_end_ && buf_[front_begin_].end <= horizon) {
    ++front_begin_;
  }
  if (front_begin_ == front_end_) {
    while (back_begin_ < back_end_ && buf_[back_begin_].end <= horizon) {
      ++back_begin_;
    }
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
    if (SeekGapEndingAfter(ready)) {
      while (back_begin_ < back_end_ && remaining > 0) {
        const Gap gap = buf_[back_begin_];
        const SimTime start = std::max(ready, gap.start);
        const SimTime used = std::min(remaining, gap.end - start);
        if (first < 0) first = start;
        end = start + used;
        remaining -= used;
        // What the transfer leaves of the gap: its head joins the front
        // run, its tail stays at the head of the back run.
        if (start > gap.start) {
          // Keeping both a head and a tail takes a hole slot.
          if (end < gap.end && front_end_ == back_begin_) Reflow();
          buf_[front_end_++] = {gap.start, start};
        }
        if (end < gap.end) {
          buf_[back_begin_].start = end;
        } else {
          ++back_begin_;
        }
      }
    }
    if (remaining == 0) return {first, end};
  }

  // Append (the rest) at the tail, remembering any idle gap created before
  // it.
  const SimTime start = std::max(ready, busy_until_);
  if (start > busy_until_) {
    if (back_end_ == buf_.size()) Reflow();
    buf_[back_end_++] = {busy_until_, start};
    if (gap_count() > kMaxGaps) {
      // The oldest gap goes.
      if (front_begin_ < front_end_) {
        ++front_begin_;
      } else {
        ++back_begin_;
      }
    }
  }
  busy_until_ = start + remaining;
  return {first < 0 ? start : first, busy_until_};
}

bool LinkScheduler::SeekGapEndingAfter(SimTime t) {
  const auto ends_by_t = [t](const Gap& g) { return g.end <= t; };
  Gap* const gaps = buf_.data();
  if (front_begin_ < front_end_ && gaps[front_end_ - 1].end > t) {
    // The gap is in the front run: the gaps from it on join the back run.
    const size_t at = static_cast<size_t>(
        std::partition_point(gaps + front_begin_, gaps + front_end_,
                             ends_by_t) -
        gaps);
    const size_t count = front_end_ - at;
    back_begin_ -= count;
    MoveGaps(at, count, back_begin_);
    front_end_ = at;
    return true;
  }
  const size_t at = static_cast<size_t>(
      std::partition_point(gaps + back_begin_, gaps + back_end_, ends_by_t) -
      gaps);
  if (at == back_end_) return false;
  // The gaps before it join the front run.
  const size_t count = at - back_begin_;
  MoveGaps(back_begin_, count, front_end_);
  front_end_ += count;
  back_begin_ = at;
  return true;
}

void LinkScheduler::Reflow() {
  const size_t front = front_end_ - front_begin_;
  const size_t back = back_end_ - back_begin_;
  size_t slots = std::max(buf_.size(), kMinGapSlots);
  while (slots < 2 * (front + back + 1)) slots *= 2;
  buf_.resize(slots);
  // Half the free slots open the hole, the rest follow the back run. The
  // front run only moves down, below the back run's old slots, so moving
  // it first overwrites no gap.
  const size_t back_at = front + (slots - front - back) / 2;
  MoveGaps(front_begin_, front, 0);
  MoveGaps(back_begin_, back, back_at);
  front_begin_ = 0;
  front_end_ = front;
  back_begin_ = back_at;
  back_end_ = back_at + back;
}

void LinkScheduler::MoveGaps(size_t from, size_t count, size_t to) {
  if (count != 0) {
    std::memmove(buf_.data() + to, buf_.data() + from, count * sizeof(Gap));
  }
}

}  // namespace dfi::net
