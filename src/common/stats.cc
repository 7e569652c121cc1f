#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dfi {

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

void LatencyRecorder::EnsureSorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

int64_t LatencyRecorder::Quantile(double q) {
  DFI_CHECK(!samples_.empty());
  DFI_CHECK(q >= 0.0 && q <= 1.0);
  EnsureSorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<int64_t>(
      std::llround(static_cast<double>(samples_[lo]) * (1.0 - frac) +
                   static_cast<double>(samples_[hi]) * frac));
}

int64_t LatencyRecorder::Max() {
  DFI_CHECK(!samples_.empty());
  EnsureSorted();
  return samples_.back();
}

double LatencyRecorder::Mean() const {
  if (samples_.empty()) return 0;
  double sum = 0;
  for (int64_t s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size());
}

void RunningStat::Add(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  sum_ += v;
  ++count_;
}

}  // namespace dfi
