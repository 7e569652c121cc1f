#ifndef DFI_COMMON_STATS_H_
#define DFI_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfi {

/// Accumulates samples (e.g. request latencies in virtual ns) and reports
/// order statistics. Not thread-safe; aggregate per-thread instances with
/// Merge().
class LatencyRecorder {
 public:
  LatencyRecorder() = default;

  void Record(int64_t sample) { samples_.push_back(sample); }
  void Merge(const LatencyRecorder& other);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile in [0, 1]; e.g. 0.5 = median, 0.95 = p95. Sorts lazily.
  int64_t Quantile(double q);
  int64_t Median() { return Quantile(0.5); }
  int64_t Max();
  double Mean() const;

 private:
  void EnsureSorted();

  std::vector<int64_t> samples_;
  bool sorted_ = false;
};

/// Simple online mean/min/max accumulator for throughput-style metrics.
class RunningStat {
 public:
  void Add(double v);
  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace dfi

#endif  // DFI_COMMON_STATS_H_
