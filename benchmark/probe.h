#ifndef DFI_BENCHMARK_PROBE_H_
#define DFI_BENCHMARK_PROBE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "core/channel.h"

namespace dfi::benchmark {

/// Host steady-clock time in nanoseconds.
int64_t HostNowNs();

/// Log-linear histogram of non-negative integers: exact below 16, then 16
/// sub-buckets per power of two, so a quantile is off by at most 1/16.
class Histogram {
 public:
  void Add(int64_t value);
  void Merge(const Histogram& other);
  /// Lower edge of the bucket holding quantile `q` in [0, 1]; 0 if empty.
  uint64_t Quantile(double q) const;

 private:
  static constexpr int kSub = 16;
  std::array<uint64_t, 64 * kSub> counts_{};
  uint64_t total_ = 0;
};

/// Aggregates of one instrumented call site. `calls` and `failed` are
/// always counted; the histograms and the virtual sum only while tracing.
struct CallStats {
  uint64_t calls = 0;
  uint64_t failed = 0;
  Histogram host_ns;
  Histogram virt_ns;
  int64_t virt_sum_ns = 0;

  void Merge(const CallStats& other);
};

/// The library calls the benchmark makes, by kind. kSetup covers flow and
/// graph creation, kClose covers Close and Finish.
enum class Site : uint8_t { kSetup, kPush, kConsume, kEmit, kClose, kCount };

inline bool Failed(const Status& s) { return !s.ok(); }
inline bool Failed(ConsumeResult r) { return r == ConsumeResult::kError; }
template <typename T>
bool Failed(const StatusOr<T>& s) {
  return !s.ok();
}

/// One recorded span. `parent` is 0 for the rep's root span; `rep` is the
/// root span's id, shared by every span of the rep.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t host_begin_ns = 0;
  int64_t host_end_ns = 0;
  SimTime virt_begin_ns = 0;
  SimTime virt_end_ns = 0;
};

/// Instrumentation handle of one actor, or of the rep's root task. Each
/// handle is used by exactly one fiber, so nothing here locks.
class ActorProbe {
 public:
  /// `body_parent` is the parent of this probe's body span: 0 for the
  /// root probe (its body is the rep), the rep span for actors.
  ActorProbe(bool tracing, uint32_t track, uint64_t body_parent);
  ActorProbe(const ActorProbe&) = delete;
  ActorProbe& operator=(const ActorProbe&) = delete;

  /// Opens / closes the span of this actor's body; calls made in between
  /// become its children. No-ops unless tracing.
  void BeginBody(const char* name, const VirtualClock* clock);
  void EndBody(const VirtualClock* clock);

  /// Makes one library call through `call`, counting it at `site`. While
  /// tracing it also records host and virtual duration, and a span for
  /// every `span_every`-th call. `clock` is the clock the call charges
  /// (null for set-up calls, which take no virtual time).
  template <typename F>
  auto Call(Site site, const VirtualClock* clock, const char* name,
            uint32_t span_every, F&& call) {
    CallStats& stats = stats_[static_cast<size_t>(site)];
    ++stats.calls;
    if (!tracing_) {
      auto result = call();
      if (Failed(result)) ++stats.failed;
      return result;
    }
    const int64_t h0 = HostNowNs();
    const SimTime v0 = clock != nullptr ? clock->now() : 0;
    auto result = call();
    const int64_t h1 = HostNowNs();
    const SimTime v1 = clock != nullptr ? clock->now() : 0;
    if (Failed(result)) ++stats.failed;
    stats.host_ns.Add(h1 - h0);
    stats.virt_ns.Add(v1 - v0);
    stats.virt_sum_ns += v1 - v0;
    if (stats.calls % span_every == 1 || span_every == 1) {
      AddSpan(name, h0, h1, v0, v1);
    }
    return result;
  }

  /// Consume-side tally of one returned segment: the virtual time the
  /// call waited for it and its fill against `capacity` payload bytes.
  void OnSegment(SimTime clock_before, const SegmentView& seg,
                 uint32_t capacity) {
    if (seg.arrival > clock_before) wait_ns_ += seg.arrival - clock_before;
    ++segments_;
    segment_bytes_ += seg.bytes;
    segment_capacity_bytes_ += capacity;
  }
  /// Final virtual clock of a segment consumer (the wait-share base).
  void SetFinalClock(SimTime t) { final_clock_ = t; }

  const CallStats& stats(Site site) const {
    return stats_[static_cast<size_t>(site)];
  }
  SimTime wait_ns() const { return wait_ns_; }
  SimTime final_clock() const { return final_clock_; }
  uint64_t segments() const { return segments_; }
  uint64_t segment_bytes() const { return segment_bytes_; }
  uint64_t segment_capacity_bytes() const { return segment_capacity_bytes_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void AddSpan(const char* name, int64_t h0, int64_t h1, SimTime v0,
               SimTime v1);

  const bool tracing_;
  const uint32_t track_;
  const uint64_t body_parent_;
  uint64_t next_local_ = 0;
  uint64_t body_span_ = 0;  // open body span, else 0
  Span body_;
  std::array<CallStats, static_cast<size_t>(Site::kCount)> stats_;
  std::vector<Span> spans_;
  SimTime wait_ns_ = 0;
  SimTime final_clock_ = 0;
  uint64_t segments_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t segment_capacity_bytes_ = 0;
};

/// The instrumentation of one rep: the root probe (track 0, whose body span
/// is the rep) plus one probe per actor. Actors are created on the root
/// task before they are spawned; each actor then uses only its own probe.
class RepTrace {
 public:
  explicit RepTrace(bool tracing);
  RepTrace(const RepTrace&) = delete;
  RepTrace& operator=(const RepTrace&) = delete;

  ActorProbe& root() { return *probes_[0]; }
  ActorProbe* NewActor(std::string name);

  const std::vector<std::unique_ptr<ActorProbe>>& probes() const {
    return probes_;
  }
  /// The call-site aggregates of `site`, summed over every probe.
  CallStats Total(Site site) const;

  /// Writes the rep as Chrome trace-event JSON (one track per actor;
  /// viewable in Perfetto). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr uint64_t kRepSpan = 1;  // id of the root (rep) span
  const bool tracing_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ActorProbe>> probes_;
};

}  // namespace dfi::benchmark

#endif  // DFI_BENCHMARK_PROBE_H_
