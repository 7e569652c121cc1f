#ifndef DFI_COMMON_SIM_TIME_H_
#define DFI_COMMON_SIM_TIME_H_

#include <cassert>
#include <cstdint>

namespace dfi {

/// Virtual time in nanoseconds. All performance accounting in the emulated
/// network and in DFI's cost model uses virtual time, which makes benchmark
/// results deterministic and independent of host core count (see DESIGN.md
/// section 5).
using SimTime = int64_t;

/// Rounds a non-negative virtual-time cost to whole ns, half away from
/// zero: exactly std::llround for finite 0 <= x < 2^63, without the libm
/// call. x - trunc(x) is exact for such x (both share x's binade or trunc
/// is 0), so the comparison with 0.5 sees the true fraction.
inline SimTime RoundNs(double x) {
  const SimTime whole = static_cast<SimTime>(x);
  return x - static_cast<double>(whole) >= 0.5 ? whole + 1 : whole;
}

/// Per-thread virtual clock. Every flow source/target thread (and every
/// mini-MPI rank) owns one. The owning thread advances it by CPU cost-model
/// charges; cross-thread causality joins it with timestamps carried on
/// segments/footers via AdvanceTo(). Other actors may read now() (e.g. the
/// link scheduler or result reporting).
class VirtualClock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(SimTime start) : now_(start) {}

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  SimTime now() const { return now_; }

  /// Charges `delta` ns of virtual CPU/wait time. Charges are non-negative
  /// by contract — a negative delta would let virtual time run backwards
  /// and silently wrap the deterministic timeline. Debug builds assert;
  /// release builds clamp to "no charge".
  void Advance(SimTime delta) {
    assert(delta >= 0 && "VirtualClock::Advance with negative delta");
    if (delta < 0) delta = 0;
    now_ += delta;
  }

  /// Joins with an external event: clock = max(clock, t). Used when the
  /// thread consumes data that only became available at virtual time `t`.
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  void Reset(SimTime t = 0) { now_ = t; }

 private:
  SimTime now_ = 0;
};

}  // namespace dfi

#endif  // DFI_COMMON_SIM_TIME_H_
