#include "probe.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace dfi::benchmark {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

void Histogram::Add(int64_t value) {
  const uint64_t v = value > 0 ? static_cast<uint64_t>(value) : 0;
  size_t index;
  if (v < kSub) {
    index = v;
  } else {
    const int msb = 63 - std::countl_zero(v);  // >= 4
    const uint64_t sub = (v >> (msb - 4)) & (kSub - 1);
    index = static_cast<size_t>(msb - 3) * kSub + sub;
  }
  ++counts_[index];
  ++total_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

uint64_t Histogram::Quantile(double q) const {
  if (total_ == 0) return 0;
  const uint64_t rank = std::min<uint64_t>(
      total_ - 1, static_cast<uint64_t>(q * static_cast<double>(total_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank) {
      if (i < kSub) return i;
      const int msb = static_cast<int>(i / kSub) + 3;
      return (kSub + i % kSub) << (msb - 4);
    }
  }
  return 0;
}

void CallStats::Merge(const CallStats& other) {
  calls += other.calls;
  failed += other.failed;
  host_ns.Merge(other.host_ns);
  virt_ns.Merge(other.virt_ns);
  virt_sum_ns += other.virt_sum_ns;
}

// ---------------------------------------------------------------------------
// ActorProbe
// ---------------------------------------------------------------------------

ActorProbe::ActorProbe(bool tracing, uint32_t track, uint64_t body_parent)
    : tracing_(tracing), track_(track), body_parent_(body_parent) {}

void ActorProbe::BeginBody(const char* name, const VirtualClock* clock) {
  if (!tracing_) return;
  body_.name = name;
  body_.id = (uint64_t{track_} << 40) | ++next_local_;
  body_.parent = body_parent_;
  body_.host_begin_ns = HostNowNs();
  body_.virt_begin_ns = clock != nullptr ? clock->now() : 0;
  body_span_ = body_.id;
}

void ActorProbe::EndBody(const VirtualClock* clock) {
  if (!tracing_ || body_span_ == 0) return;
  body_.host_end_ns = HostNowNs();
  body_.virt_end_ns = clock != nullptr ? clock->now() : 0;
  spans_.push_back(body_);
  body_span_ = 0;
}

void ActorProbe::AddSpan(const char* name, int64_t h0, int64_t h1,
                         SimTime v0, SimTime v1) {
  Span s;
  s.name = name;
  s.id = (uint64_t{track_} << 40) | ++next_local_;
  s.parent = body_span_ != 0 ? body_span_ : body_parent_;
  s.host_begin_ns = h0;
  s.host_end_ns = h1;
  s.virt_begin_ns = v0;
  s.virt_end_ns = v1;
  spans_.push_back(s);
}

// ---------------------------------------------------------------------------
// RepTrace
// ---------------------------------------------------------------------------

RepTrace::RepTrace(bool tracing) : tracing_(tracing) {
  names_.push_back("rep");
  probes_.push_back(std::make_unique<ActorProbe>(tracing, 0, 0));
}

ActorProbe* RepTrace::NewActor(std::string name) {
  const auto track = static_cast<uint32_t>(probes_.size());
  names_.push_back(std::move(name));
  probes_.push_back(std::make_unique<ActorProbe>(tracing_, track, kRepSpan));
  return probes_.back().get();
}

CallStats RepTrace::Total(Site site) const {
  CallStats total;
  for (const auto& p : probes_) total.Merge(p->stats(site));
  return total;
}

bool RepTrace::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& p : probes_) {
    for (const Span& s : p->spans()) {
      origin = std::min(origin, s.host_begin_ns);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t t = 0; t < probes_.size(); ++t) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, names_[t].c_str());
    first = false;
    for (const Span& s : probes_[t]->spans()) {
      std::fprintf(
          f,
          ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
          ",\"parent\":%" PRIu64 ",\"rep\":%" PRIu64
          ",\"virt_begin_ns\":%" PRId64 ",\"virt_end_ns\":%" PRId64 "}}",
          s.name, t, static_cast<double>(s.host_begin_ns - origin) / 1e3,
          static_cast<double>(s.host_end_ns - s.host_begin_ns) / 1e3, s.id,
          s.parent, kRepSpan, s.virt_begin_ns, s.virt_end_ns);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dfi::benchmark
