// dfi_benchmark: runs one benchmark workload in this process and writes
// every rep's measurements as JSON. benchmark/run.py builds and drives it;
// see README.md for the workloads and metrics.
//
//   dfi_benchmark --workload <name> --seed <n> --json <file>
//                 [--seconds <s>] [--trace <file>] [--smoke]
//
// Inputs are generated from the seed once, before any rep. Then one
// warm-up rep runs, then measured reps until --seconds have passed (at
// least five), all on an engine with one worker. --trace adds one traced
// rep (written to <file> as Chrome trace-event JSON) and one untraced rep
// on a four-worker engine. --smoke divides every input size by 64 and runs
// a single measured rep.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/exec/engine.h"
#include "common/units.h"
#include "probe.h"
#include "workload.h"

namespace dfi::benchmark {
namespace {

constexpr int kMinReps = 5;
/// Engine lookahead window in virtual ns, as in the repository's benches.
constexpr SimTime kLookaheadNs = 1000;

using Metrics = std::map<std::string, double>;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  std::string json_path;
  std::string trace_path;
  double seconds = 10;
  bool smoke = false;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "shuffle_bw") return MakeShuffleBw(o.seed, o.smoke);
  if (o.workload == "rpc_latency") return MakeRpcLatency(o.seed, o.smoke);
  if (o.workload == "pipeline_skew") return MakePipelineSkew(o.seed, o.smoke);
  if (o.workload == "radix_join") return MakeRadixJoin(o.seed, o.smoke);
  return nullptr;
}

/// Per-call-site metrics, available only from a traced rep.
void AddTracedMetrics(const RepTrace& trace, Metrics* m) {
  const CallStats push = trace.Total(Site::kPush);
  const CallStats consume = trace.Total(Site::kConsume);
  const CallStats emit = trace.Total(Site::kEmit);
  auto mean = [](const CallStats& s) {
    return s.calls > 0 ? static_cast<double>(s.virt_sum_ns) /
                             static_cast<double>(s.calls)
                       : 0.0;
  };
  (*m)["endpoint.push_calls"] = static_cast<double>(push.calls);
  (*m)["endpoint.push_failed"] = static_cast<double>(push.failed);
  (*m)["endpoint.push_host_ns_p50"] =
      static_cast<double>(push.host_ns.Quantile(0.5));
  (*m)["endpoint.push_virt_ns_mean"] = mean(push);
  (*m)["endpoint.push_virt_ns_p99"] =
      static_cast<double>(push.virt_ns.Quantile(0.99));
  (*m)["endpoint.consume_calls"] = static_cast<double>(consume.calls);
  (*m)["endpoint.consume_failed"] = static_cast<double>(consume.failed);
  (*m)["endpoint.consume_host_ns_p50"] =
      static_cast<double>(consume.host_ns.Quantile(0.5));
  (*m)["graph.emit_host_ns_p50"] =
      static_cast<double>(emit.host_ns.Quantile(0.5));
  (*m)["graph.emit_virt_ns_mean"] = mean(emit);

  double wait = 0, final_clocks = 0, bytes = 0, capacity = 0;
  for (const auto& p : trace.probes()) {
    if (p->segments() == 0) continue;
    wait += static_cast<double>(p->wait_ns());
    final_clocks += static_cast<double>(p->final_clock());
    bytes += static_cast<double>(p->segment_bytes());
    capacity += static_cast<double>(p->segment_capacity_bytes());
  }
  (*m)["endpoint.consume_wait_share"] =
      final_clocks > 0 ? wait / final_clocks : 0;
  (*m)["endpoint.segment_fill"] = capacity > 0 ? bytes / capacity : 0;
}

/// Runs one rep on a fresh engine and converts it into metrics.
Metrics RunRep(Workload* workload, uint32_t workers, bool tracing,
               const std::string& trace_path, std::vector<std::string>* errors,
               uint64_t* attempted, uint64_t* failed) {
  RepTrace trace(tracing);
  RepResult result;
  exec::Engine engine({.workers = workers, .lookahead_ns = kLookaheadNs});
  engine.Spawn(0, "rep", [&] {
    trace.root().BeginBody("rep", nullptr);
    workload->Rep(&trace, &result);
    trace.root().EndBody(nullptr);
  });
  engine.Run();

  errors->insert(errors->end(), result.errors.begin(), result.errors.end());
  for (size_t s = 0; s < static_cast<size_t>(Site::kCount); ++s) {
    const CallStats site = trace.Total(static_cast<Site>(s));
    *attempted += site.calls;
    *failed += site.failed;
  }
  if (result.completion <= 0 || result.latency.empty()) {
    errors->push_back("rep delivered no results");
    return {};
  }
  Metrics m = result.layer;
  m["virt_throughput_gibps"] = result.useful_bytes /
                               static_cast<double>(result.completion) * 1e9 /
                               static_cast<double>(kGiB);
  m["virt_latency_mean_us"] = result.latency.Mean() / 1e3;
  m["virt_latency_p9999_us"] =
      static_cast<double>(result.latency.Quantile(0.9999)) / 1e3;
  m["virt_latency_samples"] = static_cast<double>(result.latency.count());
  m["registered_mib"] = result.registered_bytes / static_cast<double>(kMiB);
  m["host_run_s"] = result.run_s;
  m["setup_s"] = result.setup_s;
  if (tracing) {
    AddTracedMetrics(trace, &m);
    if (!trace.WriteChromeTrace(trace_path)) {
      errors->push_back("could not write " + trace_path);
    }
  }
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteMetrics(FILE* f, const Metrics& m) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "}");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      o->seed = std::strtoull(argv[++i], &end, 10);
      o->has_seed = *end == '\0';
    } else if (arg == "--json" && has_value) {
      o->json_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      o->trace_path = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (arg == "--smoke") {
      o->smoke = true;
    } else {
      return false;
    }
  }
  return o->has_seed && !o->json_path.empty() && o->seconds >= 0;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --json <file> "
                 "[--seconds <s>] [--trace <file>] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  // Fail before the run, not after it, on an unwritable output.
  FILE* out = std::fopen(o.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: could not write %s\n", o.json_path.c_str());
    return 1;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", o.workload.c_str());
    std::fclose(out);
    return 2;
  }

  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  auto rep = [&](uint32_t workers, bool tracing) {
    return RunRep(workload.get(), workers, tracing, o.trace_path, &errors,
                  &attempted, &failed);
  };
  std::vector<Metrics> reps;
  if (!o.smoke) rep(1, false);  // warm-up: caches, allocator, page faults
  const int64_t start = HostNowNs();
  const int min_reps = o.smoke ? 1 : kMinReps;
  const double seconds = o.smoke ? 0 : o.seconds;
  while (errors.empty() &&
         (static_cast<int>(reps.size()) < min_reps ||
          static_cast<double>(HostNowNs() - start) / 1e9 < seconds)) {
    reps.push_back(rep(1, false));
  }
  // Peak RSS of the measured reps only, before tracing adds its buffers.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Metrics traced, pool;
  const uint32_t pool_workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (!o.trace_path.empty() && errors.empty()) {
    traced = rep(1, true);
    pool = rep(pool_workers, false);
  }

  std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"smoke\": %s,\n",
               JsonString(o.workload).c_str(),
               static_cast<unsigned long long>(o.seed),
               o.smoke ? "true" : "false");
  std::fprintf(out, "\"correct\": %s, \"errors\": [",
               errors.empty() ? "true" : "false");
  for (size_t i = 0; i < errors.size(); ++i) {
    std::fprintf(out, "%s%s", i ? ", " : "", JsonString(errors[i]).c_str());
  }
  std::fprintf(out,
               "],\n\"attempted\": %llu, \"failed\": %llu, "
               "\"peak_rss_mib\": %.17g, \"pool_workers\": %u,\n\"reps\": [",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<double>(ru.ru_maxrss) / 1024.0, pool_workers);
  for (size_t i = 0; i < reps.size(); ++i) {
    std::fprintf(out, "%s\n  ", i ? "," : "");
    WriteMetrics(out, reps[i]);
  }
  std::fprintf(out, "],\n\"traced\": ");
  WriteMetrics(out, traced);
  std::fprintf(out, ",\n\"pool\": ");
  WriteMetrics(out, pool);
  std::fprintf(out, "}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "error: could not write %s\n", o.json_path.c_str());
    return 1;
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), e.c_str());
  }
  return errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace dfi::benchmark

int main(int argc, char** argv) { return dfi::benchmark::Main(argc, argv); }
