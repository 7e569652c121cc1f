#ifndef DFI_BENCH_BENCH_COMMON_H_
#define DFI_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/table_printer.h"
#include "bench_util/workload.h"
#include "common/units.h"
#include "core/dfi.h"

namespace dfi::bench {

/// Builds a fabric with `n` nodes using the default EDR-like SimConfig and
/// returns the node addresses.
inline std::vector<std::string> MakeCluster(net::Fabric* fabric, size_t n) {
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric->AddNodes(n)) {
    addrs.push_back(fabric->node(id).address());
  }
  return addrs;
}

/// Formats a byte/ns rate as GiB/s with two decimals (the unit of the
/// paper's bandwidth plots).
inline std::string Rate(double bytes, SimTime ns) {
  if (ns <= 0) return "-";
  const double gib_per_s = bytes / static_cast<double>(ns) * 1e9 / kGiB;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f GiB/s", gib_per_s);
  return buf;
}

inline std::string Micros(SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1000.0);
  return buf;
}

inline std::string Millis(SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1.0e6);
  return buf;
}

inline std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

/// Seed shared by all benches, settable with `--seed <n>` (defaults to the
/// classic 7). Benches that randomize workloads or fault injection read it
/// here so chaos runs can be replayed exactly.
inline uint64_t& BenchSeed() {
  static uint64_t seed = 7;
  return seed;
}

/// Shared bench entry point: parses the command line (`--json <path>`
/// emits the printed tables as machine-readable JSON for CI; `--seed <n>`
/// replays a run deterministically) and runs the benchmark body.
inline int BenchMain(int argc, char** argv, void (*run)()) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      BenchSeed() = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--seed <n>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!json_path.empty()) {
    // Fail before the run, not after: benches take minutes, and an
    // unwritable path would otherwise be reported only at the very end.
    if (!std::ofstream(json_path)) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
    EnableResultCapture();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  run();
  if (!json_path.empty()) {
    // Every bench JSON carries the host wall-clock cost of the run — the
    // emulator-throughput number CI trends alongside the simulated results.
    PrintSection("Run cost");
    RecordMetric("wall_clock",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count(),
                 "s", /*host=*/true);
  }
  if (!json_path.empty() && !WriteJsonResults(json_path)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

/// A pad schema with an 8-byte key and `size`-byte total tuples.
inline Schema PaddedSchema(uint32_t size) {
  DFI_CHECK_GE(size, 8u);
  if (size == 8) return Schema{{"key", DataType::kUInt64}};
  return Schema{{"key", DataType::kUInt64},
                {"pad", DataType::kChar, size - 8}};
}

}  // namespace dfi::bench

#endif  // DFI_BENCH_BENCH_COMMON_H_
