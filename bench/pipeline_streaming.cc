// Flagship graph-layer pipeline (DESIGN.md §14): ingest sources feed a
// skew-adaptive shuffle into windowed combiner aggregation whose rows are
// replicated to one subscriber per node —
//
//   ingest --shuffle(adaptive)--> window --combiner--> aggregate
//     --replicate--> subscribers
//
// built and validated as one typed dataflow graph (Graph::Build), lowered
// onto four DFI flows registered through a single batched control-plane
// RPC, and executed as engine actors.
//
// Three sections:
//  1. End-to-end run (engine, 1 worker): stage counts, completion,
//     ingest throughput, and end-to-end row latency p50/p95/p99 (subscriber
//     consume time minus the row's newest tuple timestamp).
//  2. Determinism: the same pipeline at engine pool sizes 1/2/4 must
//     produce identical window content (group -> (COUNT, SUM) map) and
//     identical per-subscriber commutative fingerprints.
//  3. Skew: zipf 0.99 ingest keys, static vs adaptive shuffle edge —
//     the graph relays FlowOptions per edge, so the pipeline inherits the
//     skew resilience of the flow layer.
//
// `--smoke` runs a scaled-down configuration for CI.

#include <cinttypes>
#include <string>

#include "apps/pipeline/streaming_pipeline.h"
#include "bench/bench_common.h"
#include "common/exec/engine.h"
#include "common/hash.h"

namespace dfi::bench {
namespace {

bool g_smoke = false;

pipeline::PipelineConfig Config() {
  pipeline::PipelineConfig cfg;
  cfg.num_nodes = g_smoke ? 4 : 8;
  cfg.tuples_per_source = g_smoke ? 1 << 12 : 1 << 16;
  cfg.seed = BenchSeed();
  return cfg;
}

/// Runs the pipeline inside an engine with `pool` workers.
pipeline::PipelineResult RunEngine(const pipeline::PipelineConfig& cfg,
                                   uint32_t pool) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, cfg.num_nodes);
  DfiRuntime dfi(&fabric);
  pipeline::PipelineResult result;
  exec::Engine engine({.workers = pool, .lookahead_ns = 1000});
  engine.Spawn(0, "pipeline-root", [&] {
    auto r = pipeline::RunStreamingPipeline(&dfi, addrs, cfg);
    DFI_CHECK_OK(r.status());
    result = std::move(*r);
  });
  engine.Run();
  return result;
}

/// Order-insensitive digest of the full window content map.
uint64_t WindowDigest(const pipeline::PipelineResult& r) {
  uint64_t digest = 0;
  for (const auto& [wkey, cs] : r.windows) {
    digest ^= HashU64(wkey ^ HashU64(cs.first) ^ HashU64(cs.second << 1));
  }
  return digest;
}

void Run() {
  const pipeline::PipelineConfig cfg = Config();

  PrintSection(g_smoke ? "Streaming pipeline, end to end (smoke scale)"
                       : "Streaming pipeline, end to end (8 nodes)");
  // One worker: the reported virtual times are bit-identical from run to
  // run (larger pools keep the content but not the timings, §2 below).
  pipeline::PipelineResult r = RunEngine(cfg, 1);
  {
    TablePrinter t({"stage", "tuples/rows", "note"});
    t.AddRow({"ingest", Num(static_cast<double>(r.tuples_ingested)),
              "zipf keys, adaptive shuffle"});
    t.AddRow({"window", Num(static_cast<double>(r.windowed_tuples)),
              "fused (window, key) group id"});
    t.AddRow({"aggregate", Num(static_cast<double>(r.rows_published)),
              "COUNT / SUM(val) / MAX(ts) per group"});
    t.AddRow({"subscribers", Num(static_cast<double>(r.rows_delivered)),
              "replicated to every node"});
    t.Print();
  }
  const double ingest_bytes = static_cast<double>(r.tuples_ingested) * 32;
  {
    TablePrinter t({"metric", "value"});
    t.AddRow({"completion", Millis(r.completion)});
    t.AddRow({"ingest throughput", Rate(ingest_bytes, r.completion)});
    t.AddRow({"row latency p50", Micros(r.latency.Quantile(0.5))});
    t.AddRow({"row latency p95", Micros(r.latency.Quantile(0.95))});
    t.AddRow({"row latency p99", Micros(r.latency.Quantile(0.99))});
    t.Print();
  }
  DFI_CHECK_EQ(r.tuples_ingested, r.windowed_tuples);
  DFI_CHECK_EQ(r.rows_delivered, r.rows_published * cfg.num_nodes *
                                     cfg.subscribers_per_node);
  RecordMetric("completion", static_cast<double>(r.completion) / 1e6, "ms");
  RecordMetric("ingest_throughput",
               ingest_bytes / static_cast<double>(r.completion) * 1e9 / kGiB,
               "GiB/s");
  RecordMetric("latency_p50_us", r.latency.Quantile(0.5) / 1000.0, "us");
  RecordMetric("latency_p95_us", r.latency.Quantile(0.95) / 1000.0, "us");
  RecordMetric("latency_p99_us", r.latency.Quantile(0.99) / 1000.0, "us");
  RecordMetric("rows_published", static_cast<double>(r.rows_published),
               "rows");

  PrintSection("Determinism: engine pool sizes 1 / 2 / 4");
  {
    TablePrinter t({"pool", "window groups", "content digest", "match"});
    const uint64_t want = WindowDigest(r);
    bool all_match = true;
    for (uint32_t pool : {1u, 2u, 4u}) {
      const pipeline::PipelineResult p = RunEngine(cfg, pool);
      const uint64_t digest = WindowDigest(p);
      const bool match = digest == want && p.windows == r.windows;
      all_match = all_match && match;
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
      t.AddRow({std::to_string(pool),
                Num(static_cast<double>(p.windows.size())), hex,
                match ? "yes" : "NO"});
    }
    t.Print();
    DFI_CHECK(all_match) << "pipeline content differs across pool sizes";
    RecordMetric("determinism_pools_match", all_match ? 1 : 0, "bool");
    std::printf(
        "(window assignment is a pure function of tuple content, and the\n"
        " combiner folds are commutative — content is identical at any\n"
        " engine pool size)\n");
  }

  PrintSection("Skew: zipf 0.99 ingest keys, static vs adaptive shuffle");
  {
    pipeline::PipelineConfig skew = cfg;
    skew.zipf_theta = 0.99;
    skew.adaptive_shuffle = false;
    pipeline::PipelineResult s = RunEngine(skew, 1);
    skew.adaptive_shuffle = true;
    pipeline::PipelineResult a = RunEngine(skew, 1);
    const double speedup =
        static_cast<double>(s.completion) / static_cast<double>(a.completion);
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    TablePrinter t({"shuffle edge", "completion", "latency p95", "speedup"});
    t.AddRow({"static key-hash", Millis(s.completion),
              Micros(s.latency.Quantile(0.95)), "-"});
    t.AddRow({"adaptive", Millis(a.completion),
              Micros(a.latency.Quantile(0.95)), sp});
    t.Print();
    RecordMetric("skew_speedup_zipf099", speedup, "x");
    // Same content either way: adaptation moves tuples, not results.
    DFI_CHECK(s.windows == a.windows)
        << "adaptive shuffle changed the aggregate content";
  }
}

}  // namespace
}  // namespace dfi::bench

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      dfi::bench::g_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  return dfi::bench::BenchMain(static_cast<int>(args.size()), args.data(),
                               dfi::bench::Run);
}
