// The two graph-level workloads: pipeline_skew (the streaming pipeline's
// topology: adaptive shuffle, window, combiner, replicate) and radix_join
// (two scans into the built-in kJoin operator). The benchmark builds both
// graphs itself, so it can time Graph::Build, Instantiate and Finish apart
// and keep input generation out of the timed region.

#include <utility>

#include "bench_util/workload.h"
#include "common/exec/engine.h"
#include "common/random.h"
#include "core/dfi_runtime.h"
#include "core/graph/executor.h"
#include "core/graph/graph.h"
#include "workload.h"

namespace dfi::benchmark {
namespace {

/// Span sampling of the per-tuple emit calls.
constexpr uint32_t kEmitSpanEvery = 1024;

/// Builds, instantiates and runs `spec`, timing each call. Returns the
/// finished run (null after a failure, recorded in `out`).
std::unique_ptr<graph::GraphRun> RunGraph(graph::GraphSpec spec,
                                          DfiRuntime* dfi, RepTrace* trace,
                                          RepResult* out) {
  ActorProbe& root = trace->root();
  int64_t t0 = HostNowNs();
  auto built = root.Call(Site::kSetup, nullptr, "Graph::Build", 1, [&] {
    return graph::Graph::Build(std::move(spec), &dfi->fabric());
  });
  int64_t t1 = HostNowNs();
  out->layer["graph.build_ms"] = static_cast<double>(t1 - t0) / 1e6;
  if (!built.ok()) {
    out->errors.push_back("Graph::Build: " + built.status().ToString());
    return nullptr;
  }
  auto run = root.Call(Site::kSetup, nullptr, "Graph::Instantiate", 1,
                       [&] { return built->Instantiate(dfi); });
  t0 = HostNowNs();
  out->layer["graph.instantiate_ms"] = static_cast<double>(t0 - t1) / 1e6;
  if (!run.ok()) {
    out->errors.push_back("Graph::Instantiate: " + run.status().ToString());
    return nullptr;
  }
  out->registered_bytes = MaxRegisteredBytes(*dfi);

  std::unique_ptr<graph::GraphRun> graph_run = std::move(*run);
  out->StartRun();
  Status status = root.Call(Site::kSetup, nullptr, "GraphRun::Start", 1,
                            [&] { return graph_run->Start(); });
  t0 = HostNowNs();
  if (status.ok()) {
    status = root.Call(Site::kClose, nullptr, "GraphRun::Finish", 1,
                       [&] { return graph_run->Finish(); });
  }
  t1 = HostNowNs();
  out->StopRun();
  // Finish joins the operators before the batched flow removal, so this is
  // mostly the operators' run time.
  out->layer["graph.finish_ms"] = static_cast<double>(t1 - t0) / 1e6;
  if (!status.ok()) {
    out->errors.push_back("graph run: " + status.ToString());
    return nullptr;
  }
  return graph_run;
}

/// Records the `graph.*` per-vertex virtual finish time and tuple count.
/// Terminal vertices report the tuples they consumed.
void RecordVertex(const graph::GraphRun& run, const std::string& vertex,
                  bool terminal, RepResult* out) {
  const graph::GraphRun::VertexStats st = run.stats(vertex);
  out->layer["graph.vertex_finish_ms." + vertex] =
      static_cast<double>(st.max_clock) / 1e6;
  out->layer[(terminal ? "graph.tuples_in." : "graph.tuples_out.") + vertex] =
      static_cast<double>(terminal ? st.tuples_in : st.tuples_out);
}

// ---------------------------------------------------------------------------
// pipeline_skew
// ---------------------------------------------------------------------------

constexpr uint32_t kPipeNodes = 8;
constexpr uint32_t kIngestPerNode = 2;
constexpr uint32_t kIngestWorkers = kPipeNodes * kIngestPerNode;
constexpr uint32_t kWindowPerNode = 2;
constexpr uint32_t kAggregateWorkers = 2;  // all on node 0
constexpr uint32_t kSubscribers = kPipeNodes;  // one per node
constexpr uint64_t kPipeTuples = uint64_t{1} << 18;  // per ingest worker
constexpr uint64_t kPipeKeys = uint64_t{1} << 10;
constexpr double kPipeTheta = 0.99;
constexpr uint64_t kWindowSize = 1024;
constexpr uint32_t kWindowKeyBits = 20;

struct IngestTuple {
  uint64_t key, seq, val, ts;
};
static_assert(sizeof(IngestTuple) == 32, "densely packed");

Schema IngestSchema() {
  return Schema{{"key", DataType::kUInt64},
                {"seq", DataType::kUInt64},
                {"val", DataType::kUInt64},
                {"ts", DataType::kUInt64}};
}

/// What one subscriber saw; each subscriber writes only its own entry.
struct SubscriberState {
  std::vector<uint8_t> seen;  // per (window, key) group
  uint64_t rows = 0;
  uint64_t bad_rows = 0;  // unknown, repeated or wrong (COUNT, SUM)
  LatencyRecorder latency;
};

class PipelineSkew : public Workload {
 public:
  PipelineSkew(uint64_t seed, bool smoke)
      : tuples_(smoke ? kPipeTuples / 64 : kPipeTuples),
        windows_(tuples_ / kWindowSize),
        keys_(kIngestWorkers),
        vals_(kIngestWorkers),
        reference_(windows_ * kPipeKeys) {
    for (uint32_t w = 0; w < kIngestWorkers; ++w) {
      const uint64_t worker_seed = SplitMix64(seed * kIngestWorkers + w);
      const std::vector<bench::JoinTuple> zipf = bench::GenerateZipfianRelation(
          tuples_, kPipeKeys, kPipeTheta, worker_seed);
      Xorshift128Plus rng(SplitMix64(worker_seed));
      keys_[w].resize(tuples_);
      vals_[w].resize(tuples_);
      for (uint64_t seq = 0; seq < tuples_; ++seq) {
        keys_[w][seq] = static_cast<uint16_t>(zipf[seq].key);
        vals_[w][seq] = static_cast<uint16_t>(rng.Next());
        Group& g = reference_[Index(seq / kWindowSize, zipf[seq].key)];
        ++g.count;
        g.sum += vals_[w][seq];
      }
    }
    for (const Group& g : reference_) groups_ += g.count > 0 ? 1 : 0;
  }

  void Rep(RepTrace* trace, RepResult* out) override;

 private:
  struct Group {
    uint64_t count = 0;
    uint64_t sum = 0;
  };
  static size_t Index(uint64_t window, uint64_t key) {
    return window * kPipeKeys + key;
  }
  graph::GraphSpec Spec(const std::vector<std::string>& addrs,
                        const std::vector<ActorProbe*>& ingest,
                        std::vector<SubscriberState>* subscribers) const;
  void CheckRow(SubscriberState* st, const graph::OpContext& ctx,
                TupleView row) const;

  const uint64_t tuples_;
  const uint64_t windows_;
  std::vector<std::vector<uint16_t>> keys_;  // zipf keys per ingest worker
  std::vector<std::vector<uint16_t>> vals_;
  std::vector<Group> reference_;  // single-threaded (COUNT, SUM) per group
  uint64_t groups_ = 0;           // non-empty reference groups
};

graph::GraphSpec PipelineSkew::Spec(
    const std::vector<std::string>& addrs,
    const std::vector<ActorProbe*>& ingest_probes,
    std::vector<SubscriberState>* subscribers) const {
  graph::GraphSpec gs;
  gs.name = "bench.pipeline";

  graph::VertexSpec ingest;
  ingest.name = "ingest";
  ingest.kind = graph::OpKind::kSource;
  ingest.workers = DfiNodes::GridOf(addrs, kIngestPerNode);
  ingest.output = {IngestSchema(), Ordering::kNone};
  ingest.source_fn = [this, ingest_probes](graph::OpContext& ctx,
                                           const graph::EmitFn& emit) {
    ActorProbe* probe = ingest_probes[ctx.worker];
    probe->BeginBody("ingest", ctx.clock);
    const std::vector<uint16_t>& keys = keys_[ctx.worker];
    const std::vector<uint16_t>& vals = vals_[ctx.worker];
    IngestTuple t;
    Status status;
    for (uint64_t seq = 0; seq < tuples_ && status.ok(); ++seq) {
      t = {keys[seq], seq, vals[seq], static_cast<uint64_t>(ctx.clock->now())};
      status = probe->Call(Site::kEmit, ctx.clock, "emit", kEmitSpanEvery,
                           [&] { return emit(&t); });
    }
    probe->EndBody(ctx.clock);
    return status;
  };

  graph::VertexSpec window;
  window.name = "window";
  window.kind = graph::OpKind::kWindow;
  window.workers = DfiNodes::GridOf(addrs, kWindowPerNode);
  window.window = {.seq_field = 1,
                   .key_field = 0,
                   .window_size = kWindowSize,
                   .key_bits = kWindowKeyBits,
                   .out_field = "wkey"};

  graph::VertexSpec aggregate;
  aggregate.name = "aggregate";
  aggregate.kind = graph::OpKind::kAggregate;
  aggregate.workers = DfiNodes::GridOf({addrs[0]}, kAggregateWorkers);

  graph::VertexSpec sink;
  sink.name = "subscribers";
  sink.kind = graph::OpKind::kSink;
  sink.workers = DfiNodes::GridOf(addrs, 1);
  sink.tuple_sink = [this, subscribers](graph::OpContext& ctx,
                                        TupleView row) {
    CheckRow(&(*subscribers)[ctx.worker], ctx, row);
    return Status::OK();
  };
  gs.vertices = {std::move(ingest), std::move(window), std::move(aggregate),
                 std::move(sink)};

  graph::EdgeSpec shuffle;
  shuffle.name = "bench.pipeline.ingest";
  shuffle.from = "ingest";
  shuffle.to = "window";
  shuffle.kind = graph::EdgeKind::kShuffle;
  shuffle.type = {IngestSchema(), Ordering::kNone};
  shuffle.key_index = 0;
  shuffle.options.adaptive.enabled = true;

  graph::EdgeSpec combine;
  combine.name = "bench.pipeline.window";
  combine.from = "window";
  combine.to = "aggregate";
  combine.kind = graph::EdgeKind::kCombiner;
  combine.type = {Schema{{"key", DataType::kUInt64},
                         {"seq", DataType::kUInt64},
                         {"val", DataType::kUInt64},
                         {"ts", DataType::kUInt64},
                         {"wkey", DataType::kUInt64}},
                  Ordering::kNone};
  combine.key_index = 4;  // wkey
  combine.aggregates = {{AggFunc::kCount, 0},
                        {AggFunc::kSum, 2},   // val
                        {AggFunc::kMax, 3}};  // ts

  graph::EdgeSpec publish;
  publish.name = "bench.pipeline.publish";
  publish.from = "aggregate";
  publish.to = "subscribers";
  publish.kind = graph::EdgeKind::kReplicate;
  publish.type = {Schema{{"group", DataType::kUInt64},
                         {"a0", DataType::kDouble},
                         {"a1", DataType::kDouble},
                         {"a2", DataType::kDouble}},
                  Ordering::kNone};
  gs.edges = {std::move(shuffle), std::move(combine), std::move(publish)};
  return gs;
}

void PipelineSkew::CheckRow(SubscriberState* st, const graph::OpContext& ctx,
                            TupleView row) const {
  const uint64_t group = row.Get<uint64_t>(0);
  const auto count = static_cast<uint64_t>(row.Get<double>(1));
  const auto sum = static_cast<uint64_t>(row.Get<double>(2));
  const auto newest = static_cast<SimTime>(row.Get<double>(3));
  // Result latency: delivery minus the newest contributing emit time.
  st->latency.Record(ctx.clock->now() - newest);
  ++st->rows;
  const uint64_t window = group >> kWindowKeyBits;
  const uint64_t key = group & ((uint64_t{1} << kWindowKeyBits) - 1);
  if (window >= windows_ || key >= kPipeKeys) {
    ++st->bad_rows;
    return;
  }
  const size_t index = Index(window, key);
  const Group& want = reference_[index];
  if (st->seen[index]++ != 0 || want.count != count || want.sum != sum) {
    ++st->bad_rows;
  }
}

void PipelineSkew::Rep(RepTrace* trace, RepResult* out) {
  out->StartSetup();
  net::Fabric fabric;
  const std::vector<std::string> addrs = AddNodes(&fabric, kPipeNodes);
  DfiRuntime dfi(&fabric);
  std::vector<ActorProbe*> ingest;
  for (uint32_t w = 0; w < kIngestWorkers; ++w) {
    ingest.push_back(trace->NewActor("ingest." + std::to_string(w)));
  }
  std::vector<SubscriberState> subscribers(kSubscribers);
  for (SubscriberState& s : subscribers) s.seen.assign(reference_.size(), 0);

  const std::unique_ptr<graph::GraphRun> run =
      RunGraph(Spec(addrs, ingest, &subscribers), &dfi, trace, out);
  if (run == nullptr) return;

  const uint64_t ingested = tuples_ * kIngestWorkers;
  for (uint32_t s = 0; s < kSubscribers; ++s) {
    const SubscriberState& st = subscribers[s];
    Expect(st.bad_rows == 0 && st.rows == groups_,
           "subscriber " + std::to_string(s) + " saw " +
               std::to_string(st.rows) + " rows (" +
               std::to_string(st.bad_rows) + " wrong) of " +
               std::to_string(groups_) + " reference groups",
           out);
    out->latency.Merge(st.latency);
  }
  Expect(run->stats("ingest").tuples_out == ingested &&
             run->stats("window").tuples_out == ingested,
         "window did not re-emit every ingested tuple", out);
  out->completion = run->stats("subscribers").max_clock;
  out->useful_bytes =
      static_cast<double>(ingested) * static_cast<double>(sizeof(IngestTuple));
  RecordVertex(*run, "ingest", false, out);
  RecordVertex(*run, "window", false, out);
  RecordVertex(*run, "aggregate", false, out);
  RecordVertex(*run, "subscribers", true, out);
  RecordNetLayer(fabric, out->completion, out->useful_bytes, out);
  RecordRegistryLayer(dfi, out);
}

// ---------------------------------------------------------------------------
// radix_join
// ---------------------------------------------------------------------------

constexpr uint32_t kJoinNodes = 4;
constexpr uint32_t kJoinPerNode = 2;
constexpr uint32_t kJoinWorkers = kJoinNodes * kJoinPerNode;
constexpr uint32_t kJoinRadixBits = 3;  // 2^3 = kJoinWorkers targets
/// Per relation. Larger relations outgrow the caches: each doubling beyond
/// this costs 1.35x more host time per tuple, about doubles the run-to-run
/// spread of host time on a shared machine, and at 2^21 or 2^22 makes the
/// virtual results jump between seeds (see README.md).
constexpr uint64_t kJoinTuples = uint64_t{1} << 20;
/// Every this-many-th scanned tuple carries a recorded emit time.
constexpr uint64_t kJoinSampleEvery = 8;

Schema JoinSchema() {
  return Schema{{"key", DataType::kUInt64}, {"payload", DataType::kUInt64}};
}

/// One relation and the emit times of its sampled tuples, per scan worker.
struct Relation {
  std::vector<bench::JoinTuple> tuples;
  std::vector<std::vector<SimTime>> emit_ns;

  uint64_t begin(uint32_t w) const { return tuples.size() * w / kJoinWorkers; }
  uint64_t end(uint32_t w) const { return begin(w + 1); }
};

class RadixJoin : public Workload {
 public:
  RadixJoin(uint64_t seed, bool smoke) {
    const uint64_t n = smoke ? kJoinTuples / 64 : kJoinTuples;
    inner_.tuples = bench::GeneratePrimaryKeyRelation(n, SplitMix64(seed));
    outer_.tuples =
        bench::GenerateForeignKeyRelation(n, n, SplitMix64(seed + 1));
    for (Relation* rel : {&inner_, &outer_}) {
      rel->emit_ns.resize(kJoinWorkers);
      for (uint32_t w = 0; w < kJoinWorkers; ++w) {
        rel->emit_ns[w].resize((rel->end(w) - rel->begin(w) +
                                kJoinSampleEvery - 1) /
                               kJoinSampleEvery);
      }
    }
    std::vector<uint32_t> multiplicity(n, 0);
    for (const bench::JoinTuple& t : inner_.tuples) ++multiplicity[t.key];
    for (const bench::JoinTuple& t : outer_.tuples) {
      expected_matches_ += t.key < n ? multiplicity[t.key] : 0;
    }
  }

  void Rep(RepTrace* trace, RepResult* out) override;

 private:
  graph::SourceFn Scan(Relation* rel, std::vector<ActorProbe*> probes,
                       const char* name);

  Relation inner_;  // dense primary keys, shuffled
  Relation outer_;  // uniform foreign keys into the inner key range
  uint64_t expected_matches_ = 0;
};

graph::SourceFn RadixJoin::Scan(Relation* rel, std::vector<ActorProbe*> probes,
                                const char* name) {
  return [rel, probes, name](graph::OpContext& ctx,
                             const graph::EmitFn& emit) {
    ActorProbe* probe = probes[ctx.worker];
    probe->BeginBody(name, ctx.clock);
    std::vector<SimTime>& emit_ns = rel->emit_ns[ctx.worker];
    const uint64_t begin = rel->begin(ctx.worker);
    Status status;
    for (uint64_t i = begin; i < rel->end(ctx.worker) && status.ok(); ++i) {
      if ((i - begin) % kJoinSampleEvery == 0) {
        emit_ns[(i - begin) / kJoinSampleEvery] = ctx.clock->now();
      }
      status = probe->Call(Site::kEmit, ctx.clock, "emit", kEmitSpanEvery,
                           [&] { return emit(&rel->tuples[i]); });
    }
    probe->EndBody(ctx.clock);
    return status;
  };
}

void RadixJoin::Rep(RepTrace* trace, RepResult* out) {
  out->StartSetup();
  net::Fabric fabric;
  const std::vector<std::string> addrs = AddNodes(&fabric, kJoinNodes);
  DfiRuntime dfi(&fabric);
  const DfiNodes grid = DfiNodes::GridOf(addrs, kJoinPerNode);
  std::vector<ActorProbe*> inner_probes, outer_probes;
  for (uint32_t w = 0; w < kJoinWorkers; ++w) {
    inner_probes.push_back(trace->NewActor("inner_scan." + std::to_string(w)));
  }
  for (uint32_t w = 0; w < kJoinWorkers; ++w) {
    outer_probes.push_back(trace->NewActor("outer_scan." + std::to_string(w)));
  }

  graph::GraphSpec gs;
  gs.name = "bench.join";
  graph::VertexSpec inner;
  inner.name = "inner_scan";
  inner.kind = graph::OpKind::kSource;
  inner.workers = grid;
  inner.output = {JoinSchema(), Ordering::kNone};
  inner.source_fn = Scan(&inner_, inner_probes, "inner_scan");
  graph::VertexSpec outer = inner;
  outer.name = "outer_scan";
  outer.source_fn = Scan(&outer_, outer_probes, "outer_scan");
  graph::VertexSpec join;
  join.name = "join";
  join.kind = graph::OpKind::kJoin;
  join.workers = grid;
  join.join = {.key_field = 0, .payload_field = 1, .local_radix_bits = 6};
  gs.vertices = {std::move(inner), std::move(outer), std::move(join)};
  // In-edge order is the join's build (0) and probe (1) side.
  for (const char* from : {"inner_scan", "outer_scan"}) {
    graph::EdgeSpec edge;
    edge.name = std::string("bench.join.") + from;
    edge.from = from;
    edge.to = "join";
    edge.kind = graph::EdgeKind::kShuffle;
    edge.type = {JoinSchema(), Ordering::kNone};
    edge.routing = RadixRouting(0, 0, kJoinRadixBits);
    gs.edges.push_back(std::move(edge));
  }

  const std::unique_ptr<graph::GraphRun> run =
      RunGraph(std::move(gs), &dfi, trace, out);
  if (run == nullptr) return;

  const graph::GraphRun::VertexStats st = run->stats("join");
  const uint64_t scanned = inner_.tuples.size() + outer_.tuples.size();
  Expect(st.join_matches == expected_matches_,
         "join matches " + std::to_string(st.join_matches) + " vs reference " +
             std::to_string(expected_matches_),
         out);
  Expect(st.tuples_in == scanned, "join consumed " +
                                      std::to_string(st.tuples_in) + " of " +
                                      std::to_string(scanned) + " tuples",
         out);
  // The join's result (its match count) is delivered when the last join
  // worker finishes; every scanned tuple contributes to it.
  out->completion = st.max_clock;
  for (const Relation* rel : {&inner_, &outer_}) {
    for (const std::vector<SimTime>& per_worker : rel->emit_ns) {
      for (SimTime t : per_worker) out->latency.Record(out->completion - t);
    }
  }
  out->useful_bytes =
      static_cast<double>(scanned) * static_cast<double>(sizeof(bench::JoinTuple));
  RecordVertex(*run, "inner_scan", false, out);
  RecordVertex(*run, "outer_scan", false, out);
  RecordVertex(*run, "join", true, out);
  RecordNetLayer(fabric, out->completion, out->useful_bytes, out);
  RecordRegistryLayer(dfi, out);
}

}  // namespace

std::unique_ptr<Workload> MakePipelineSkew(uint64_t seed, bool smoke) {
  return std::make_unique<PipelineSkew>(seed, smoke);
}

std::unique_ptr<Workload> MakeRadixJoin(uint64_t seed, bool smoke) {
  return std::make_unique<RadixJoin>(seed, smoke);
}

}  // namespace dfi::benchmark
