#include "core/graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/exec/engine.h"
#include "common/radix_join_table.h"
#include "core/dfi.h"
#include "core/graph/executor.h"

namespace dfi::graph {
namespace {

Schema TwoFieldSchema() {
  return Schema{{"key", DataType::kUInt64}, {"val", DataType::kUInt64}};
}

/// What a default kWindow derives from TwoFieldSchema: the fused window
/// key appended as "wkey".
Schema WindowedSchema() {
  return Schema{{"key", DataType::kUInt64},
                {"val", DataType::kUInt64},
                {"wkey", DataType::kUInt64}};
}

std::vector<std::string> MakeCluster(net::Fabric* fabric, size_t n) {
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric->AddNodes(n)) {
    addrs.push_back(fabric->node(id).address());
  }
  return addrs;
}

/// First diagnostic with `code`, or nullptr.
const Diagnostic* FindDiag(const std::vector<Diagnostic>& diags,
                           DiagCode code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

VertexSpec Source(const std::string& name, const DfiNodes& workers) {
  VertexSpec v;
  v.name = name;
  v.kind = OpKind::kSource;
  v.workers = workers;
  v.output = {TwoFieldSchema(), Ordering::kNone};
  v.source_fn = [](OpContext&, const EmitFn& emit) -> Status {
    const uint64_t tuple[2] = {1, 1};
    return emit(tuple);
  };
  return v;
}

VertexSpec Sink(const std::string& name, const DfiNodes& workers) {
  VertexSpec v;
  v.name = name;
  v.kind = OpKind::kSink;
  v.workers = workers;
  v.tuple_sink = [](OpContext&, TupleView) { return Status::OK(); };
  return v;
}

EdgeSpec Shuffle(const std::string& name, const std::string& from,
                 const std::string& to) {
  EdgeSpec e;
  e.name = name;
  e.from = from;
  e.to = to;
  e.kind = EdgeKind::kShuffle;
  e.type = {TwoFieldSchema(), Ordering::kNone};
  return e;
}

class GraphBuildTest : public ::testing::Test {
 protected:
  GraphBuildTest() : addrs_(MakeCluster(&fabric_, 2)) {
    workers_ = DfiNodes::GridOf(addrs_, 2);
  }

  /// A well-typed source -> sink graph the tests then break one way each.
  GraphSpec BaseSpec() {
    GraphSpec gs;
    gs.name = "g";
    gs.vertices = {Source("src", workers_), Sink("snk", workers_)};
    gs.edges = {Shuffle("g.edge", "src", "snk")};
    return gs;
  }

  net::Fabric fabric_;
  std::vector<std::string> addrs_;
  DfiNodes workers_;
};

TEST_F(GraphBuildTest, WellTypedGraphBuilds) {
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(BaseSpec(), &fabric_, &diags);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(diags.empty());
  // Static shuffle delivers per-channel FIFO end to end.
  EXPECT_EQ(g->edge_info(0).delivered, Ordering::kPerChannel);
  EXPECT_EQ(g->FindVertex("snk"), 1);
  EXPECT_EQ(g->FindEdge("g.edge"), 0);
  EXPECT_EQ(g->vertex_info(0).produced.num_fields(), 2u);
}

TEST_F(GraphBuildTest, SchemaMismatchNamesVertexAndEdge) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].type.schema = Schema{{"key", DataType::kUInt64},
                                   {"payload", DataType::kUInt64}};
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  const Diagnostic* d = FindDiag(diags, DiagCode::kSchemaMismatch);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "src");
  EXPECT_EQ(d->edge, "g.edge");
  EXPECT_NE(d->message.find("'val'"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("'payload'"), std::string::npos) << d->message;
}

TEST_F(GraphBuildTest, OrderedEdgeWithoutSequencerRejected) {
  // A replicate edge can only promise one total order via the OUM
  // sequencer (multicast + global_ordering); requiring kGlobal without it
  // must fail with the reason spelled out.
  GraphSpec gs = BaseSpec();
  gs.edges[0].kind = EdgeKind::kReplicate;
  gs.edges[0].type.ordering = Ordering::kGlobal;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kOrderingUnsatisfied);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->edge, "g.edge");
  EXPECT_NE(d->message.find("sequencer"), std::string::npos) << d->message;
}

TEST_F(GraphBuildTest, OrderedEdgeWithSequencerAccepted) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].kind = EdgeKind::kReplicate;
  gs.edges[0].type.ordering = Ordering::kGlobal;
  gs.edges[0].options.use_multicast = true;
  gs.edges[0].options.global_ordering = true;
  auto g = Graph::Build(std::move(gs), &fabric_);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->edge_info(0).delivered, Ordering::kGlobal);
}

TEST_F(GraphBuildTest, AdaptiveOnNonKeyHashRoutingRejected) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].options.adaptive.enabled = true;
  gs.edges[0].routing = RoutingSpec::Radix(0, 0, 4);
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  const Diagnostic* d = FindDiag(diags, DiagCode::kAdaptiveRouting);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "src");
  EXPECT_EQ(d->edge, "g.edge");
}

TEST_F(GraphBuildTest, AdaptiveEdgeCannotPromisePerChannelOrder) {
  // Adaptive re-splitting breaks per-(source, key) FIFO; requiring
  // kPerChannel must name the reason.
  GraphSpec gs = BaseSpec();
  gs.edges[0].options.adaptive.enabled = true;
  gs.edges[0].type.ordering = Ordering::kPerChannel;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  const Diagnostic* d = FindDiag(diags, DiagCode::kOrderingUnsatisfied);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->edge, "g.edge");
  EXPECT_NE(d->message.find("adaptive re-splitting"), std::string::npos)
      << d->message;
}

TEST_F(GraphBuildTest, CombinerSpanningNodesRejected) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].kind = EdgeKind::kCombiner;
  gs.edges[0].aggregates = {{AggFunc::kSum, 1}};
  gs.vertices[1].kind = OpKind::kAggregate;  // combiner in edge, no out
  std::vector<Diagnostic> diags;
  // The sink ("snk") spans both fabric nodes; the combiner is N:1.
  auto g = Graph::Build(gs, &fabric_, &diags);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  const Diagnostic* d = FindDiag(diags, DiagCode::kCombinerTopology);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "snk");
  EXPECT_EQ(d->edge, "g.edge");
  // A single-node placement is accepted.
  gs.vertices[1].workers = DfiNodes::GridOf({addrs_[0]}, 2);
  EXPECT_TRUE(Graph::Build(std::move(gs), &fabric_).ok());
}

TEST_F(GraphBuildTest, CombinerWithoutAggregatesRejected) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].kind = EdgeKind::kCombiner;
  gs.vertices[1].kind = OpKind::kAggregate;
  gs.vertices[1].workers = DfiNodes::GridOf({addrs_[0]}, 2);
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(FindDiag(diags, DiagCode::kNoAggregates), nullptr) << g.status();
}

TEST_F(GraphBuildTest, ShuffleKeyOutOfRangeRejected) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].key_index = 7;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kKeyOutOfRange);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->edge, "g.edge");
}

TEST_F(GraphBuildTest, UnknownVertexNamed) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].to = "nowhere";
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kUnknownVertex);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "nowhere");
  EXPECT_EQ(d->edge, "g.edge");
}

TEST_F(GraphBuildTest, DuplicateNamesRejected) {
  GraphSpec gs = BaseSpec();
  gs.vertices.push_back(Source("src", workers_));
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kDuplicateName);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "src");
}

TEST_F(GraphBuildTest, ArityViolationNamed) {
  // A source with two out edges.
  GraphSpec gs = BaseSpec();
  gs.vertices.push_back(Sink("snk2", workers_));
  gs.edges.push_back(Shuffle("g.edge2", "src", "snk2"));
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kArity);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "src");
}

TEST_F(GraphBuildTest, MissingBodyNamed) {
  GraphSpec gs = BaseSpec();
  gs.vertices[1].tuple_sink = nullptr;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kMissingBody);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "snk");
}

TEST_F(GraphBuildTest, CycleDetected) {
  // Two windows feeding each other: every arity holds, so the cycle is
  // the one finding.
  GraphSpec gs;
  gs.name = "loop";
  VertexSpec a;
  a.name = "a";
  a.kind = OpKind::kWindow;
  a.workers = workers_;
  VertexSpec b = a;
  b.name = "b";
  gs.vertices = {a, b};
  gs.edges = {Shuffle("ab", "a", "b"), Shuffle("ba", "b", "a")};
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(FindDiag(diags, DiagCode::kCycle), nullptr) << g.status();
  EXPECT_EQ(FindDiag(diags, DiagCode::kArity), nullptr) << g.status();
}

TEST_F(GraphBuildTest, OrderingComposesAcrossStages) {
  // src -> (combiner) -> agg -> (replicate requiring kPerChannel): the
  // combiner edge erases all order upstream of the aggregate, so even
  // though a naive replicate transport delivers per-channel FIFO on its
  // own, the composed guarantee is kNone and the requirement must fail.
  GraphSpec gs;
  gs.name = "chain";
  gs.vertices = {Source("src", workers_)};
  VertexSpec agg;
  agg.name = "agg";
  agg.kind = OpKind::kAggregate;
  agg.workers = DfiNodes::GridOf({addrs_[0]}, 2);
  gs.vertices.push_back(std::move(agg));
  gs.vertices.push_back(Sink("snk", workers_));
  EdgeSpec fold = Shuffle("chain.fold", "src", "agg");
  fold.kind = EdgeKind::kCombiner;
  fold.aggregates = {{AggFunc::kSum, 1}};
  EdgeSpec fan = Shuffle("chain.fan", "agg", "snk");
  fan.kind = EdgeKind::kReplicate;
  fan.type.schema = Schema{{"group", DataType::kUInt64},
                           {"a0", DataType::kDouble}};
  fan.type.ordering = Ordering::kPerChannel;
  gs.edges = {std::move(fold), std::move(fan)};

  std::vector<Diagnostic> diags;
  auto g = Graph::Build(gs, &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kOrderingUnsatisfied);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->edge, "chain.fan");
  // Dropping the requirement builds, and the resolved info shows why: the
  // aggregate's input ordering is kNone (combiner), which caps the
  // replicate edge's delivered ordering.
  gs.edges[1].type.ordering = Ordering::kNone;
  auto ok = Graph::Build(std::move(gs), &fabric_);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->vertex_info(ok->FindVertex("agg")).input_ordering,
            Ordering::kNone);
  EXPECT_EQ(ok->edge_info(ok->FindEdge("chain.fan")).delivered,
            Ordering::kNone);
}

TEST_F(GraphBuildTest, AggregateDerivesRowSchema) {
  GraphSpec gs;
  gs.name = "rows";
  gs.vertices = {Source("src", workers_)};
  VertexSpec agg;
  agg.name = "agg";
  agg.kind = OpKind::kAggregate;
  agg.workers = DfiNodes::GridOf({addrs_[0]}, 1);
  gs.vertices.push_back(std::move(agg));
  EdgeSpec fold = Shuffle("rows.fold", "src", "agg");
  fold.kind = EdgeKind::kCombiner;
  fold.aggregates = {{AggFunc::kCount, 0}, {AggFunc::kSum, 1}};
  gs.edges = {std::move(fold)};
  auto g = Graph::Build(std::move(gs), &fabric_);
  ASSERT_TRUE(g.ok()) << g.status();
  const Schema& rows = g->vertex_info(g->FindVertex("agg")).produced;
  ASSERT_EQ(rows.num_fields(), 3u);
  EXPECT_EQ(rows.field(0).name, "group");
  EXPECT_EQ(rows.field(1).name, "a0");
  EXPECT_EQ(rows.field(2).type, DataType::kDouble);
}

TEST_F(GraphBuildTest, WindowKeyOutOfRangeNamed) {
  GraphSpec gs = BaseSpec();
  VertexSpec win;
  win.name = "win";
  win.kind = OpKind::kWindow;
  win.workers = workers_;
  win.window.seq_field = 9;
  gs.vertices.push_back(std::move(win));
  gs.edges[0].to = "win";
  gs.edges.push_back(Shuffle("g.out", "win", "snk"));
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kKeyOutOfRange);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "win");
}

/// A source -> window -> sink graph with `window` as the window spec.
GraphSpec WindowSpec(const DfiNodes& workers, const WindowOpSpec& window) {
  GraphSpec gs;
  gs.name = "w";
  VertexSpec win;
  win.name = "win";
  win.kind = OpKind::kWindow;
  win.workers = workers;
  win.window = window;
  VertexSpec snk = Sink("snk", workers);
  gs.vertices = {Source("src", workers), std::move(win), std::move(snk)};
  EdgeSpec out = Shuffle("w.out", "win", "snk");
  out.type.schema = WindowedSchema();
  gs.edges = {Shuffle("w.in", "src", "win"), std::move(out)};
  return gs;
}

TEST_F(GraphBuildTest, WindowParametersTheRunCannotUseRejected) {
  // window_size 0 would divide by zero in every window worker, one above
  // 2^32 - 1 does not fit the 32-bit divisor the operator precomputes, and
  // a 64-bit key shift is undefined (x86 keeps the key and drops the id).
  struct Case {
    uint64_t window_size;
    uint32_t key_bits;
    const char* names;
  };
  const WindowOpSpec defaults;
  const Case cases[] = {
      {0, defaults.key_bits, "window_size"},
      {uint64_t{UINT32_MAX} + 1, defaults.key_bits, "window_size"},
      {defaults.window_size, 64, "key_bits"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "window_size " << c.window_size
                                    << " key_bits " << c.key_bits);
    WindowOpSpec window;
    window.window_size = c.window_size;
    window.key_bits = c.key_bits;
    std::vector<Diagnostic> diags;
    auto g = Graph::Build(WindowSpec(workers_, window), &fabric_, &diags);
    ASSERT_FALSE(g.ok());
    const Diagnostic* d = FindDiag(diags, DiagCode::kParamOutOfRange);
    ASSERT_NE(d, nullptr) << g.status();
    EXPECT_EQ(d->vertex, "win");
    EXPECT_NE(d->message.find(c.names), std::string::npos) << d->message;
  }
  for (const uint64_t window_size : {uint64_t{1}, uint64_t{UINT32_MAX}}) {
    WindowOpSpec widest;
    widest.window_size = window_size;
    widest.key_bits = 63;
    EXPECT_TRUE(Graph::Build(WindowSpec(workers_, widest), &fabric_).ok())
        << "window_size " << window_size;
  }
}

/// Build (edge 0) and probe (edge 1) scans of `build_keys`/`probe_keys`
/// into a kJoin vertex, every vertex on 2 nodes x 2 workers.
GraphSpec JoinSpec(const DfiNodes& workers, std::vector<uint64_t> build_keys,
                   std::vector<uint64_t> probe_keys,
                   uint32_t local_radix_bits) {
  auto scan = [&workers](const std::string& name,
                         std::vector<uint64_t> keys) {
    VertexSpec v = Source(name, workers);
    v.source_fn = [keys = std::move(keys)](OpContext& ctx,
                                           const EmitFn& emit) -> Status {
      for (size_t i = ctx.worker; i < keys.size(); i += ctx.num_workers) {
        const uint64_t tuple[2] = {keys[i], i};
        DFI_RETURN_IF_ERROR(emit(tuple));
      }
      return Status::OK();
    };
    return v;
  };
  GraphSpec gs;
  gs.name = "rj";
  VertexSpec join;
  join.name = "join";
  join.kind = OpKind::kJoin;
  join.workers = workers;
  join.join.local_radix_bits = local_radix_bits;
  gs.vertices = {scan("build", std::move(build_keys)),
                 scan("probe", std::move(probe_keys)), std::move(join)};
  gs.edges = {Shuffle("rj.build", "build", "join"),
              Shuffle("rj.probe", "probe", "join")};
  return gs;
}

TEST_F(GraphBuildTest, JoinRadixBitsAbove16Rejected) {
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(JoinSpec(workers_, {1}, {1}, 17), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kParamOutOfRange);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "join");
  EXPECT_NE(d->message.find("local_radix_bits 17"), std::string::npos)
      << d->message;
  EXPECT_TRUE(Graph::Build(JoinSpec(workers_, {1}, {1}, 16), &fabric_).ok());
}

TEST_F(GraphBuildTest, JoinKeyFieldOutOfRangeRejected) {
  GraphSpec gs = JoinSpec(workers_, {1}, {1}, 6);
  gs.vertices[2].join.key_field = 2;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kKeyOutOfRange);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "join");
  EXPECT_EQ(d->edge, "rj.build");
}

TEST(GraphRunTest, SourceWindowSinkDeliversEverything) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(addrs, 2);
  constexpr uint64_t kPerSource = 512;

  GraphSpec gs;
  gs.name = "e2e";
  VertexSpec src;
  src.name = "src";
  src.kind = OpKind::kSource;
  src.workers = workers;
  src.output = {TwoFieldSchema(), Ordering::kNone};
  src.source_fn = [&](OpContext& ctx, const EmitFn& emit) -> Status {
    for (uint64_t i = 0; i < kPerSource; ++i) {
      const uint64_t tuple[2] = {ctx.worker * kPerSource + i, 1};
      DFI_RETURN_IF_ERROR(emit(tuple));
    }
    return Status::OK();
  };
  // One window per source worker, no key bits: wkey is the worker index.
  VertexSpec win;
  win.name = "win";
  win.kind = OpKind::kWindow;
  win.workers = workers;
  win.window.seq_field = 0;
  win.window.key_field = 1;
  win.window.window_size = kPerSource;
  win.window.key_bits = 0;
  uint64_t val_sum = 0;
  uint64_t wkey_sum = 0;
  VertexSpec snk;
  snk.name = "snk";
  snk.kind = OpKind::kSink;
  snk.workers = workers;
  snk.tuple_sink = [&](OpContext&, TupleView t) {
    val_sum += t.Get<uint64_t>(1);
    wkey_sum += t.Get<uint64_t>(2);
    return Status::OK();
  };
  gs.vertices = {std::move(src), std::move(win), std::move(snk)};
  EdgeSpec out = Shuffle("e2e.out", "win", "snk");
  out.type.schema = WindowedSchema();
  gs.edges = {Shuffle("e2e.in", "src", "win"), std::move(out)};

  auto g = Graph::Build(std::move(gs), &dfi.fabric());
  ASSERT_TRUE(g.ok()) << g.status();
  auto run = g->Instantiate(&dfi);
  ASSERT_TRUE(run.ok()) << run.status();
  // The operators run as actors of the engine task that starts the graph.
  exec::Engine engine;
  engine.Spawn(0, "driver", [&] {
    ASSERT_TRUE((*run)->Start().ok());
    ASSERT_TRUE((*run)->Finish().ok()) << (*run)->status();
  });
  engine.Run();

  const uint64_t total = 4 * kPerSource;  // 4 source workers
  EXPECT_EQ((*run)->stats("src").tuples_out, total);
  EXPECT_EQ((*run)->stats("win").tuples_in, total);
  EXPECT_EQ((*run)->stats("win").tuples_out, total);
  EXPECT_EQ((*run)->stats("snk").tuples_in, total);
  EXPECT_EQ(val_sum, total);
  EXPECT_EQ(wkey_sum, (0 + 1 + 2 + 3) * kPerSource);
  EXPECT_GT((*run)->stats("snk").max_clock, 0);
}

TEST(GraphRunTest, InstantiateRegistersAndFinishRemovesFlows) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(addrs, 1);
  GraphSpec gs;
  gs.name = "reg";
  VertexSpec src = [&] {
    VertexSpec v;
    v.name = "src";
    v.kind = OpKind::kSource;
    v.workers = workers;
    v.output = {TwoFieldSchema(), Ordering::kNone};
    v.source_fn = [](OpContext&, const EmitFn&) { return Status::OK(); };
    return v;
  }();
  VertexSpec snk = [&] {
    VertexSpec v;
    v.name = "snk";
    v.kind = OpKind::kSink;
    v.workers = workers;
    v.tuple_sink = [](OpContext&, TupleView) { return Status::OK(); };
    return v;
  }();
  gs.vertices = {std::move(src), std::move(snk)};
  gs.edges = {Shuffle("reg.flow", "src", "snk")};
  auto g = Graph::Build(std::move(gs), &dfi.fabric());
  ASSERT_TRUE(g.ok()) << g.status();
  auto run = g->Instantiate(&dfi);
  ASSERT_TRUE(run.ok()) << run.status();
  // The batched publish made the flow retrievable while the run is live.
  EXPECT_TRUE(dfi.registry_client().Retrieve("reg.flow").ok());
  exec::Engine engine;
  engine.Spawn(0, "driver", [&] {
    ASSERT_TRUE((*run)->Start().ok());
    EXPECT_TRUE((*run)->Finish().ok());
  });
  engine.Run();
  EXPECT_FALSE(dfi.registry_client().Retrieve("reg.flow").ok());
}

TEST(GraphRunTest, NameCollisionRollsBackEveryPublishedEdge) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(addrs, 1);
  auto window = [&](const std::string& name, const std::string& out_field) {
    VertexSpec v;
    v.name = name;
    v.kind = OpKind::kWindow;
    v.workers = workers;
    v.window.out_field = out_field;
    return v;
  };
  GraphSpec gs;
  gs.name = "clash";
  gs.vertices = {Source("src", workers), window("t1", "wkey"),
                 window("t2", "wkey2"), Sink("snk", workers)};
  EdgeSpec b = Shuffle("clash.b", "t1", "t2");
  b.type.schema = WindowedSchema();
  EdgeSpec c = Shuffle("clash.c", "t2", "snk");
  c.type.schema = Schema{{"key", DataType::kUInt64},
                         {"val", DataType::kUInt64},
                         {"wkey", DataType::kUInt64},
                         {"wkey2", DataType::kUInt64}};
  gs.edges = {Shuffle("clash.a", "src", "t1"), std::move(b), std::move(c)};
  auto g = Graph::Build(std::move(gs), &dfi.fabric());
  ASSERT_TRUE(g.ok()) << g.status();

  // Another flow already holds the middle edge's name.
  reg::RegistryClient& registry = dfi.registry_client();
  const auto other = std::make_shared<FlowStateBase>();
  ASSERT_TRUE(registry.Publish("clash.b", other).ok());
  auto run = g->Instantiate(&dfi);
  EXPECT_EQ(run.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Retrieve("clash.a").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Retrieve("clash.c").status().code(),
            StatusCode::kNotFound);
  auto held = registry.Retrieve("clash.b");
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(*held, other);

  // Once that flow is closed, the same graph instantiates and runs.
  ASSERT_TRUE(registry.Close("clash.b").ok());
  run = g->Instantiate(&dfi);
  ASSERT_TRUE(run.ok()) << run.status();
  exec::Engine engine;
  engine.Spawn(0, "driver", [&] {
    ASSERT_TRUE((*run)->Start().ok());
    EXPECT_TRUE((*run)->Finish().ok()) << (*run)->status();
  });
  engine.Run();
  EXPECT_EQ((*run)->stats("snk").tuples_in, 2u);  // one per source worker
}

/// Runs the graph `make_spec` returns for 2 nodes x 2 workers to
/// completion on a fabric costed by `sim`, and returns the stats of vertex
/// `vertex`.
StatusOr<GraphRun::VertexStats> RunToEnd(
    const std::function<GraphSpec(const DfiNodes&)>& make_spec,
    const std::string& vertex, const net::SimConfig& sim = net::SimConfig()) {
  net::Fabric fabric(sim);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(MakeCluster(&fabric, 2), 2);
  DFI_ASSIGN_OR_RETURN(Graph g,
                       Graph::Build(make_spec(workers), &dfi.fabric()));
  DFI_ASSIGN_OR_RETURN(std::unique_ptr<GraphRun> run, g.Instantiate(&dfi));
  Status status;
  exec::Engine engine;
  engine.Spawn(0, "root", [&] {
    status = run->Start();
    if (status.ok()) status = run->Finish();
  });
  engine.Run();
  DFI_RETURN_IF_ERROR(status);
  return run->stats(vertex);
}

/// The join's match count by brute force: each probe key matches every
/// build tuple with its key.
uint64_t ReferenceMatches(const std::vector<uint64_t>& build_keys,
                          const std::vector<uint64_t>& probe_keys) {
  std::unordered_map<uint64_t, uint64_t> multiplicity;
  for (uint64_t k : build_keys) ++multiplicity[k];
  uint64_t matches = 0;
  for (uint64_t k : probe_keys) {
    const auto it = multiplicity.find(k);
    if (it != multiplicity.end()) matches += it->second;
  }
  return matches;
}

TEST(GraphRunTest, JoinCountsBuildKeyMultiplicities) {
  // Build keys repeat (key k appears k % 4 + 1 times, the copies spread
  // over the build workers), include 0 and 2^64-1, and 300 of them share
  // both the join worker (key-hash routing over 4 workers) and all 12
  // local partition bits, so one partition holds them all. Each key is
  // probed twice, next to a probe of an absent key. The match count is
  // the reference's at every local_radix_bits, and the charges, hence the
  // join's finish time, do not depend on it.
  std::vector<uint64_t> keys = {0, ~uint64_t{0}};
  for (uint64_t k = 1; keys.size() < 302; ++k) {
    const uint64_t h = HashU64(k);
    if (h % 4 == 0 && LocalBucket(h, 12) == 0) keys.push_back(k);
  }
  // Odd multiplier: i * kMul is distinct for distinct i, so keys from
  // [1, 3000) never collide with the absent ones from [3000, 6000).
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15;
  for (uint64_t i = 1; i < 3000; ++i) keys.push_back(i * kMul);
  std::vector<uint64_t> build_keys, probe_keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint64_t copy = 0; copy <= keys[i] % 4; ++copy) {
      build_keys.push_back(keys[i]);
    }
    probe_keys.insert(probe_keys.end(),
                      {keys[i], (3000 + i) * kMul, keys[i]});
  }
  const uint64_t expected = ReferenceMatches(build_keys, probe_keys);
  ASSERT_GE(expected, 2 * keys.size());

  std::optional<SimTime> finish;
  for (const uint32_t bits : {0u, 1u, 6u, 12u}) {
    SCOPED_TRACE(testing::Message() << "local_radix_bits " << bits);
    auto stats = RunToEnd(
        [&](const DfiNodes& workers) {
          return JoinSpec(workers, build_keys, probe_keys, bits);
        },
        "join");
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->join_matches, expected);
    EXPECT_EQ(stats->tuples_in, build_keys.size() + probe_keys.size());
    if (!finish.has_value()) finish = stats->max_clock;
    EXPECT_EQ(stats->max_clock, *finish);
  }
}

TEST(GraphRunTest, JoinChargesSimConfigCosts) {
  // The join reads its costs from the fabric's SimConfig. One join worker
  // receives every tuple and, once the first segment arrives, never waits
  // for another, so raising the build and probe costs delays its finish by
  // exactly the extra charge.
  std::vector<uint64_t> build_keys, probe_keys;
  for (uint64_t k = 0; k < 20000; ++k) build_keys.push_back(k);
  for (uint64_t k = 0; k < 30000; ++k) probe_keys.push_back(3 * k);
  auto one_worker_join = [&](const DfiNodes& workers) {
    GraphSpec gs = JoinSpec(workers, build_keys, probe_keys, 6);
    gs.vertices[2].workers = DfiNodes(std::vector<Endpoint>{workers[0]});
    return gs;
  };
  auto base = RunToEnd(one_worker_join, "join");
  ASSERT_TRUE(base.ok()) << base.status();
  net::SimConfig sim;
  sim.join_build_ns += 7;
  sim.join_probe_ns += 3;
  auto raised = RunToEnd(one_worker_join, "join", sim);
  ASSERT_TRUE(raised.ok()) << raised.status();
  EXPECT_EQ(raised->join_matches, base->join_matches);
  EXPECT_EQ(raised->max_clock - base->max_clock,
            static_cast<SimTime>(build_keys.size() * 7 +
                                 probe_keys.size() * 3));
}

TEST(GraphRunTest, JoinWithAnEmptySideMatchesNothing) {
  const std::vector<uint64_t> keys = {0, 7, 7, ~uint64_t{0}};
  for (const uint32_t bits : {0u, 6u}) {
    for (const bool empty_build : {true, false}) {
      SCOPED_TRACE(testing::Message() << "local_radix_bits " << bits
                                      << " empty build " << empty_build);
      const std::vector<uint64_t> none;
      auto stats = RunToEnd(
          [&](const DfiNodes& workers) {
            return JoinSpec(workers, empty_build ? none : keys,
                            empty_build ? keys : none, bits);
          },
          "join");
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(stats->join_matches, 0u);
      EXPECT_EQ(stats->tuples_in, keys.size());
    }
  }
}

TEST(GraphRunTest, WindowAppendsFusedWindowKey) {
  // wkey = (seq / window_size) << key_bits | (key & mask) for every tuple,
  // at a power-of-two window size (a shift) and at others (a multiply).
  constexpr uint64_t kTuples = 1000;
  for (const uint64_t window_size : {64u, 100u, 1u}) {
    SCOPED_TRACE(testing::Message() << "window_size " << window_size);
    WindowOpSpec window;
    window.seq_field = 1;
    window.key_field = 0;
    window.window_size = window_size;
    window.key_bits = 4;
    uint64_t checked = 0;
    auto make_spec = [&](const DfiNodes& workers) {
      GraphSpec gs = WindowSpec(workers, window);
      gs.vertices[0].source_fn = [](OpContext& ctx,
                                    const EmitFn& emit) -> Status {
        for (uint64_t seq = ctx.worker; seq < kTuples;
             seq += ctx.num_workers) {
          const uint64_t tuple[2] = {seq * 7919, seq};
          DFI_RETURN_IF_ERROR(emit(tuple));
        }
        return Status::OK();
      };
      gs.vertices[2].tuple_sink = [&](OpContext&, TupleView t) {
        const uint64_t key = t.Get<uint64_t>(0);
        const uint64_t seq = t.Get<uint64_t>(1);
        EXPECT_EQ(t.Get<uint64_t>(2), (seq / window_size) << 4 | (key & 0xf));
        ++checked;
        return Status::OK();
      };
      return gs;
    };
    auto stats = RunToEnd(make_spec, "win");
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->tuples_out, kTuples);
    EXPECT_EQ(checked, kTuples);
  }
}

}  // namespace
}  // namespace dfi::graph
