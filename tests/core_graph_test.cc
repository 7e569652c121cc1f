#include "core/graph/graph.h"

#include <gtest/gtest.h>

#include <atomic>

#include "common/exec/engine.h"
#include "core/dfi.h"
#include "core/graph/executor.h"

namespace dfi::graph {
namespace {

Schema TwoFieldSchema() {
  return Schema{{"key", DataType::kUInt64}, {"val", DataType::kUInt64}};
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
  // Adaptive re-splitting breaks per-(source, key) FIFO unless the ordered
  // hand-off is on; requiring kPerChannel must name the reason.
  GraphSpec gs = BaseSpec();
  gs.edges[0].options.adaptive.enabled = true;
  gs.edges[0].type.ordering = Ordering::kPerChannel;
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  const Diagnostic* d = FindDiag(diags, DiagCode::kOrderingUnsatisfied);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_NE(d->message.find("ordered_handoff"), std::string::npos)
      << d->message;
  // The ordered hand-off restores the guarantee.
  GraphSpec fixed = BaseSpec();
  fixed.edges[0].options.adaptive.enabled = true;
  fixed.edges[0].options.adaptive.ordered_handoff = true;
  fixed.edges[0].type.ordering = Ordering::kPerChannel;
  EXPECT_TRUE(Graph::Build(std::move(fixed), &fabric_).ok());
}

TEST_F(GraphBuildTest, CombinerSpanningNodesNeedsOptIn) {
  GraphSpec gs = BaseSpec();
  gs.edges[0].kind = EdgeKind::kCombiner;
  gs.edges[0].aggregates = {{AggFunc::kSum, 1}};
  gs.vertices[1].kind = OpKind::kAggregate;  // combiner in edge, no out
  std::vector<Diagnostic> diags;
  // The sink ("snk") spans both fabric nodes without the opt-in.
  auto g = Graph::Build(gs, &fabric_, &diags);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  const Diagnostic* d = FindDiag(diags, DiagCode::kCombinerTopology);
  ASSERT_NE(d, nullptr) << g.status();
  EXPECT_EQ(d->vertex, "snk");
  EXPECT_EQ(d->edge, "g.edge");
  EXPECT_NE(d->message.find("multi_node_targets"), std::string::npos);
  // Opting in fixes it; so does a single-node placement.
  gs.edges[0].multi_node_targets = true;
  EXPECT_TRUE(Graph::Build(gs, &fabric_).ok());
  gs.edges[0].multi_node_targets = false;
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
  GraphSpec gs;
  gs.name = "loop";
  VertexSpec a, b;
  a.name = "a";
  a.kind = OpKind::kCustom;
  a.workers = workers_;
  a.output = {TwoFieldSchema(), Ordering::kNone};
  b = a;
  b.name = "b";
  gs.vertices = {a, b};
  gs.edges = {Shuffle("ab", "a", "b"), Shuffle("ba", "b", "a")};
  std::vector<Diagnostic> diags;
  auto g = Graph::Build(std::move(gs), &fabric_, &diags);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(FindDiag(diags, DiagCode::kCycle), nullptr) << g.status();
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

TEST(GraphRunTest, SourceTransformSinkDeliversEverything) {
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
  VertexSpec map;
  map.name = "map";
  map.kind = OpKind::kTransform;
  map.workers = workers;
  map.output = {TwoFieldSchema(), Ordering::kNone};
  map.transform_fn = [](OpContext&, TupleView in,
                        const EmitFn& emit) -> Status {
    const uint64_t tuple[2] = {in.Get<uint64_t>(0), in.Get<uint64_t>(1) * 2};
    return emit(tuple);
  };
  std::atomic<uint64_t> sum{0};
  VertexSpec snk;
  snk.name = "snk";
  snk.kind = OpKind::kSink;
  snk.workers = workers;
  snk.tuple_sink = [&sum](OpContext&, TupleView t) {
    sum.fetch_add(t.Get<uint64_t>(1));
    return Status::OK();
  };
  gs.vertices = {std::move(src), std::move(map), std::move(snk)};
  gs.edges = {Shuffle("e2e.in", "src", "map"),
              Shuffle("e2e.out", "map", "snk")};

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
  EXPECT_EQ((*run)->stats("map").tuples_in, total);
  EXPECT_EQ((*run)->stats("map").tuples_out, total);
  EXPECT_EQ((*run)->stats("snk").tuples_in, total);
  EXPECT_EQ(sum.load(), 2 * total);
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

}  // namespace
}  // namespace dfi::graph
