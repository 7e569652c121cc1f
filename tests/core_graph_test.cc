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

TEST(GraphRunTest, NameCollisionRollsBackEveryPublishedEdge) {
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(addrs, 1);
  auto forward = [&](const std::string& name) {
    VertexSpec v;
    v.name = name;
    v.kind = OpKind::kTransform;
    v.workers = workers;
    v.output = {TwoFieldSchema(), Ordering::kNone};
    v.transform_fn = [](OpContext&, TupleView in,
                        const EmitFn& emit) -> Status {
      const uint64_t tuple[2] = {in.Get<uint64_t>(0), in.Get<uint64_t>(1)};
      return emit(tuple);
    };
    return v;
  };
  GraphSpec gs;
  gs.name = "clash";
  gs.vertices = {Source("src", workers), forward("t1"), forward("t2"),
                 Sink("snk", workers)};
  gs.edges = {Shuffle("clash.a", "src", "t1"), Shuffle("clash.b", "t1", "t2"),
              Shuffle("clash.c", "t2", "snk")};
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

TEST(GraphRunTest, JoinCountsBuildKeyMultiplicities) {
  // The build side repeats keys (key k appears k % 4 + 1 times, spread over
  // the build workers), so each probe of k matches that many times. Keys 0
  // and 2^64-1 are among them; probes of absent keys match nothing.
  net::Fabric fabric;
  auto addrs = MakeCluster(&fabric, 2);
  DfiRuntime dfi(&fabric);
  const DfiNodes workers = DfiNodes::GridOf(addrs, 2);
  // Odd multiplier: i * kMul is distinct for distinct i, so keys from
  // [1, 3000) never collide with the absent ones from [3000, 6000).
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15;
  std::vector<uint64_t> keys = {0, ~uint64_t{0}};
  for (uint64_t i = 1; i < 3000; ++i) keys.push_back(i * kMul);
  uint64_t expected = 0;
  for (uint64_t k : keys) expected += 2 * (k % 4 + 1);  // probed twice

  GraphSpec gs;
  gs.name = "mj";
  VertexSpec build;
  build.name = "build";
  build.kind = OpKind::kSource;
  build.workers = workers;
  build.output = {TwoFieldSchema(), Ordering::kNone};
  build.source_fn = [&keys](OpContext& ctx, const EmitFn& emit) -> Status {
    for (uint64_t k : keys) {
      for (uint64_t copy = 0; copy <= k % 4; ++copy) {
        if ((k + copy) % ctx.num_workers != ctx.worker) continue;
        const uint64_t tuple[2] = {k, copy};
        DFI_RETURN_IF_ERROR(emit(tuple));
      }
    }
    return Status::OK();
  };
  VertexSpec probe;
  probe.name = "probe";
  probe.kind = OpKind::kSource;
  probe.workers = workers;
  probe.output = {TwoFieldSchema(), Ordering::kNone};
  probe.source_fn = [&keys](OpContext& ctx, const EmitFn& emit) -> Status {
    for (size_t i = ctx.worker; i < keys.size(); i += ctx.num_workers) {
      for (uint64_t key : {keys[i], keys[i], (3000 + i) * kMul}) {
        const uint64_t tuple[2] = {key, 0};
        DFI_RETURN_IF_ERROR(emit(tuple));
      }
    }
    return Status::OK();
  };
  VertexSpec join;
  join.name = "join";
  join.kind = OpKind::kJoin;
  join.workers = workers;
  gs.vertices = {std::move(build), std::move(probe), std::move(join)};
  // In-edge order is the join's build (0) and probe (1) side.
  gs.edges = {Shuffle("mj.build", "build", "join"),
              Shuffle("mj.probe", "probe", "join")};

  auto g = Graph::Build(std::move(gs), &dfi.fabric());
  ASSERT_TRUE(g.ok()) << g.status();
  auto run = g->Instantiate(&dfi);
  ASSERT_TRUE(run.ok()) << run.status();
  exec::Engine engine;
  engine.Spawn(0, "root", [&] {
    ASSERT_TRUE((*run)->Start().ok());
    ASSERT_TRUE((*run)->Finish().ok()) << (*run)->status();
  });
  engine.Run();
  EXPECT_EQ((*run)->stats("join").join_matches, expected);
}

}  // namespace
}  // namespace dfi::graph
