// Streaming aggregation as a typed dataflow graph (DESIGN.md §14): eight
// sensor vertices push measurements over a combiner edge; one aggregate
// vertex computes SUM / COUNT / MIN / MAX per sensor — the N:1 aggregation
// pattern of a SQL GROUP BY or a parameter server (paper section 4.2.3).
//
// This is the graph-API quickstart: declare vertices (operators) and typed
// edges (DFI flows), let Graph::Build type-check the whole pipeline, then
// Instantiate + Start run every operator as an actor. Compare
// examples/quickstart.cpp for the single-flow API the graph lowers onto.
//
//   $ ./build/examples/stream_aggregation

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "core/dfi.h"

using namespace dfi;  // NOLINT: example brevity

int main() {
  constexpr uint32_t kWorkers = 8;
  constexpr uint32_t kSensors = 16;
  constexpr uint64_t kSamplesPerWorker = 50000;

  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(1 + kWorkers)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);

  // Vertex "sensors": one source worker per worker node, each emitting
  // seeded pseudo-random {sensor, reading} samples.
  graph::GraphSpec gs;
  gs.name = "sensors";
  graph::VertexSpec sensors;
  sensors.name = "sensors";
  sensors.kind = graph::OpKind::kSource;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    sensors.workers.Append(Endpoint{addrs[1 + w], 0});
  }
  sensors.output = {Schema{{"sensor", DataType::kUInt64},
                           {"reading", DataType::kDouble}},
                    Ordering::kNone};
  sensors.source_fn = [](graph::OpContext& ctx,
                         const graph::EmitFn& emit) -> Status {
    Xorshift128Plus rng(ctx.worker + 1);
    struct Sample {
      uint64_t sensor;
      double reading;
    };
    for (uint64_t i = 0; i < kSamplesPerWorker; ++i) {
      Sample s{rng.NextBelow(kSensors),
               static_cast<double>(rng.NextBelow(1000)) / 10.0};
      DFI_RETURN_IF_ERROR(emit(&s));
    }
    return Status::OK();
  };

  // Vertex "report": the combiner's target side, receiving one AggRow per
  // sensor after the flow drained.
  uint64_t groups = 0;
  SimTime done = 0;
  graph::VertexSpec report;
  report.name = "report";
  report.kind = graph::OpKind::kAggregate;
  report.workers.Append(Endpoint{addrs[0], 0});
  report.agg_sink = [&](graph::OpContext& ctx, const AggRow& row) -> Status {
    std::printf("%-8llu %12.1f %8.0f %8.1f %8.1f\n",
                static_cast<unsigned long long>(row.group_key),
                row.values[0], row.values[1], row.values[2], row.values[3]);
    ++groups;
    done = ctx.clock->now();
    return Status::OK();
  };
  gs.vertices = {std::move(sensors), std::move(report)};

  // Edge "sensors.fold": a combiner flow grouping by the sensor field. The
  // typed validation pass checks the schema against what the source emits
  // and the N:1 topology before anything is instantiated.
  graph::EdgeSpec fold;
  fold.name = "sensors.fold";
  fold.from = "sensors";
  fold.to = "report";
  fold.kind = graph::EdgeKind::kCombiner;
  fold.type = {Schema{{"sensor", DataType::kUInt64},
                      {"reading", DataType::kDouble}},
               Ordering::kNone};
  fold.key_index = 0;
  fold.aggregates = {{AggFunc::kSum, 1},
                     {AggFunc::kCount, 0},
                     {AggFunc::kMin, 1},
                     {AggFunc::kMax, 1}};
  gs.edges = {std::move(fold)};

  auto g = graph::Graph::Build(std::move(gs), &dfi.fabric());
  DFI_CHECK_OK(g.status());
  auto run = g->Instantiate(&dfi);
  DFI_CHECK_OK(run.status());
  std::printf("%-8s %12s %8s %8s %8s\n", "sensor", "sum", "count", "min",
              "max");
  // The operators run as actors of the engine task that starts the graph.
  exec::Engine engine;
  engine.Spawn(0, "driver", [&] {
    DFI_CHECK_OK((*run)->Start());
    DFI_CHECK_OK((*run)->Finish());
  });
  engine.Run();

  std::printf(
      "%llu groups from %llu samples, aggregated in %s of virtual time\n",
      static_cast<unsigned long long>(groups),
      static_cast<unsigned long long>(kWorkers * kSamplesPerWorker),
      FormatDuration(done).c_str());
  return 0;
}
