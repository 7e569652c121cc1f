#include "core/graph/executor.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "common/radix_join_table.h"
#include "core/dfi_runtime.h"
#include "core/graph/lowering.h"

namespace dfi::graph {
namespace {

/// A field read as a key (ReadKeyBytes), with its offset and width
/// resolved once per operator instead of once per tuple.
struct KeyField {
  KeyField(const Schema& schema, size_t f)
      : offset(schema.offset(f)), size(schema.field_size(f)) {}
  uint64_t Read(const uint8_t* tuple) const {
    return ReadKeyBytes(tuple + offset, size);
  }
  size_t offset;
  size_t size;
};

/// kWindow's per-tuple work: the output tuple is the input plus the fused
/// window key `(seq / window_size) << key_bits | (key & mask)`. The divide
/// takes a precomputed FastDivisor (a shift for powers of two).
class WindowStage {
 public:
  /// `spec` passed Graph::Build: 0 < window_size <= UINT32_MAX,
  /// key_bits < 64.
  WindowStage(const WindowOpSpec& spec, const Schema& in, const Schema& out)
      : seq_(in, spec.seq_field),
        key_(in, spec.key_field),
        window_size_(static_cast<uint32_t>(spec.window_size)),
        key_bits_(spec.key_bits),
        key_mask_((uint64_t{1} << spec.key_bits) - 1),
        in_size_(in.tuple_size()),
        wkey_offset_(out.offset(out.num_fields() - 1)),
        buf_(out.tuple_size()) {}

  /// The output tuple of `tuple`, valid until the next call.
  const uint8_t* Apply(const uint8_t* tuple) {
    const uint64_t wkey = (window_size_.Div(seq_.Read(tuple)) << key_bits_) |
                          (key_.Read(tuple) & key_mask_);
    std::memcpy(buf_.data(), tuple, in_size_);
    std::memcpy(buf_.data() + wkey_offset_, &wkey, sizeof(wkey));
    return buf_.data();
  }

 private:
  const KeyField seq_;
  const KeyField key_;
  const FastDivisor window_size_;
  const uint32_t key_bits_;
  const uint64_t key_mask_;
  const size_t in_size_;
  const size_t wkey_offset_;
  std::vector<uint8_t> buf_;
};

/// Push-side adapter over the three flow kinds, bound to one worker.
struct OutPort {
  std::unique_ptr<ShuffleSource> shuffle;
  std::unique_ptr<ReplicateSource> replicate;
  std::unique_ptr<CombinerSource> combiner;

  Status Push(const void* tuple) {
    if (shuffle) return shuffle->Push(tuple);
    if (replicate) return replicate->Push(tuple);
    return combiner->Push(tuple);
  }
  Status Close() {
    if (shuffle) return shuffle->Close();
    if (replicate) return replicate->Close();
    return combiner->Close();
  }
  VirtualClock& clock() {
    if (shuffle) return shuffle->clock();
    if (replicate) return replicate->clock();
    return combiner->clock();
  }
};

OutPort OpenOut(const std::shared_ptr<ShuffleFlowState>& shuffle,
                const std::shared_ptr<ReplicateFlowState>& replicate,
                const std::shared_ptr<CombinerFlowState>& combiner,
                uint32_t worker) {
  OutPort port;
  if (shuffle) {
    port.shuffle = std::make_unique<ShuffleSource>(shuffle, worker);
  } else if (replicate) {
    port.replicate = std::make_unique<ReplicateSource>(replicate, worker);
  } else {
    port.combiner = std::make_unique<CombinerSource>(combiner, worker);
  }
  return port;
}

/// Consume-side adapter over the tuple-delivering flow kinds (combiner
/// targets yield AggRows instead and are handled where they occur).
struct TupleInPort {
  std::unique_ptr<ShuffleTarget> shuffle;
  std::unique_ptr<ReplicateTarget> replicate;

  ConsumeResult Consume(TupleView* out) {
    return shuffle ? shuffle->Consume(out) : replicate->Consume(out);
  }
  VirtualClock& clock() {
    return shuffle ? shuffle->clock() : replicate->clock();
  }
  Status last_status() {
    return shuffle ? shuffle->last_status() : replicate->last_status();
  }
};

TupleInPort OpenTupleIn(const std::shared_ptr<ShuffleFlowState>& shuffle,
                        const std::shared_ptr<ReplicateFlowState>& replicate,
                        uint32_t worker) {
  TupleInPort port;
  if (shuffle) {
    port.shuffle = std::make_unique<ShuffleTarget>(shuffle, worker);
  } else {
    port.replicate = std::make_unique<ReplicateTarget>(replicate, worker);
  }
  return port;
}

}  // namespace

StatusOr<std::unique_ptr<GraphRun>> Graph::Instantiate(DfiRuntime* dfi) const {
  std::vector<GraphRun::EdgeState> edges(spec_.edges.size());
  std::vector<std::pair<std::string, std::shared_ptr<FlowStateBase>>> publish;
  publish.reserve(spec_.edges.size());
  for (size_t e = 0; e < spec_.edges.size(); ++e) {
    const EdgeSpec& es = spec_.edges[e];
    const VertexSpec& from = spec_.vertices[edge_info_[e].from];
    const VertexSpec& to = spec_.vertices[edge_info_[e].to];
    std::shared_ptr<FlowStateBase> state;
    switch (es.kind) {
      case EdgeKind::kShuffle:
        edges[e].shuffle = std::make_shared<ShuffleFlowState>(
            LowerShuffleEdge(es, from, to), &dfi->rdma());
        state = edges[e].shuffle;
        break;
      case EdgeKind::kReplicate:
        edges[e].replicate = std::make_shared<ReplicateFlowState>(
            LowerReplicateEdge(es, from, to), &dfi->rdma());
        state = edges[e].replicate;
        break;
      case EdgeKind::kCombiner:
        edges[e].combiner = std::make_shared<CombinerFlowState>(
            LowerCombinerEdge(es, from, to), &dfi->rdma());
        state = edges[e].combiner;
        break;
    }
    publish.emplace_back(es.name, std::move(state));
  }

  // One batched control-plane RPC registers the whole graph (vs. one
  // Publish round trip per flow in the hand-rolled setup path).
  DFI_ASSIGN_OR_RETURN(std::vector<reg::OpResult> results,
                       dfi->registry_client().PublishBatch(publish));
  const auto failed =
      std::find_if(results.begin(), results.end(),
                   [](const reg::OpResult& r) { return !r.status.ok(); });
  if (failed != results.end()) {
    // The batch applied every op, so roll back each edge it published,
    // after the failure too, and leave a colliding name to the flow that
    // holds it: a name collision leaves no half-registered graph behind.
    std::vector<std::string> published;
    for (size_t e = 0; e < results.size(); ++e) {
      if (results[e].status.ok()) published.push_back(spec_.edges[e].name);
    }
    if (!published.empty()) {
      (void)dfi->registry_client().CloseBatch(published);
    }
    const EdgeSpec& es = spec_.edges[failed - results.begin()];
    return Status(failed->status.code(),
                  "edge '" + es.name + "': " + failed->status.message());
  }
  return std::unique_ptr<GraphRun>(
      new GraphRun(*this, dfi, std::move(edges)));
}

GraphRun::GraphRun(Graph graph, DfiRuntime* dfi, std::vector<EdgeState> edges)
    : graph_(std::move(graph)), dfi_(dfi), edges_(std::move(edges)) {
  for (const EdgeSpec& es : graph_.spec().edges) {
    flow_names_.push_back(es.name);
  }
  vertex_stats_.resize(graph_.spec().vertices.size());
}

GraphRun::~GraphRun() {
  if (started_ && !finished_) (void)Finish();
}

Status GraphRun::Start() {
  if (started_) {
    return Status::FailedPrecondition("graph '" + graph_.spec().name +
                                      "' already started");
  }
  started_ = true;
  const GraphSpec& spec = graph_.spec();
  for (size_t v = 0; v < spec.vertices.size(); ++v) {
    const VertexSpec& vs = spec.vertices[v];
    const std::vector<net::NodeId>& nodes = graph_.vertex_info(v).nodes;
    for (uint32_t w = 0; w < vs.workers.size(); ++w) {
      const uint32_t domain = w < nodes.size() ? nodes[w] : 0;
      actors_.Spawn(domain,
                    spec.name + "." + vs.name + "." + std::to_string(w),
                    [this, v = static_cast<int>(v), w] {
                      VertexStats st;
                      Status s = RunWorker(v, w, &st);
                      if (!s.ok()) {
                        Fail(graph_.spec().vertices[v].name, s);
                      }
                      AccumulateStats(v, st);
                    });
    }
  }
  return Status::OK();
}

Status GraphRun::Finish() {
  if (finished_) return status();
  actors_.Join();
  finished_ = true;
  Status removal = dfi_->RemoveFlows(flow_names_);
  Status first = status();
  return first.ok() ? removal : first;
}

Status GraphRun::status() const { return first_error_; }

void GraphRun::Fail(const std::string& vertex, const Status& status) {
  Status cause(status.code(),
               "vertex '" + vertex + "': " + status.message());
  if (first_error_.ok()) first_error_ = cause;
  // Whole-graph teardown: poison every edge so peers blocked on this
  // operator observe the failure instead of deadlocking.
  for (EdgeState& es : edges_) {
    if (es.shuffle) es.shuffle->Abort(cause);
    if (es.replicate) es.replicate->Abort(cause);
    if (es.combiner) es.combiner->Abort(cause);
  }
}

void GraphRun::AccumulateStats(int vertex, const VertexStats& worker_stats) {
  VertexStats& vs = vertex_stats_[vertex];
  vs.tuples_in += worker_stats.tuples_in;
  vs.tuples_out += worker_stats.tuples_out;
  vs.join_matches += worker_stats.join_matches;
  vs.max_clock = std::max(vs.max_clock, worker_stats.max_clock);
}

GraphRun::VertexStats GraphRun::stats(const std::string& name) const {
  const int v = graph_.FindVertex(name);
  if (v < 0) return VertexStats{};
  return vertex_stats_[v];
}

// ---------------------------------------------------------------------------
// Operator actor bodies
// ---------------------------------------------------------------------------

Status GraphRun::RunWorker(int vertex, uint32_t worker, VertexStats* out) {
  switch (graph_.spec().vertices[vertex].kind) {
    case OpKind::kSource:
      return RunSource(vertex, worker, out);
    case OpKind::kWindow:
      return RunWindow(vertex, worker, out);
    case OpKind::kAggregate:
      return RunAggregate(vertex, worker, out);
    case OpKind::kJoin:
      return RunJoin(vertex, worker, out);
    case OpKind::kSink:
      return RunSink(vertex, worker, out);
  }
  return Status::OK();
}

Status GraphRun::RunSource(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const int e = graph_.vertex_info(vertex).out[0];
  EdgeState& es = edges_[e];
  OutPort port = OpenOut(es.shuffle, es.replicate, es.combiner, worker);
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()),
                &port.clock()};
  uint64_t emitted = 0;
  EmitFn emit = [&](const void* tuple) {
    Status s = port.Push(tuple);
    if (s.ok()) ++emitted;
    return s;
  };
  DFI_RETURN_IF_ERROR(vs.source_fn(ctx, emit));
  DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_out = emitted;
  out->max_clock = port.clock().now();
  return Status::OK();
}

Status GraphRun::RunWindow(int vertex, uint32_t worker, VertexStats* out) {
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  EdgeState& ein = edges_[vi.in[0]];
  EdgeState& eout = edges_[vi.out[0]];
  TupleInPort in = OpenTupleIn(ein.shuffle, ein.replicate, worker);
  OutPort port = OpenOut(eout.shuffle, eout.replicate, eout.combiner, worker);
  WindowStage window(graph_.spec().vertices[vertex].window,
                     graph_.spec().edges[vi.in[0]].type.schema, vi.produced);

  uint64_t consumed = 0;
  TupleView tuple;
  for (;;) {
    ConsumeResult r = in.Consume(&tuple);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return in.last_status();
    if (r == ConsumeResult::kGap) continue;
    ++consumed;
    // Pipeline clock chaining: a windowed tuple cannot leave before the
    // input it extends arrived.
    port.clock().AdvanceTo(in.clock().now());
    DFI_RETURN_IF_ERROR(port.Push(window.Apply(tuple.data())));
  }
  DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_in = consumed;
  out->tuples_out = consumed;
  out->max_clock = std::max(in.clock().now(), port.clock().now());
  return Status::OK();
}

Status GraphRun::RunAggregate(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  CombinerTarget target(edges_[vi.in[0]].combiner, worker);
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()),
                &target.clock()};

  const bool has_out = !vi.out.empty();
  OutPort port;
  if (has_out) {
    EdgeState& eout = edges_[vi.out[0]];
    port = OpenOut(eout.shuffle, eout.replicate, eout.combiner, worker);
  }
  const Schema& row_schema = vi.produced;
  std::vector<uint8_t> row_buf(row_schema.tuple_size());

  uint64_t rows = 0;
  AggRow row;
  for (;;) {
    ConsumeResult r = target.ConsumeAggregate(&row);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return target.last_status();
    ++rows;
    if (has_out) {
      // Group keys are disjoint across aggregate workers, so each partial
      // row can be re-emitted independently.
      TupleWriter writer(row_buf.data(), &row_schema);
      writer.Set(0, row.group_key);
      for (size_t a = 0; a < row.values.size(); ++a) {
        writer.Set(1 + a, row.values[a]);
      }
      port.clock().AdvanceTo(target.clock().now());
      DFI_RETURN_IF_ERROR(port.Push(row_buf.data()));
    } else if (vs.agg_sink) {
      DFI_RETURN_IF_ERROR(vs.agg_sink(ctx, row));
    }
  }
  if (has_out) DFI_RETURN_IF_ERROR(port.Close());
  out->tuples_in = target.tuples_aggregated();
  out->tuples_out = rows;
  out->max_clock = has_out
                       ? std::max(target.clock().now(), port.clock().now())
                       : target.clock().now();
  return Status::OK();
}

Status GraphRun::RunJoin(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  const JoinOpSpec& js = vs.join;
  ShuffleTarget build(edges_[vi.in[0]].shuffle, worker);
  ShuffleTarget probe(edges_[vi.in[1]].shuffle, worker);
  const Schema& build_schema = graph_.spec().edges[vi.in[0]].type.schema;
  const Schema& probe_schema = graph_.spec().edges[vi.in[1]].type.schema;
  const KeyField build_key(build_schema, js.key_field);
  const KeyField probe_key(probe_schema, js.key_field);
  const size_t build_size = build_schema.tuple_size();
  const size_t probe_size = probe_schema.tuple_size();
  // Each tuple is charged what consuming it alone costs plus its share of
  // the join; nothing reads the clock within a segment, so one charge per
  // segment lands at the same virtual times.
  const net::SimConfig& sim = dfi_->config();
  const SimTime scan_ns = sim.tuple_consume_fixed_ns + sim.join_partition_ns;
  const SimTime build_ns = scan_ns + sim.join_build_ns;
  const SimTime probe_ns = scan_ns + sim.join_probe_ns;

  // Build phase: append each key of the inner input to its local radix
  // partition as segments stream in.
  RadixJoinTable table(js.local_radix_bits);
  uint64_t consumed = 0;
  SegmentView seg;
  for (;;) {
    const ConsumeResult r = build.ConsumeSegment(&seg);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return build.last_status();
    const size_t n = seg.bytes / build_size;
    for (size_t i = 0; i < n; ++i) {
      table.AddBuild(build_key.Read(seg.payload + i * build_size));
    }
    build.clock().Advance(static_cast<SimTime>(n) * build_ns);
    consumed += n;
  }

  // Probe phase starts no earlier than the build finished (same max-join
  // of clocks as the hand-rolled join app) and partitions the outer input
  // the same way. The matches are then counted one partition at a time;
  // the per-tuple charges already cover that work.
  probe.clock().AdvanceTo(build.clock().now());
  for (;;) {
    const ConsumeResult r = probe.ConsumeSegment(&seg);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return probe.last_status();
    const size_t n = seg.bytes / probe_size;
    for (size_t i = 0; i < n; ++i) {
      table.AddProbe(probe_key.Read(seg.payload + i * probe_size));
    }
    probe.clock().Advance(static_cast<SimTime>(n) * probe_ns);
    consumed += n;
  }
  out->tuples_in = consumed;
  out->join_matches = table.Matches();
  out->max_clock = probe.clock().now();
  return Status::OK();
}

Status GraphRun::RunSink(int vertex, uint32_t worker, VertexStats* out) {
  const VertexSpec& vs = graph_.spec().vertices[vertex];
  const Graph::VertexInfo& vi = graph_.vertex_info(vertex);
  EdgeState& ein = edges_[vi.in[0]];
  OpContext ctx{worker, static_cast<uint32_t>(vs.workers.size()), nullptr};
  uint64_t consumed = 0;

  if (ein.combiner) {
    CombinerTarget target(ein.combiner, worker);
    ctx.clock = &target.clock();
    AggRow row;
    for (;;) {
      ConsumeResult r = target.ConsumeAggregate(&row);
      if (r == ConsumeResult::kFlowEnd) break;
      if (r == ConsumeResult::kError) return target.last_status();
      ++consumed;
      DFI_RETURN_IF_ERROR(vs.agg_sink(ctx, row));
    }
    out->tuples_in = consumed;
    out->max_clock = target.clock().now();
    return Status::OK();
  }

  TupleInPort in = OpenTupleIn(ein.shuffle, ein.replicate, worker);
  ctx.clock = &in.clock();
  TupleView tuple;
  for (;;) {
    ConsumeResult r = in.Consume(&tuple);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r == ConsumeResult::kError) return in.last_status();
    if (r == ConsumeResult::kGap) continue;
    ++consumed;
    DFI_RETURN_IF_ERROR(vs.tuple_sink(ctx, tuple));
  }
  out->tuples_in = consumed;
  out->max_clock = in.clock().now();
  return Status::OK();
}

}  // namespace dfi::graph
