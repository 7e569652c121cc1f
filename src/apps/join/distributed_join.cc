#include "apps/join/distributed_join.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "apps/join/hash_table.h"
#include "bench_util/workload.h"
#include "core/graph/executor.h"
#include "core/replicate_flow.h"
#include "common/hash.h"
#include "common/exec/engine.h"
#include "common/logging.h"
#include "mpi/mpi_env.h"

namespace dfi::join {
namespace {

Schema JoinSchema() {
  return Schema{{"key", DataType::kUInt64}, {"payload", DataType::kUInt64}};
}

/// Inner relation: dense primary keys, worker w holds slice w.
std::vector<bench::JoinTuple> InnerChunk(const JoinConfig& cfg, uint32_t w) {
  const uint32_t W = cfg.total_workers();
  const uint64_t begin = cfg.inner_tuples * w / W;
  const uint64_t end = cfg.inner_tuples * (w + 1) / W;
  std::vector<bench::JoinTuple> out;
  out.reserve(end - begin);
  for (uint64_t k = begin; k < end; ++k) {
    out.push_back(bench::JoinTuple{k, k * 2});
  }
  return out;
}

/// Outer relation: uniform foreign keys into the inner domain.
std::vector<bench::JoinTuple> OuterChunk(const JoinConfig& cfg, uint32_t w) {
  const uint32_t W = cfg.total_workers();
  const uint64_t begin = cfg.outer_tuples * w / W;
  const uint64_t end = cfg.outer_tuples * (w + 1) / W;
  return bench::GenerateUniformRelation(end - begin, cfg.inner_tuples,
                                        cfg.seed + 1000 + w);
}

/// Network partition: target worker of a key (first-level radix over the
/// key hash).
uint32_t NetworkDest(uint64_t key, uint32_t num_workers) {
  return static_cast<uint32_t>(HashU64(key) % num_workers);
}

/// Local partition: second-level radix bits (independent hash bits).
uint32_t LocalBucket(uint64_t key, uint32_t bits) {
  return static_cast<uint32_t>((HashU64(key) >> 32) & ((1u << bits) - 1));
}

SimTime MaxClock(ShuffleSource& a, ShuffleTarget& b) {
  return std::max(a.clock().now(), b.clock().now());
}

void JoinClocks(ShuffleSource& a, ShuffleTarget& b) {
  const SimTime t = MaxClock(a, b);
  a.clock().AdvanceTo(t);
  b.clock().AdvanceTo(t);
}

}  // namespace

uint64_t ReferenceJoinMatches(const JoinConfig& config) {
  // The inner relation is a dense primary key over [0, inner_tuples) and
  // every outer key is drawn from that domain, so every outer tuple matches
  // exactly once.
  return config.outer_tuples;
}

// ---------------------------------------------------------------------------
// DFI radix join (paper Figure 2)
// ---------------------------------------------------------------------------

StatusOr<JoinResult> RunDfiRadixJoin(DfiRuntime* dfi,
                                     const std::vector<std::string>& nodes,
                                     const JoinConfig& config) {
  if (nodes.size() != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  const uint32_t W = config.total_workers();
  const net::SimConfig& sim = dfi->config();

  RoutingFn routing = [W](TupleView t, uint32_t) {
    return NetworkDest(t.Get<uint64_t>(0), W);
  };
  // Flow setup as a typed dataflow graph: the worker fleet appears twice
  // (scan side / join side, same placement) with both relations' shuffles
  // as typed edges between them. Build() validates schemas and routing in
  // one pass and Instantiate() registers both flows in a single batched
  // control-plane RPC; the fused scan/partition/build/probe loop below
  // claims the endpoints (kCustom vertices).
  graph::GraphSpec gs;
  gs.name = "join";
  const DfiNodes grid = DfiNodes::GridOf(nodes, config.workers_per_node);
  graph::VertexSpec scan_vertex;
  scan_vertex.name = "scan";
  scan_vertex.workers = grid;
  scan_vertex.output = {JoinSchema(), Ordering::kNone};
  graph::VertexSpec join_vertex;
  join_vertex.name = "join";
  join_vertex.workers = grid;
  gs.vertices = {std::move(scan_vertex), std::move(join_vertex)};
  for (const char* name : {"join.inner", "join.outer"}) {
    graph::EdgeSpec edge;
    edge.name = name;
    edge.from = "scan";
    edge.to = "join";
    edge.kind = graph::EdgeKind::kShuffle;
    edge.type = {JoinSchema(), Ordering::kNone};
    edge.routing = routing;
    gs.edges.push_back(std::move(edge));
  }
  DFI_ASSIGN_OR_RETURN(graph::Graph g,
                       graph::Graph::Build(std::move(gs), &dfi->fabric()));
  DFI_ASSIGN_OR_RETURN(std::unique_ptr<graph::GraphRun> run,
                       g.Instantiate(dfi));
  DFI_RETURN_IF_ERROR(run->Start());

  std::atomic<uint64_t> total_matches{0};
  std::vector<SimTime> t_partition(W), t_total(W);
  exec::ActorGroup actors;
  std::atomic<bool> failed{false};

  for (uint32_t w = 0; w < W; ++w) {
    actors.Spawn(w / config.workers_per_node,
                 "join.worker." + std::to_string(w), [&, w] {
      auto src1 = run->ClaimShuffleSource("join.inner", w);
      auto tgt1 = run->ClaimShuffleTarget("join.inner", w);
      auto src2 = run->ClaimShuffleSource("join.outer", w);
      auto tgt2 = run->ClaimShuffleTarget("join.outer", w);
      if (!src1.ok() || !tgt1.ok() || !src2.ok() || !tgt2.ok()) {
        failed.store(true);
        return;
      }
      const Schema schema = JoinSchema();
      const uint32_t num_buckets = 1u << config.local_radix_bits;
      std::vector<std::vector<bench::JoinTuple>> buckets(num_buckets);

      // --- Phase 1: network shuffle of the inner relation, local
      // partitioning streamed as segments arrive (no histogram pass, no
      // barrier — the DFI design win of section 6.3.1).
      auto partition_inner_segment = [&](const SegmentView& seg) {
        for (uint32_t off = 0; off + 16 <= seg.bytes; off += 16) {
          TupleView t(seg.payload + off, &schema);
          const uint64_t key = t.Get<uint64_t>(0);
          (*tgt1)->clock().Advance(sim.tuple_consume_fixed_ns +
                                   config.partition_cost_ns);
          buckets[LocalBucket(key, config.local_radix_bits)].push_back(
              bench::JoinTuple{key, t.Get<uint64_t>(1)});
        }
      };
      const std::vector<bench::JoinTuple> inner = InnerChunk(config, w);
      uint64_t i = 0;
      bool inner_drained = false;
      for (const bench::JoinTuple& t : inner) {
        if (!(*src1)->Push(&t).ok()) {
          failed.store(true);
          return;
        }
        if (++i % 256 == 0) {
          // Drain whatever already arrived: compute/communication overlap.
          SegmentView seg;
          ConsumeResult r;
          while (!inner_drained && (*tgt1)->TryConsumeSegment(&seg, &r)) {
            if (r == ConsumeResult::kFlowEnd) {
              inner_drained = true;
              break;
            }
            partition_inner_segment(seg);
          }
        }
      }
      if (!(*src1)->Close().ok()) {
        failed.store(true);
        return;
      }
      while (!inner_drained) {
        SegmentView seg;
        const ConsumeResult r = (*tgt1)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) {
          inner_drained = true;
          break;
        }
        partition_inner_segment(seg);
      }
      JoinClocks(**src1, **tgt1);
      t_partition[w] = (*tgt1)->clock().now();
      // Per-worker phase timings on demand (debug aid for calibration).
      if (getenv("DFI_JOIN_DEBUG") != nullptr) {
        fprintf(stderr, "w%u phase1: src=%lld tgt=%lld\n", w,
                static_cast<long long>((*src1)->clock().now()),
                static_cast<long long>((*tgt1)->clock().now()));
      }

      // --- Build cache-sized hash tables per bucket.
      std::vector<JoinHashTable> tables(num_buckets);
      uint64_t built = 0;
      for (uint32_t b = 0; b < num_buckets; ++b) {
        tables[b].Reserve(buckets[b].size());
        for (const bench::JoinTuple& t : buckets[b]) {
          tables[b].Insert(t.key, t.payload);
          ++built;
        }
      }
      (*tgt1)->clock().Advance(static_cast<SimTime>(built) *
                               config.build_cost_ns);
      (*src2)->clock().AdvanceTo((*tgt1)->clock().now());
      (*tgt2)->clock().AdvanceTo((*tgt1)->clock().now());

      // --- Phase 2: shuffle the outer relation; probe streamed on arrival.
      uint64_t matches = 0;
      auto probe_segment = [&](const SegmentView& seg) {
        for (uint32_t off = 0; off + 16 <= seg.bytes; off += 16) {
          TupleView t(seg.payload + off, &schema);
          const uint64_t key = t.Get<uint64_t>(0);
          (*tgt2)->clock().Advance(sim.tuple_consume_fixed_ns +
                                   config.probe_cost_ns);
          matches += tables[LocalBucket(key, config.local_radix_bits)]
                         .CountMatches(key);
        }
      };
      const std::vector<bench::JoinTuple> outer = OuterChunk(config, w);
      bool outer_drained = false;
      i = 0;
      for (const bench::JoinTuple& t : outer) {
        if (!(*src2)->Push(&t).ok()) {
          failed.store(true);
          return;
        }
        if (++i % 256 == 0) {
          SegmentView seg;
          ConsumeResult r;
          while (!outer_drained && (*tgt2)->TryConsumeSegment(&seg, &r)) {
            if (r == ConsumeResult::kFlowEnd) {
              outer_drained = true;
              break;
            }
            probe_segment(seg);
          }
        }
      }
      if (!(*src2)->Close().ok()) {
        failed.store(true);
        return;
      }
      while (!outer_drained) {
        SegmentView seg;
        const ConsumeResult r = (*tgt2)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) {
          outer_drained = true;
          break;
        }
        probe_segment(seg);
      }
      JoinClocks(**src2, **tgt2);
      total_matches.fetch_add(matches, std::memory_order_relaxed);
      t_total[w] = (*tgt2)->clock().now();
    });
  }
  actors.Join();
  DFI_RETURN_IF_ERROR(run->Finish());
  if (failed.load()) return Status::Internal("join worker failed");

  JoinResult result;
  result.matches = total_matches.load();
  SimTime part_sum = 0, total_max = 0;
  for (uint32_t w = 0; w < W; ++w) {
    part_sum += t_partition[w];
    total_max = std::max(total_max, t_total[w]);
  }
  result.phases.network_partition = part_sum / W;
  result.phases.total = total_max;
  result.phases.build_probe = total_max - result.phases.network_partition;
  return result;
}

// ---------------------------------------------------------------------------
// Graph-native radix join: the same join on built-in operators
// ---------------------------------------------------------------------------

StatusOr<JoinResult> RunGraphRadixJoin(DfiRuntime* dfi,
                                       const std::vector<std::string>& nodes,
                                       const JoinConfig& config) {
  if (nodes.size() != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  const DfiNodes grid = DfiNodes::GridOf(nodes, config.workers_per_node);

  graph::GraphSpec gs;
  gs.name = "graph-join";
  graph::VertexSpec inner_scan;
  inner_scan.name = "inner-scan";
  inner_scan.kind = graph::OpKind::kSource;
  inner_scan.workers = grid;
  inner_scan.output = {JoinSchema(), Ordering::kNone};
  inner_scan.source_fn = [config](graph::OpContext& ctx,
                                  const graph::EmitFn& emit) -> Status {
    for (const bench::JoinTuple& t : InnerChunk(config, ctx.worker)) {
      DFI_RETURN_IF_ERROR(emit(&t));
    }
    return Status::OK();
  };
  graph::VertexSpec outer_scan;
  outer_scan.name = "outer-scan";
  outer_scan.kind = graph::OpKind::kSource;
  outer_scan.workers = grid;
  outer_scan.output = {JoinSchema(), Ordering::kNone};
  outer_scan.source_fn = [config](graph::OpContext& ctx,
                                  const graph::EmitFn& emit) -> Status {
    for (const bench::JoinTuple& t : OuterChunk(config, ctx.worker)) {
      DFI_RETURN_IF_ERROR(emit(&t));
    }
    return Status::OK();
  };
  graph::VertexSpec join;
  join.name = "join";
  join.kind = graph::OpKind::kJoin;
  join.workers = grid;
  join.join = {.key_field = 0,
               .payload_field = 1,
               .local_radix_bits = config.local_radix_bits,
               .partition_cost_ns = config.partition_cost_ns,
               .build_cost_ns = config.build_cost_ns,
               .probe_cost_ns = config.probe_cost_ns};
  gs.vertices = {std::move(inner_scan), std::move(outer_scan),
                 std::move(join)};
  // In-edge order defines build vs probe side: edge 0 is built, edge 1
  // probed.
  graph::EdgeSpec inner_edge;
  inner_edge.name = "graph-join.inner";
  inner_edge.from = "inner-scan";
  inner_edge.to = "join";
  inner_edge.type = {JoinSchema(), Ordering::kNone};
  graph::EdgeSpec outer_edge;
  outer_edge.name = "graph-join.outer";
  outer_edge.from = "outer-scan";
  outer_edge.to = "join";
  outer_edge.type = {JoinSchema(), Ordering::kNone};
  gs.edges = {std::move(inner_edge), std::move(outer_edge)};

  DFI_ASSIGN_OR_RETURN(graph::Graph g,
                       graph::Graph::Build(std::move(gs), &dfi->fabric()));
  DFI_ASSIGN_OR_RETURN(std::unique_ptr<graph::GraphRun> run,
                       g.Instantiate(dfi));
  DFI_RETURN_IF_ERROR(run->Start());
  DFI_RETURN_IF_ERROR(run->Finish());

  const graph::GraphRun::VertexStats stats = run->stats("join");
  JoinResult result;
  result.matches = stats.join_matches;
  result.phases.total = stats.max_clock;
  result.phases.build_probe = stats.max_clock;
  return result;
}

// ---------------------------------------------------------------------------
// MPI radix join baseline (Barthels et al. [2])
// ---------------------------------------------------------------------------

StatusOr<JoinResult> RunMpiRadixJoin(net::Fabric* fabric,
                                     const std::vector<net::NodeId>& nodes,
                                     const JoinConfig& config) {
  if (nodes.size() != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  const uint32_t W = config.total_workers();
  std::vector<net::NodeId> rank_nodes(W);
  for (uint32_t w = 0; w < W; ++w) {
    rank_nodes[w] = nodes[w / config.workers_per_node];
  }
  mpi::MpiEnv env(fabric, rank_nodes, mpi::ThreadMode::kSingle);
  const net::SimConfig& sim = fabric->config();
  // Staging a tuple into a send buffer costs the same whether DFI or MPI
  // does it — both joins are charged identical fundamental per-tuple costs
  // so the comparison isolates the *algorithmic* differences (histogram
  // pass, barrier, overlap), as in the paper.
  const SimTime stage_cost =
      sim.tuple_push_fixed_ns +
      static_cast<SimTime>(sizeof(bench::JoinTuple) *
                           sim.tuple_copy_ns_per_byte);
  const SimTime scan_cost =
      sim.tuple_consume_fixed_ns + config.partition_cost_ns;

  // Windows sized generously for the hash-partitioned incoming share.
  const size_t in_share =
      (config.inner_tuples / W + 4096) * 3 / 2 * sizeof(bench::JoinTuple);
  const size_t out_share =
      (config.outer_tuples / W + 4096) * 3 / 2 * sizeof(bench::JoinTuple);
  DFI_ASSIGN_OR_RETURN(mpi::MpiWindow * inner_win,
                       env.CreateWindow(in_share));
  DFI_ASSIGN_OR_RETURN(mpi::MpiWindow * outer_win,
                       env.CreateWindow(out_share));

  struct RankStat {
    SimTime histogram = 0, network = 0, barrier = 0, local = 0,
            build_probe = 0, total = 0;
    uint64_t matches = 0;
    uint64_t received_inner = 0, received_outer = 0;
  };
  std::vector<RankStat> stats(W);
  std::atomic<bool> failed{false};
  exec::ActorGroup actors;

  for (uint32_t w = 0; w < W; ++w) {
    actors.Spawn(w / config.workers_per_node,
                 "mpi.rank." + std::to_string(w), [&, w] {
      VirtualClock clock;
      RankStat& st = stats[w];
      const int rank = static_cast<int>(w);
      constexpr uint32_t kWcBuf = 8192;  // write-combine buffer (paper opt.)

      // One full pass per relation: histogram -> offsets -> put -> fence.
      auto partition_relation =
          [&](const std::vector<bench::JoinTuple>& chunk,
              mpi::MpiWindow* window, uint64_t* received) -> bool {
        // Pass 1: histogram (the extra scan DFI does not need).
        SimTime t0 = clock.now();
        std::vector<uint64_t> hist(W, 0);
        for (const bench::JoinTuple& t : chunk) {
          ++hist[NetworkDest(t.key, W)];
          clock.Advance(config.histogram_cost_ns);
        }
        // Exchange histograms so every rank knows its incoming counts ...
        std::vector<uint64_t> incoming(W, 0);
        if (!env.Alltoall(rank, hist.data(), incoming.data(),
                          sizeof(uint64_t), &clock)
                 .ok()) {
          return false;
        }
        // ... and exchange exclusive write offsets back.
        std::vector<uint64_t> offsets_for_src(W, 0);
        uint64_t acc = 0;
        for (uint32_t s = 0; s < W; ++s) {
          offsets_for_src[s] = acc;
          acc += incoming[s];
        }
        *received = acc;
        std::vector<uint64_t> my_offsets(W, 0);
        if (!env.Alltoall(rank, offsets_for_src.data(), my_offsets.data(),
                          sizeof(uint64_t), &clock)
                 .ok()) {
          return false;
        }
        st.histogram += clock.now() - t0;

        // Pass 2: partition into write-combine buffers, one-sided puts to
        // coordination-free exclusive offsets.
        t0 = clock.now();
        std::vector<std::vector<bench::JoinTuple>> wc(W);
        std::vector<uint64_t> cursor = my_offsets;
        auto flush = [&](uint32_t d) -> bool {
          if (wc[d].empty()) return true;
          const size_t bytes = wc[d].size() * sizeof(bench::JoinTuple);
          if (!env.Put(rank, wc[d].data(), bytes, static_cast<int>(d),
                       cursor[d] * sizeof(bench::JoinTuple), window, &clock)
                   .ok()) {
            return false;
          }
          cursor[d] += wc[d].size();
          wc[d].clear();
          return true;
        };
        for (const bench::JoinTuple& t : chunk) {
          const uint32_t d = NetworkDest(t.key, W);
          clock.Advance(stage_cost);
          wc[d].push_back(t);
          if (wc[d].size() * sizeof(bench::JoinTuple) >= kWcBuf) {
            if (!flush(d)) return false;
          }
        }
        for (uint32_t d = 0; d < W; ++d) {
          if (!flush(d)) return false;
        }
        st.network += clock.now() - t0;

        // Barrier: all data must have arrived before local processing (the
        // synchronization DFI's streaming consume avoids).
        t0 = clock.now();
        if (!env.Fence(rank, window, &clock).ok()) return false;
        st.barrier += clock.now() - t0;
        return true;
      };

      const std::vector<bench::JoinTuple> inner = InnerChunk(config, w);
      if (!partition_relation(inner, inner_win, &st.received_inner)) {
        failed.store(true);
        return;
      }
      // Local partition + build of the received inner share.
      SimTime t0 = clock.now();
      const uint32_t num_buckets = 1u << config.local_radix_bits;
      std::vector<std::vector<bench::JoinTuple>> buckets(num_buckets);
      const auto* in_tuples =
          reinterpret_cast<const bench::JoinTuple*>(inner_win->local(rank));
      for (uint64_t i = 0; i < st.received_inner; ++i) {
        clock.Advance(scan_cost);
        buckets[LocalBucket(in_tuples[i].key, config.local_radix_bits)]
            .push_back(in_tuples[i]);
      }
      st.local += clock.now() - t0;
      t0 = clock.now();
      std::vector<JoinHashTable> tables(num_buckets);
      for (uint32_t b = 0; b < num_buckets; ++b) {
        tables[b].Reserve(buckets[b].size());
        for (const bench::JoinTuple& t : buckets[b]) {
          tables[b].Insert(t.key, t.payload);
          clock.Advance(config.build_cost_ns);
        }
      }
      st.build_probe += clock.now() - t0;

      const std::vector<bench::JoinTuple> outer = OuterChunk(config, w);
      if (!partition_relation(outer, outer_win, &st.received_outer)) {
        failed.store(true);
        return;
      }
      // Local partition + probe of the received outer share.
      t0 = clock.now();
      std::vector<std::vector<bench::JoinTuple>> obuckets(num_buckets);
      const auto* out_tuples =
          reinterpret_cast<const bench::JoinTuple*>(outer_win->local(rank));
      for (uint64_t i = 0; i < st.received_outer; ++i) {
        clock.Advance(scan_cost);
        obuckets[LocalBucket(out_tuples[i].key, config.local_radix_bits)]
            .push_back(out_tuples[i]);
      }
      st.local += clock.now() - t0;
      t0 = clock.now();
      for (uint32_t b = 0; b < num_buckets; ++b) {
        for (const bench::JoinTuple& t : obuckets[b]) {
          clock.Advance(config.probe_cost_ns);
          st.matches += tables[b].CountMatches(t.key);
        }
      }
      st.build_probe += clock.now() - t0;
      st.total = clock.now();
    });
  }
  actors.Join();
  if (failed.load()) return Status::Internal("MPI join rank failed");

  JoinResult result;
  SimTime total_max = 0;
  for (const RankStat& st : stats) {
    result.matches += st.matches;
    result.phases.histogram += st.histogram / W;
    result.phases.network_partition += st.network / W;
    result.phases.sync_barrier += st.barrier / W;
    result.phases.local_partition += st.local / W;
    result.phases.build_probe += st.build_probe / W;
    total_max = std::max(total_max, st.total);
  }
  result.phases.total = total_max;
  return result;
}

// ---------------------------------------------------------------------------
// DFI fragment-and-replicate join (paper "Join Adaptability")
// ---------------------------------------------------------------------------

StatusOr<JoinResult> RunDfiReplicateJoin(DfiRuntime* dfi,
                                         const std::vector<std::string>& nodes,
                                         const JoinConfig& config) {
  if (nodes.size() != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  const uint32_t W = config.total_workers();
  const net::SimConfig& sim = dfi->config();

  ReplicateFlowSpec spec;
  spec.name = "join.replicate";
  spec.sources = DfiNodes::GridOf(nodes, config.workers_per_node);
  spec.targets = DfiNodes::GridOf(nodes, config.workers_per_node);
  spec.schema = JoinSchema();
  spec.options.use_multicast = true;
  // Size the receive pools so the whole (small) inner relation fits without
  // credit blocking: workers push everything before they start draining.
  const uint64_t segments_needed =
      (config.inner_tuples * sizeof(bench::JoinTuple)) / 4000 + 2 * W + 16;
  spec.options.segments_per_ring = static_cast<uint32_t>(segments_needed);
  DFI_RETURN_IF_ERROR(dfi->InitReplicateFlow(std::move(spec)));

  std::atomic<uint64_t> total_matches{0};
  std::vector<SimTime> t_repl(W), t_total(W);
  std::atomic<bool> failed{false};
  exec::ActorGroup actors;

  for (uint32_t w = 0; w < W; ++w) {
    actors.Spawn(w / config.workers_per_node,
                 "repl.worker." + std::to_string(w), [&, w] {
      auto src = dfi->CreateReplicateSource("join.replicate", w);
      auto tgt = dfi->CreateReplicateTarget("join.replicate", w);
      if (!src.ok() || !tgt.ok()) {
        failed.store(true);
        return;
      }
      // Replicate the inner fragment to everyone.
      for (const bench::JoinTuple& t : InnerChunk(config, w)) {
        if (!(*src)->Push(&t).ok()) {
          failed.store(true);
          return;
        }
      }
      if (!(*src)->Close().ok()) {
        failed.store(true);
        return;
      }
      // Receive the full inner relation; build one table streaming.
      JoinHashTable table;
      table.Reserve(config.inner_tuples);
      const Schema schema = JoinSchema();
      SegmentView seg;
      while ((*tgt)->ConsumeSegment(&seg) != ConsumeResult::kFlowEnd) {
        for (uint32_t off = 0; off + 16 <= seg.bytes; off += 16) {
          TupleView t(seg.payload + off, &schema);
          (*tgt)->clock().Advance(sim.tuple_consume_fixed_ns +
                                  config.build_cost_ns);
          table.Insert(t.Get<uint64_t>(0), t.Get<uint64_t>(1));
        }
      }
      (*src)->clock().AdvanceTo((*tgt)->clock().now());
      t_repl[w] = (*tgt)->clock().now();

      // Probe the local outer fragment — zero network traffic.
      uint64_t matches = 0;
      for (const bench::JoinTuple& t : OuterChunk(config, w)) {
        (*tgt)->clock().Advance(config.probe_cost_ns);
        matches += table.CountMatches(t.key);
      }
      total_matches.fetch_add(matches, std::memory_order_relaxed);
      t_total[w] = (*tgt)->clock().now();
    });
  }
  actors.Join();
  DFI_RETURN_IF_ERROR(dfi->RemoveFlow("join.replicate"));
  if (failed.load()) return Status::Internal("replicate join worker failed");

  JoinResult result;
  result.matches = total_matches.load();
  SimTime repl_sum = 0, total_max = 0;
  for (uint32_t w = 0; w < W; ++w) {
    repl_sum += t_repl[w];
    total_max = std::max(total_max, t_total[w]);
  }
  result.phases.network_replication = repl_sum / W;
  result.phases.total = total_max;
  result.phases.build_probe = total_max - result.phases.network_replication;
  return result;
}

}  // namespace dfi::join
