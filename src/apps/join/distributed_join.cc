#include "apps/join/distributed_join.h"

#include <cstring>
#include <utility>

#include "bench_util/workload.h"
#include "core/replicate_flow.h"
#include "common/hash.h"
#include "common/exec/engine.h"
#include "common/radix_join_table.h"
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

/// Key of tuple i of a segment of JoinTuples.
uint64_t SegmentKey(const SegmentView& seg, size_t i) {
  uint64_t key;
  std::memcpy(&key, seg.payload + i * sizeof(bench::JoinTuple), sizeof(key));
  return key;
}

/// Whole JoinTuples in a segment.
size_t SegmentTuples(const SegmentView& seg) {
  return seg.bytes / sizeof(bench::JoinTuple);
}

Status CheckConfig(const JoinConfig& config, size_t num_nodes) {
  if (num_nodes != config.num_nodes) {
    return Status::InvalidArgument("node list does not match config");
  }
  if (config.local_radix_bits > kMaxLocalRadixBits) {
    return Status::InvalidArgument(
        "local_radix_bits " + std::to_string(config.local_radix_bits) +
        " exceeds " + std::to_string(kMaxLocalRadixBits));
  }
  return Status::OK();
}

SimTime MaxClock(ShuffleSource& a, ShuffleTarget& b) {
  return std::max(a.clock().now(), b.clock().now());
}

void JoinClocks(ShuffleSource& a, ShuffleTarget& b) {
  const SimTime t = MaxClock(a, b);
  a.clock().AdvanceTo(t);
  b.clock().AdvanceTo(t);
}

/// One shuffle phase of a worker: pushes `chunk` through `src`, every 256
/// pushes hands whatever already arrived at `tgt` to `step`
/// (compute/communication overlap), then closes `src` and drains `tgt` to
/// the flow end. Returns the first failed push, close or consume.
template <typename Step>
Status ShuffleAndDrain(ShuffleSource& src, ShuffleTarget& tgt,
                       const std::vector<bench::JoinTuple>& chunk,
                       Step step) {
  bool drained = false;
  uint64_t i = 0;
  for (const bench::JoinTuple& t : chunk) {
    DFI_RETURN_IF_ERROR(src.Push(&t));
    if (++i % 256 != 0) continue;
    SegmentView seg;
    ConsumeResult r;
    while (!drained && tgt.TryConsumeSegment(&seg, &r)) {
      if (r == ConsumeResult::kFlowEnd) {
        drained = true;
      } else if (r != ConsumeResult::kOk) {
        return tgt.last_status();
      } else {
        step(seg);
      }
    }
  }
  DFI_RETURN_IF_ERROR(src.Close());
  while (!drained) {
    SegmentView seg;
    const ConsumeResult r = tgt.ConsumeSegment(&seg);
    if (r == ConsumeResult::kFlowEnd) break;
    if (r != ConsumeResult::kOk) return tgt.last_status();
    step(seg);
  }
  return Status::OK();
}

/// The first failure of a join's workers. The first one to fail aborts the
/// join's flows, so workers blocked on the failed one wake with an error
/// instead of waiting for data that never comes.
class JoinFailure {
 public:
  JoinFailure(DfiRuntime* dfi, std::vector<std::string> flows)
      : dfi_(dfi), flows_(std::move(flows)) {}

  void Fail(const Status& cause) {
    if (!status_.ok()) return;
    status_ = cause;
    for (const std::string& flow : flows_) (void)dfi_->AbortFlow(flow, cause);
  }
  const Status& status() const { return status_; }

 private:
  DfiRuntime* const dfi_;
  const std::vector<std::string> flows_;
  Status status_;
};

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
  DFI_RETURN_IF_ERROR(CheckConfig(config, nodes.size()));
  const uint32_t W = config.total_workers();
  const net::SimConfig& sim = dfi->config();

  // Both relations shuffle on the default key-hash routing over field 0,
  // the first-level radix partition NetworkDest computes for the MPI join.
  const DfiNodes grid = DfiNodes::GridOf(nodes, config.workers_per_node);
  auto init_flow = [&](const char* name) {
    ShuffleFlowSpec spec;
    spec.name = name;
    spec.sources = grid;
    spec.targets = grid;
    spec.schema = JoinSchema();
    return dfi->InitShuffleFlow(std::move(spec));
  };
  DFI_RETURN_IF_ERROR(init_flow("join.inner"));
  if (Status s = init_flow("join.outer"); !s.ok()) {
    (void)dfi->RemoveFlow("join.inner");
    return s;
  }

  uint64_t total_matches = 0;
  std::vector<SimTime> t_partition(W), t_total(W);
  exec::ActorGroup actors;
  JoinFailure failure(dfi, {"join.inner", "join.outer"});

  for (uint32_t w = 0; w < W; ++w) {
    actors.Spawn(w / config.workers_per_node,
                 "join.worker." + std::to_string(w), [&, w] {
      auto src1 = dfi->CreateShuffleSource("join.inner", w);
      auto tgt1 = dfi->CreateShuffleTarget("join.inner", w);
      auto src2 = dfi->CreateShuffleSource("join.outer", w);
      auto tgt2 = dfi->CreateShuffleTarget("join.outer", w);
      for (const Status& s : {src1.status(), tgt1.status(), src2.status(),
                              tgt2.status()}) {
        if (!s.ok()) return failure.Fail(s);
      }
      RadixJoinTable table(config.local_radix_bits);

      // --- Phase 1: network shuffle of the inner relation, local
      // partitioning streamed as segments arrive (no histogram pass, no
      // barrier — the DFI design win of section 6.3.1).
      uint64_t built = 0;
      auto partition_inner_segment = [&](const SegmentView& seg) {
        const size_t n = SegmentTuples(seg);
        for (size_t i = 0; i < n; ++i) table.AddBuild(SegmentKey(seg, i));
        built += n;
        (*tgt1)->clock().Advance(
            static_cast<SimTime>(n) *
            (sim.tuple_consume_fixed_ns + sim.join_partition_ns));
      };
      if (Status s = ShuffleAndDrain(**src1, **tgt1, InnerChunk(config, w),
                                     partition_inner_segment);
          !s.ok()) {
        return failure.Fail(s);
      }
      JoinClocks(**src1, **tgt1);
      t_partition[w] = (*tgt1)->clock().now();

      // --- Build: charged here per build key; Matches fills the hash
      // table one cache-sized partition at a time.
      (*tgt1)->clock().Advance(static_cast<SimTime>(built) *
                               sim.join_build_ns);
      (*src2)->clock().AdvanceTo((*tgt1)->clock().now());
      (*tgt2)->clock().AdvanceTo((*tgt1)->clock().now());

      // --- Phase 2: shuffle the outer relation, local partitioning and
      // probe streamed on arrival.
      auto probe_segment = [&](const SegmentView& seg) {
        const size_t n = SegmentTuples(seg);
        for (size_t i = 0; i < n; ++i) table.AddProbe(SegmentKey(seg, i));
        (*tgt2)->clock().Advance(
            static_cast<SimTime>(n) * (sim.tuple_consume_fixed_ns +
                                       sim.join_partition_ns +
                                       sim.join_probe_ns));
      };
      if (Status s = ShuffleAndDrain(**src2, **tgt2, OuterChunk(config, w),
                                     probe_segment);
          !s.ok()) {
        return failure.Fail(s);
      }
      JoinClocks(**src2, **tgt2);
      total_matches += table.Matches();
      t_total[w] = (*tgt2)->clock().now();
    });
  }
  actors.Join();
  const Status removed = dfi->RemoveFlows({"join.inner", "join.outer"});
  DFI_RETURN_IF_ERROR(failure.status());
  DFI_RETURN_IF_ERROR(removed);

  JoinResult result;
  result.matches = total_matches;
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
// MPI radix join baseline (Barthels et al. [2])
// ---------------------------------------------------------------------------

StatusOr<JoinResult> RunMpiRadixJoin(net::Fabric* fabric,
                                     const std::vector<net::NodeId>& nodes,
                                     const JoinConfig& config) {
  DFI_RETURN_IF_ERROR(CheckConfig(config, nodes.size()));
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
  const SimTime scan_cost = sim.tuple_consume_fixed_ns + sim.join_partition_ns;

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
  bool failed = false;
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
          clock.Advance(sim.join_histogram_ns);
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
        failed = true;
        return;
      }
      // Local partition + build of the received inner share.
      RadixJoinTable table(config.local_radix_bits);
      const auto* in_tuples =
          reinterpret_cast<const bench::JoinTuple*>(inner_win->local(rank));
      for (uint64_t i = 0; i < st.received_inner; ++i) {
        table.AddBuild(in_tuples[i].key);
      }
      const SimTime local_inner =
          static_cast<SimTime>(st.received_inner) * scan_cost;
      clock.Advance(local_inner);
      st.local += local_inner;
      const SimTime build =
          static_cast<SimTime>(st.received_inner) * sim.join_build_ns;
      clock.Advance(build);
      st.build_probe += build;

      const std::vector<bench::JoinTuple> outer = OuterChunk(config, w);
      if (!partition_relation(outer, outer_win, &st.received_outer)) {
        failed = true;
        return;
      }
      // Local partition + probe of the received outer share: the
      // partitioning pass (scan_cost per tuple) copies each key into its
      // partition, and the table then joins one partition at a time.
      const auto* out_tuples =
          reinterpret_cast<const bench::JoinTuple*>(outer_win->local(rank));
      for (uint64_t i = 0; i < st.received_outer; ++i) {
        table.AddProbe(out_tuples[i].key);
      }
      st.matches = table.Matches();
      const SimTime local_outer =
          static_cast<SimTime>(st.received_outer) * scan_cost;
      const SimTime probe =
          static_cast<SimTime>(st.received_outer) * sim.join_probe_ns;
      clock.Advance(local_outer + probe);
      st.local += local_outer;
      st.build_probe += probe;
      st.total = clock.now();
    });
  }
  actors.Join();
  if (failed) return Status::Internal("MPI join rank failed");

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
  DFI_RETURN_IF_ERROR(CheckConfig(config, nodes.size()));
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

  uint64_t total_matches = 0;
  std::vector<SimTime> t_repl(W), t_total(W);
  JoinFailure failure(dfi, {"join.replicate"});
  exec::ActorGroup actors;

  for (uint32_t w = 0; w < W; ++w) {
    actors.Spawn(w / config.workers_per_node,
                 "repl.worker." + std::to_string(w), [&, w] {
      auto src = dfi->CreateReplicateSource("join.replicate", w);
      auto tgt = dfi->CreateReplicateTarget("join.replicate", w);
      if (!src.ok()) return failure.Fail(src.status());
      if (!tgt.ok()) return failure.Fail(tgt.status());
      // Replicate the inner fragment to everyone.
      for (const bench::JoinTuple& t : InnerChunk(config, w)) {
        if (Status s = (*src)->Push(&t); !s.ok()) return failure.Fail(s);
      }
      if (Status s = (*src)->Close(); !s.ok()) return failure.Fail(s);
      // Receive the full inner relation into one unpartitioned table.
      RadixJoinTable table(0);
      SegmentView seg;
      for (;;) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        if (r == ConsumeResult::kFlowEnd) break;
        if (r != ConsumeResult::kOk) return failure.Fail((*tgt)->last_status());
        const size_t n = SegmentTuples(seg);
        for (size_t i = 0; i < n; ++i) table.AddBuild(SegmentKey(seg, i));
        (*tgt)->clock().Advance(
            static_cast<SimTime>(n) *
            (sim.tuple_consume_fixed_ns + sim.join_build_ns));
      }
      (*src)->clock().AdvanceTo((*tgt)->clock().now());
      t_repl[w] = (*tgt)->clock().now();

      // Probe the local outer fragment — zero network traffic.
      const std::vector<bench::JoinTuple> outer = OuterChunk(config, w);
      for (const bench::JoinTuple& t : outer) table.AddProbe(t.key);
      total_matches += table.Matches();
      (*tgt)->clock().Advance(static_cast<SimTime>(outer.size()) *
                              sim.join_probe_ns);
      t_total[w] = (*tgt)->clock().now();
    });
  }
  actors.Join();
  const Status removed = dfi->RemoveFlow("join.replicate");
  DFI_RETURN_IF_ERROR(failure.status());
  DFI_RETURN_IF_ERROR(removed);

  JoinResult result;
  result.matches = total_matches;
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
