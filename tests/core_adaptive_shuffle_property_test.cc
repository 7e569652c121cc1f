// Property tests for the skew-adaptive shuffle data plane: whatever the
// adaptive layer does (hot-key re-splitting, work stealing between
// same-node sinks), the flow must deliver exactly the static flow's
// multiset of tuples, never move a key off its home node, and fail cleanly
// when a peer crashes mid-migration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util/workload.h"
#include "common/exec/engine.h"
#include "common/hash.h"
#include "core/dfi_runtime.h"
#include "core/endpoint/policies.h"

namespace dfi {
namespace {

using bench::JoinTuple;

Schema KeyPayloadSchema() {
  return Schema{{"key", DataType::kUInt64}, {"payload", DataType::kUInt64}};
}

struct RunResult {
  /// Per target, in arrival order at that target.
  std::vector<std::vector<JoinTuple>> per_target;

  std::vector<std::pair<uint64_t, uint64_t>> SortedMultiset() const {
    std::vector<std::pair<uint64_t, uint64_t>> all;
    for (const auto& t : per_target) {
      for (const auto& j : t) all.emplace_back(j.key, j.payload);
    }
    std::sort(all.begin(), all.end());
    return all;
  }
};

std::vector<std::pair<uint64_t, uint64_t>> SortedMultiset(
    const std::vector<std::vector<JoinTuple>>& relations) {
  std::vector<std::pair<uint64_t, uint64_t>> all;
  for (const auto& r : relations) {
    for (const auto& j : r) all.emplace_back(j.key, j.payload);
  }
  std::sort(all.begin(), all.end());
  return all;
}

class AdaptiveShufflePropertyTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 2;
  static constexpr uint32_t kThreadsPerNode = 4;
  static constexpr uint32_t kTargets = kNodes * kThreadsPerNode;

  AdaptiveShufflePropertyTest() : dfi_(&fabric_) {
    for (net::NodeId id : fabric_.AddNodes(kNodes)) {
      addrs_.push_back(fabric_.node(id).address());
    }
  }

  /// Target t lives on node t / kThreadsPerNode (matrix order).
  static uint32_t NodeOfTarget(uint32_t target) {
    return target / kThreadsPerNode;
  }
  static uint32_t HomeTarget(uint64_t key) {
    return static_cast<uint32_t>(HashU64(key) % kTargets);
  }

  /// Runs one shuffle of `relations` (one vector per source) and collects
  /// every target's arrival sequence. `sources` are spread round-robin
  /// over the nodes.
  RunResult Run(const std::vector<std::vector<JoinTuple>>& relations,
                const AdaptiveShuffleOptions& adaptive,
                const std::string& name) {
    const uint32_t num_sources = static_cast<uint32_t>(relations.size());
    ShuffleFlowSpec spec;
    spec.name = name;
    for (uint32_t s = 0; s < num_sources; ++s) {
      spec.sources.Append(Endpoint{addrs_[s % kNodes], s});
    }
    for (uint32_t t = 0; t < kTargets; ++t) {
      spec.targets.Append(Endpoint{addrs_[NodeOfTarget(t)], t});
    }
    spec.schema = KeyPayloadSchema();
    spec.options.adaptive = adaptive;
    EXPECT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

    RunResult result;
    result.per_target.resize(kTargets);
    exec::Engine engine;
    for (uint32_t s = 0; s < num_sources; ++s) {
      engine.Spawn(s, "source", [&, s] {
        auto src = dfi_.CreateShuffleSource(name, s);
        ASSERT_TRUE(src.ok());
        for (const auto& t : relations[s]) {
          ASSERT_TRUE((*src)->Push(&t).ok());
        }
        ASSERT_TRUE((*src)->Close().ok());
      });
    }
    for (uint32_t t = 0; t < kTargets; ++t) {
      engine.Spawn(t, "target", [&, t] {
        auto tgt = dfi_.CreateShuffleTarget(name, t);
        ASSERT_TRUE(tgt.ok());
        TupleView tuple;
        while ((*tgt)->Consume(&tuple) != ConsumeResult::kFlowEnd) {
          result.per_target[t].push_back(
              JoinTuple{tuple.Get<uint64_t>(0), tuple.Get<uint64_t>(1)});
        }
      });
    }
    engine.Run();
    return result;
  }

  net::Fabric fabric_;
  DfiRuntime dfi_;
  std::vector<std::string> addrs_;
};

TEST_F(AdaptiveShufflePropertyTest, AdaptiveDeliversStaticMultiset) {
  // Across skews and seeds: the adaptive flow (sketch re-splitting + work
  // stealing) must deliver exactly the tuples the static flow delivers —
  // nothing lost, duplicated, or invented — and never move a tuple off
  // its key's home node.
  int variant = 0;
  for (double theta : {0.0, 0.99, 1.2}) {
    for (uint64_t seed : {1u, 7u}) {
      std::vector<std::vector<JoinTuple>> relations;
      for (uint32_t s = 0; s < 4; ++s) {
        relations.push_back(
            bench::GenerateZipfianRelation(4096, 1 << 16, theta, seed + s));
      }
      const auto pushed = SortedMultiset(relations);

      AdaptiveShuffleOptions off;  // static baseline
      auto st =
          Run(relations, off, "static" + std::to_string(variant));

      AdaptiveShuffleOptions on;
      on.enabled = true;
      on.hot_factor = 1.0;
      on.epoch_tuples = 512;
      auto ad = Run(relations, on, "adaptive" + std::to_string(variant));
      ++variant;

      EXPECT_EQ(st.SortedMultiset(), pushed)
          << "static flow lost tuples, theta=" << theta;
      EXPECT_EQ(ad.SortedMultiset(), pushed)
          << "adaptive flow and static flow disagree, theta=" << theta;

      // Node-level containment: work stealing may move a segment between
      // sink threads of one node, and re-splitting may move a hot key
      // between target threads of one node — but never across nodes.
      for (uint32_t t = 0; t < kTargets; ++t) {
        for (const auto& j : ad.per_target[t]) {
          ASSERT_EQ(NodeOfTarget(HomeTarget(j.key)), NodeOfTarget(t))
              << "key " << j.key << " left its home node";
        }
      }
    }
  }
}

TEST_F(AdaptiveShufflePropertyTest, AdaptiveRoutingIsDeterministic) {
  // The sketch/epoch state is a pure function of the source's own input
  // prefix: two partitioners fed the same tuples must make identical
  // decisions, and every re-split decision stays on the home node.
  const Schema schema = KeyPayloadSchema();
  std::vector<net::NodeId> target_nodes;
  for (uint32_t t = 0; t < kTargets; ++t) {
    target_nodes.push_back(static_cast<net::NodeId>(NodeOfTarget(t)));
  }
  AdaptiveShuffleOptions opts;
  opts.enabled = true;
  opts.hot_factor = 1.0;
  opts.epoch_tuples = 256;

  auto rel = bench::GenerateZipfianRelation(20000, 1 << 16, 1.1, 9);
  AdaptivePartitioner a(&schema, 0, target_nodes, opts, nullptr);
  AdaptivePartitioner b(&schema, 0, target_nodes, opts, nullptr);
  for (const auto& t : rel) {
    const uint32_t da = a.Route(reinterpret_cast<const uint8_t*>(&t));
    const uint32_t db = b.Route(reinterpret_cast<const uint8_t*>(&t));
    ASSERT_EQ(da, db);
    ASSERT_EQ(NodeOfTarget(da), NodeOfTarget(a.HomeTarget(t.key)));
  }
  EXPECT_GT(a.promotions(), 0u) << "skewed input promoted no keys";
  EXPECT_GT(a.resplit_tuples(), 0u);
  EXPECT_EQ(a.promotions(), b.promotions());
  EXPECT_EQ(a.resplit_tuples(), b.resplit_tuples());
}

/// The adaptive routing rules over std::unordered_map, as the partitioner
/// first implemented them: the reference its fixed sketch and hot-key
/// tables must reproduce decision for decision (no backpressure board).
class ModelPartitioner {
 public:
  ModelPartitioner(const std::vector<net::NodeId>& target_nodes,
                   const AdaptiveShuffleOptions& opts)
      : num_targets_(static_cast<uint32_t>(target_nodes.size())),
        opts_(opts),
        siblings_(target_nodes.size()) {
    for (uint32_t t = 0; t < num_targets_; ++t) {
      siblings_[t].push_back(t);
      for (uint32_t u = 0; u < num_targets_; ++u) {
        if (u != t && target_nodes[u] == target_nodes[t]) {
          siblings_[t].push_back(u);
        }
      }
    }
  }

  uint32_t Route(uint64_t key) {
    SketchAdd(key);
    if (++epoch_fill_ >= opts_.epoch_tuples) EndEpoch();
    auto it = hot_.find(key);
    if (it == hot_.end()) return Home(key);
    Hot& hot = it->second;
    const uint32_t target = hot.spread[hot.cursor];
    hot.cursor = (hot.cursor + 1) % static_cast<uint32_t>(hot.spread.size());
    if (target != hot.spread[0]) ++resplit_tuples;
    return target;
  }

  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t resplit_tuples = 0;

 private:
  struct Hot {
    std::vector<uint32_t> spread;
    uint32_t cursor = 0;
  };

  uint32_t Home(uint64_t key) const {
    return static_cast<uint32_t>(HashU64(key) % num_targets_);
  }

  void SketchAdd(uint64_t key) {
    auto it = sketch_.find(key);
    if (it != sketch_.end()) {
      ++it->second;
    } else if (sketch_.size() < 64) {
      sketch_.emplace(key, 1);
    } else {
      for (auto mg = sketch_.begin(); mg != sketch_.end();) {
        mg = --mg->second == 0 ? sketch_.erase(mg) : std::next(mg);
      }
    }
  }

  void EndEpoch() {
    epoch_fill_ = 0;
    const double threshold =
        opts_.hot_factor * opts_.epoch_tuples / num_targets_;
    for (auto it = hot_.begin(); it != hot_.end();) {
      const auto seen = sketch_.find(it->first);
      const double count =
          seen == sketch_.end() ? 0.0 : static_cast<double>(seen->second);
      if (count < threshold / 2) {
        ++demotions;
        it = hot_.erase(it);
        continue;
      }
      ++it;
    }
    std::vector<std::pair<uint64_t, uint64_t>> candidates;  // (count, key)
    for (const auto& [key, count] : sketch_) {
      if (static_cast<double>(count) >= threshold && hot_.count(key) == 0) {
        candidates.emplace_back(count, key);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    for (const auto& [count, key] : candidates) {
      if (hot_.size() >= 8) break;
      const uint32_t home = Home(key);
      if (siblings_[home].size() < 2) continue;
      Hot hot;
      hot.spread = siblings_[home];
      hot.cursor = static_cast<uint32_t>(HashU64(key) % hot.spread.size());
      ++promotions;
      hot_.emplace(key, std::move(hot));
    }
    sketch_.clear();
  }

  const uint32_t num_targets_;
  const AdaptiveShuffleOptions opts_;
  std::vector<std::vector<uint32_t>> siblings_;
  std::unordered_map<uint64_t, uint64_t> sketch_;
  std::unordered_map<uint64_t, Hot> hot_;
  uint32_t epoch_fill_ = 0;
};

TEST(AdaptivePartitionerModelTest, MatchesUnorderedMapModel) {
  // Seeded zipf streams shaped like the pipeline benchmark's (1024 keys,
  // 16 targets on 8 nodes) and a 4-per-node layout, with epochs short
  // enough that keys are promoted, demoted and capped at the hot-set
  // bound, and at the pipeline's own options (the defaults: 4096-tuple
  // epochs, hot_factor 4), where the sketch fills and decrements many
  // times per epoch: every decision and counter must match the model.
  const Schema schema = KeyPayloadSchema();
  uint64_t promotions = 0, demotions = 0;
  auto check_stream = [&](uint32_t per_node, const AdaptiveShuffleOptions& opts,
                          double theta, uint64_t seed, size_t tuples) {
    SCOPED_TRACE(testing::Message()
                 << "per_node " << per_node << " epoch " << opts.epoch_tuples
                 << " hot_factor " << opts.hot_factor << " theta " << theta
                 << " seed " << seed);
    std::vector<net::NodeId> target_nodes;
    for (uint32_t t = 0; t < 16; ++t) target_nodes.push_back(t / per_node);
    AdaptivePartitioner part(&schema, 0, target_nodes, opts, nullptr);
    ModelPartitioner model(target_nodes, opts);
    const auto rel = bench::GenerateZipfianRelation(tuples, 1024, theta, seed);
    for (size_t i = 0; i < rel.size(); ++i) {
      const uint32_t got =
          part.Route(reinterpret_cast<const uint8_t*>(&rel[i]));
      ASSERT_EQ(got, model.Route(rel[i].key)) << "tuple " << i;
    }
    EXPECT_EQ(part.promotions(), model.promotions);
    EXPECT_EQ(part.demotions(), model.demotions);
    EXPECT_EQ(part.resplit_tuples(), model.resplit_tuples);
    promotions += model.promotions;
    demotions += model.demotions;
  };
  for (const uint32_t per_node : {2u, 4u}) {
    for (const double theta : {0.99, 1.2}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        for (const uint32_t epoch : {64u, 256u}) {
          AdaptiveShuffleOptions opts;
          opts.enabled = true;
          opts.epoch_tuples = epoch;
          opts.hot_factor = 1.0;
          check_stream(per_node, opts, theta, seed, 20000);
        }
        AdaptiveShuffleOptions pipeline;
        pipeline.enabled = true;
        ASSERT_EQ(pipeline.epoch_tuples, 4096u);
        ASSERT_EQ(pipeline.hot_factor, 4.0);
        check_stream(per_node, pipeline, theta, seed, 1 << 16);
      }
    }
  }
  EXPECT_GT(promotions, 0u);
  EXPECT_GT(demotions, 0u);
}

TEST_F(AdaptiveShufflePropertyTest, CrashMidMigrationFailsCleanly) {
  // One source node crashes (fault plan, fail-stop) while the surviving
  // source is re-splitting hot keys and the sink group is stealing. Every
  // sink must come back with kPeerFailed — not hang, not report flow end
  // — and the tuples it did consume must be a duplicate-free subset of
  // what the live source pushed.
  fabric_.fault_plan().CrashNode(1, 10 * kMicrosecond);

  ShuffleFlowSpec spec;
  spec.name = "crash";
  spec.sources.Append(Endpoint{addrs_[0], 0});  // live
  spec.sources.Append(Endpoint{addrs_[1], 1});  // crashes, never attaches
  for (uint32_t t = 0; t < kThreadsPerNode; ++t) {
    spec.targets.Append(Endpoint{addrs_[0], t});
  }
  spec.schema = KeyPayloadSchema();
  spec.options.block_deadline_ns = 60 * kMillisecond;
  spec.options.adaptive.enabled = true;
  spec.options.adaptive.hot_factor = 1.0;
  spec.options.adaptive.epoch_tuples = 256;
  ASSERT_TRUE(dfi_.InitShuffleFlow(std::move(spec)).ok());

  auto rel = bench::GenerateHotKeyRelation(4096, 1 << 16, 2, 0.5, 5);
  const auto pushed = SortedMultiset({rel});

  exec::Engine engine;
  engine.Spawn(0, "source", [&] {
    auto src = dfi_.CreateShuffleSource("crash", 0);
    ASSERT_TRUE(src.ok());
    for (const auto& t : rel) {
      if (!(*src)->Push(&t).ok()) break;  // teardown may race the pushes
    }
    (void)(*src)->Close();
  });
  std::vector<std::vector<JoinTuple>> got(kThreadsPerNode);
  for (uint32_t t = 0; t < kThreadsPerNode; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto tgt = dfi_.CreateShuffleTarget("crash", t);
      ASSERT_TRUE(tgt.ok());
      TupleView tuple;
      ConsumeResult r;
      while ((r = (*tgt)->Consume(&tuple)) == ConsumeResult::kOk) {
        got[t].push_back(
            JoinTuple{tuple.Get<uint64_t>(0), tuple.Get<uint64_t>(1)});
      }
      EXPECT_EQ(r, ConsumeResult::kError);
      EXPECT_EQ((*tgt)->last_status().code(), StatusCode::kPeerFailed);
    });
  }
  engine.Run();

  auto consumed = SortedMultiset(got);
  EXPECT_EQ(std::adjacent_find(consumed.begin(), consumed.end()),
            consumed.end())
      << "a tuple was delivered twice during teardown";
  EXPECT_TRUE(std::includes(pushed.begin(), pushed.end(), consumed.begin(),
                            consumed.end()))
      << "a tuple was invented during teardown";
}

/// One segment a sink consumed from an adaptive shuffle.
struct ChannelDelivery {
  uint32_t sink = 0;
  uint16_t column = 0;
  uint16_t source = 0;
  uint64_t sequence = 0;
  SimTime arrival = 0;
  SimTime consumed_at = 0;  // the sink's clock once it got the segment
  std::vector<uint64_t> payloads;  // each tuple's index in its relation
  bool operator==(const ChannelDelivery&) const = default;
};

/// Target t of the single-target-node shuffle lives on this node: node 1
/// hosts target 3 alone.
constexpr uint32_t kSingleNodeOf[] = {0, 0, 0, 1, 2, 2};
constexpr uint32_t kSingleTargets = std::size(kSingleNodeOf);

/// Runs one adaptive shuffle of `relations` over three nodes, one of which
/// hosts a single target, and returns every segment in the order the
/// sinks consumed them. Each sink spends 50 ns of virtual time per tuple,
/// so skewed columns fall behind and their siblings steal. The lone
/// target's sink is a steal group of one column: it paces like its peers,
/// with no sibling to steal from.
std::vector<ChannelDelivery> RunSingleTargetNodeShuffle(
    const std::vector<std::vector<JoinTuple>>& relations) {
  net::Fabric fabric;
  std::vector<std::string> addrs;
  for (net::NodeId id : fabric.AddNodes(3)) {
    addrs.push_back(fabric.node(id).address());
  }
  DfiRuntime dfi(&fabric);
  ShuffleFlowSpec spec;
  spec.name = "single-target-node";
  for (uint32_t s = 0; s < relations.size(); ++s) {
    spec.sources.Append(Endpoint{addrs[s % addrs.size()], s});
  }
  for (uint32_t t = 0; t < kSingleTargets; ++t) {
    spec.targets.Append(Endpoint{addrs[kSingleNodeOf[t]], t});
  }
  spec.schema = KeyPayloadSchema();
  spec.options.adaptive.enabled = true;
  spec.options.adaptive.hot_factor = 1.0;
  spec.options.adaptive.epoch_tuples = 512;
  EXPECT_TRUE(dfi.InitShuffleFlow(std::move(spec)).ok());

  std::vector<ChannelDelivery> log;
  exec::Engine engine;
  for (uint32_t s = 0; s < relations.size(); ++s) {
    engine.Spawn(s, "source", [&, s] {
      auto src = dfi.CreateShuffleSource("single-target-node", s);
      ASSERT_TRUE(src.ok());
      for (const auto& t : relations[s]) ASSERT_TRUE((*src)->Push(&t).ok());
      ASSERT_TRUE((*src)->Close().ok());
    });
  }
  for (uint32_t t = 0; t < kSingleTargets; ++t) {
    engine.Spawn(t, "target", [&, t] {
      auto tgt = dfi.CreateShuffleTarget("single-target-node", t);
      ASSERT_TRUE(tgt.ok());
      SegmentView seg;
      ConsumeResult r;
      while ((r = (*tgt)->ConsumeSegment(&seg)) == ConsumeResult::kOk) {
        ChannelDelivery d{t, seg.target_column, seg.source_index,
                          seg.sequence, seg.arrival, (*tgt)->clock().now(),
                          {}};
        for (uint32_t off = 0; off + sizeof(JoinTuple) <= seg.bytes;
             off += sizeof(JoinTuple)) {
          JoinTuple j;
          std::memcpy(&j, seg.payload + off, sizeof(j));
          // Re-splitting and stealing stay on the key's home node.
          EXPECT_EQ(kSingleNodeOf[HashU64(j.key) % kSingleTargets],
                    kSingleNodeOf[seg.target_column]);
          d.payloads.push_back(j.payload);
        }
        (*tgt)->clock().Advance(50 * static_cast<SimTime>(d.payloads.size()));
        log.push_back(std::move(d));
      }
      EXPECT_EQ(r, ConsumeResult::kFlowEnd);
    });
  }
  engine.Run();
  return log;
}

TEST(AdaptiveSingleTargetNodeTest, ExactlyOncePerChannelAndRepeatable) {
  // Each (source, column) channel must serve its segments once each in
  // ring order, carrying its source's tuples in push order; together the
  // channels of a source carry every tuple of it exactly once. The lone
  // target's one-column group must neither steal nor be stolen from, and
  // two runs must consume the same segments in the same order at the same
  // virtual times.
  std::vector<std::vector<JoinTuple>> relations;
  for (uint32_t s = 0; s < 4; ++s) {
    relations.push_back(
        bench::GenerateZipfianRelation(4096, 1 << 16, 1.2, 11 + s));
    for (size_t i = 0; i < relations[s].size(); ++i) {
      relations[s][i].payload = i;
    }
  }
  const std::vector<ChannelDelivery> log =
      RunSingleTargetNodeShuffle(relations);

  uint64_t stolen = 0;
  std::vector<std::vector<uint64_t>> seen(relations.size());
  for (uint32_t s = 0; s < relations.size(); ++s) {
    for (uint32_t c = 0; c < kSingleTargets; ++c) {
      int64_t last_sequence = -1;
      int64_t last_payload = -1;
      for (const ChannelDelivery& d : log) {
        if (d.source != s || d.column != c) continue;
        EXPECT_GT(static_cast<int64_t>(d.sequence), last_sequence)
            << "channel " << s << "->" << c << " repeated or reordered";
        last_sequence = static_cast<int64_t>(d.sequence);
        for (const uint64_t p : d.payloads) {
          EXPECT_GT(static_cast<int64_t>(p), last_payload);
          last_payload = static_cast<int64_t>(p);
          seen[s].push_back(p);
        }
      }
    }
    std::sort(seen[s].begin(), seen[s].end());
    ASSERT_EQ(seen[s].size(), relations[s].size()) << "source " << s;
    for (size_t i = 0; i < seen[s].size(); ++i) ASSERT_EQ(seen[s][i], i);
  }
  for (const ChannelDelivery& d : log) {
    if (d.sink != d.column) ++stolen;
    EXPECT_EQ(d.sink == 3, d.column == 3)
        << "the lone target's column left its sink";
  }
  EXPECT_GT(stolen, 0u) << "no sink stole; the flow exercised no group";

  EXPECT_EQ(RunSingleTargetNodeShuffle(relations), log);
}

}  // namespace
}  // namespace dfi
