// Property tests for the skew-adaptive shuffle data plane: whatever the
// adaptive layer does (hot-key re-splitting, ordered hand-off, work
// stealing between same-node sinks), the flow must deliver exactly the
// static flow's multiset of tuples, never move a key off its home node,
// keep per-key order reconstructible in ordered mode, and fail cleanly
// when a peer crashes mid-migration.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

TEST_F(AdaptiveShufflePropertyTest, OrderedHandoffKeepsPerKeyOrder) {
  // Ordered hand-off: a hot key has exactly one owning target at a time,
  // re-homed only at epoch boundaries with the previous owner's channel
  // flushed first. With a single source, each (key, target) arrival
  // sequence must be push-ordered, and a key's tuples in push order must
  // switch targets only at hand-offs — at most once per epoch, not per
  // tuple like the unordered round-robin spread.
  const uint64_t count = 8192;
  const uint32_t epoch = 512;
  std::vector<std::vector<JoinTuple>> relations{
      bench::GenerateHotKeyRelation(count, 1 << 16, 2, 0.6, 3)};
  const auto pushed = SortedMultiset(relations);

  AdaptiveShuffleOptions on;
  on.enabled = true;
  on.hot_factor = 1.0;
  on.epoch_tuples = epoch;
  on.ordered_handoff = true;
  auto run = Run(relations, on, "ordered");

  EXPECT_EQ(run.SortedMultiset(), pushed);

  // Payloads are the push index, so "push order" is payload order.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint32_t>>> per_key;
  for (uint32_t t = 0; t < kTargets; ++t) {
    std::map<uint64_t, uint64_t> last_payload;
    for (const auto& j : run.per_target[t]) {
      auto it = last_payload.find(j.key);
      if (it != last_payload.end()) {
        EXPECT_LT(it->second, j.payload)
            << "per-key arrival order inverted at target " << t;
      }
      last_payload[j.key] = j.payload;
      per_key[j.key].emplace_back(j.payload, t);
    }
  }
  const uint64_t epochs = count / epoch;
  for (uint64_t key : {0u, 1u}) {
    auto& seq = per_key[key];
    ASSERT_FALSE(seq.empty());
    std::sort(seq.begin(), seq.end());
    uint64_t switches = 0;
    for (size_t i = 1; i < seq.size(); ++i) {
      if (seq[i].second != seq[i - 1].second) ++switches;
    }
    // Each epoch boundary re-homes the key at most once (plus the initial
    // promotion). The unordered spread would switch on nearly every tuple
    // (thousands of times here).
    EXPECT_LE(switches, epochs + 1)
        << "hot key " << key << " changed targets mid-epoch";
    EXPECT_GE(switches, 1u)
        << "hot key " << key << " was never re-homed across "
        << epochs << " epochs";
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
    const auto da = a.Route(reinterpret_cast<const uint8_t*>(&t));
    const auto db = b.Route(reinterpret_cast<const uint8_t*>(&t));
    ASSERT_EQ(da.target, db.target);
    ASSERT_EQ(da.flush_first, db.flush_first);
    ASSERT_EQ(NodeOfTarget(da.target), NodeOfTarget(a.HomeTarget(t.key)));
  }
  EXPECT_GT(a.promotions(), 0u) << "skewed input promoted no keys";
  EXPECT_GT(a.resplit_tuples(), 0u);
  EXPECT_EQ(a.promotions(), b.promotions());
  EXPECT_EQ(a.resplit_tuples(), b.resplit_tuples());
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

}  // namespace
}  // namespace dfi
