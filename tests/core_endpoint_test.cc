// Unit tests for the unified transport layer (FlowEndpoint / FlowSink /
// ChannelMatrix) exercised directly — no flow-type policy on top — so ring
// wrap-around, footer prefetch, deadline expiry and abort propagation are
// pinned down independently of shuffle/replicate/combiner semantics.
#include "core/endpoint/flow_endpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/exec/engine.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/policies.h"
#include "net/fabric.h"
#include "rdma/rdma_env.h"

namespace dfi {
namespace {

struct Rec {
  uint64_t seq;
  uint64_t payload;
};

Schema RecSchema() {
  return Schema{{"seq", DataType::kUInt64}, {"payload", DataType::kUInt64}};
}

constexpr uint32_t kTupleSize = sizeof(Rec);

class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest() : env_(&fabric_) {
    nodes_ = fabric_.AddNodes(2);
    schema_ = RecSchema();
  }

  /// 1x1 matrix: one source on nodes_[0], one target ring on nodes_[1].
  ChannelMatrix MakeMatrix(const FlowOptions& options) {
    return ChannelMatrix(&env_, options, kTupleSize, /*num_sources=*/1,
                         {nodes_[1]});
  }

  FlowSink MakeSink(ChannelMatrix* matrix, VirtualClock* clock,
                    const AbortLatch* latch = nullptr) {
    return FlowSink(matrix, /*target_index=*/0, &schema_, &env_.config(),
                    clock, "endpoint", {nodes_[0]}, latch);
  }

  net::Fabric fabric_;
  rdma::RdmaEnv env_;
  std::vector<net::NodeId> nodes_;
  Schema schema_;
};

// A ring much smaller than the pushed volume: every slot is rewritten many
// times, so delivery depends on the footer-driven release/recycle protocol
// (sequence numbers in footers, wrap-around of both rings).
TEST_F(EndpointTest, RingWrapAroundPreservesOrder) {
  FlowOptions options;
  options.segment_size = 256;      // 16 tuples per segment
  options.segments_per_ring = 4;   // target ring wraps every 4 segments
  options.source_segments = 2;     // staging ring wraps every 2
  ChannelMatrix matrix = MakeMatrix(options);

  constexpr uint64_t kTuples = 16 * 4 * 8;  // 8 full target-ring laps
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, /*source_index=*/0,
                          env_.context(nodes_[0]), &clock);
    Partitioner single = Partitioner::Single();
    for (uint64_t i = 0; i < kTuples; ++i) {
      Rec rec{i, ~i};
      ASSERT_TRUE(endpoint.Push(&rec, &single).ok());
    }
    ASSERT_TRUE(endpoint.Close().ok());
    // Bandwidth mode pipelines one footer prefetch per transmitted segment
    // (plus polls while blocked on a full ring).
    EXPECT_GT(endpoint.channel(0)->segments_sent(),
              uint64_t{options.segments_per_ring});
    EXPECT_GE(endpoint.channel(0)->footer_reads(),
              endpoint.channel(0)->segments_sent());
  });

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock);
  uint64_t next = 0;
  engine.Spawn(1, "consumer", [&] {
    SegmentView view;
    for (;;) {
      ConsumeResult r = sink.ConsumeSegment(&view);
      if (r == ConsumeResult::kFlowEnd) break;
      ASSERT_EQ(r, ConsumeResult::kOk) << sink.last_status();
      ASSERT_EQ(view.bytes % kTupleSize, 0u);
      for (uint32_t off = 0; off < view.bytes; off += kTupleSize) {
        Rec rec;
        std::memcpy(&rec, view.payload + off, sizeof(rec));
        ASSERT_EQ(rec.seq, next) << "tuple order broken across ring wrap";
        ASSERT_EQ(rec.payload, ~next);
        ++next;
      }
    }
  });
  engine.Run();
  EXPECT_EQ(next, kTuples);
}

// Per-tuple consume path across a wrapping ring (iteration state inside the
// held segment plus release on segment boundaries).
TEST_F(EndpointTest, TupleConsumeAcrossWrap) {
  FlowOptions options;
  options.segment_size = 128;  // 8 tuples per segment
  options.segments_per_ring = 2;
  ChannelMatrix matrix = MakeMatrix(options);

  constexpr uint64_t kTuples = 8 * 2 * 5;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
    for (uint64_t i = 0; i < kTuples; ++i) {
      Rec rec{i, i * 3};
      ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
    }
    ASSERT_TRUE(endpoint.Close().ok());
  });

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock);
  uint64_t next = 0;
  engine.Spawn(1, "consumer", [&] {
    TupleView tuple;
    while (sink.Consume(&tuple) == ConsumeResult::kOk) {
      ASSERT_EQ(tuple.Get<uint64_t>(0), next);
      ASSERT_EQ(tuple.Get<uint64_t>(1), next * 3);
      ++next;
    }
  });
  engine.Run();
  EXPECT_EQ(next, kTuples);
  EXPECT_TRUE(sink.last_status().ok());
}

// A source facing a full remote ring with no consumer must not hang: the
// footer poll gives up after block_deadline_ns of virtual waiting.
TEST_F(EndpointTest, PushDeadlineExpiresOnFullRing) {
  FlowOptions options;
  options.segment_size = 64;  // 4 tuples per segment
  options.segments_per_ring = 2;
  options.block_deadline_ns = 1 * kMillisecond;
  ChannelMatrix matrix = MakeMatrix(options);

  VirtualClock clock;
  FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
  Status status = Status::OK();
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    for (uint64_t i = 0; i < 64 && status.ok(); ++i) {
      Rec rec{i, 0};
      status = endpoint.PushTo(&rec, 0);
    }
  });
  engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  // The expired wait charged at least the deadline to virtual time.
  EXPECT_GE(clock.now(), options.block_deadline_ns);
}

// A sink whose source never shows up gives up after the deadline instead of
// blocking forever.
TEST_F(EndpointTest, ConsumeDeadlineExpiresWithSilentSource) {
  FlowOptions options;
  options.block_deadline_ns = 1 * kMillisecond;
  ChannelMatrix matrix = MakeMatrix(options);

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock);
  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    SegmentView view;
    EXPECT_EQ(sink.ConsumeSegment(&view), ConsumeResult::kError);
  });
  engine.Run();
  EXPECT_EQ(sink.last_status().code(), StatusCode::kDeadlineExceeded)
      << sink.last_status();
}

// Source-side Abort poisons the channel: the sink surfaces the cause as
// kError even though data (and no end-of-flow marker) was staged.
TEST_F(EndpointTest, AbortPropagatesSourceToSink) {
  FlowOptions options;
  ChannelMatrix matrix = MakeMatrix(options);

  VirtualClock source_clock;
  FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &source_clock);
  Rec rec{1, 2};
  ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());  // staged, not transmitted
  endpoint.Abort(Status::Aborted("source failed mid-flow"));

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock);
  SegmentView view;
  EXPECT_EQ(sink.ConsumeSegment(&view), ConsumeResult::kError);
  EXPECT_EQ(sink.last_status().code(), StatusCode::kAborted)
      << sink.last_status();
  // Further pushes on the aborted endpoint fail (the channel is closed).
  EXPECT_FALSE(endpoint.PushTo(&rec, 0).ok());
}

// Target-side Abort wakes a source blocked on the full ring (no deadline
// configured — teardown alone must interrupt the wait).
TEST_F(EndpointTest, AbortPropagatesSinkToSource) {
  FlowOptions options;
  options.segment_size = 64;  // 4 tuples per segment
  options.segments_per_ring = 2;
  ChannelMatrix matrix = MakeMatrix(options);

  bool blocked = false;
  Status push_status = Status::OK();
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
    for (uint64_t i = 0; i < 64; ++i) {
      Rec rec{i, 0};
      // Enough pushes to fill the remote ring; with nobody consuming the
      // transmit blocks until the abort below tears the channel down.
      blocked = i >= 8;
      push_status = endpoint.PushTo(&rec, 0);
      if (!push_status.ok()) return;
    }
  });

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock);
  // Runs once the producer has parked on the full ring.
  engine.Spawn(1, "aborter", [&] {
    EXPECT_TRUE(blocked);
    sink.Abort(Status::Aborted("target failed"));
  });
  engine.Run();
  EXPECT_EQ(push_status.code(), StatusCode::kAborted) << push_status;
}

// A tripped flow-level AbortLatch (replicate-style flow-granular teardown)
// unblocks a waiting sink with the latch's cause.
TEST_F(EndpointTest, FlowAbortLatchUnblocksSink) {
  FlowOptions options;  // no deadline: only the latch can end the wait
  ChannelMatrix matrix = MakeMatrix(options);
  AbortLatch latch;

  VirtualClock clock;
  FlowSink sink = MakeSink(&matrix, &clock, &latch);
  exec::Engine engine;
  engine.Spawn(0, "consumer", [&] {
    SegmentView view;
    EXPECT_EQ(sink.ConsumeSegment(&view), ConsumeResult::kError);
  });
  // Runs once the consumer has parked on its empty ring.
  engine.Spawn(1, "aborter", [&] {
    latch.Trip(Status::PeerFailed("sibling target crashed"));
    matrix.PoisonAll(latch.status());  // wake the gate, as flows do
  });
  engine.Run();
  EXPECT_EQ(sink.last_status().code(), StatusCode::kPeerFailed)
      << sink.last_status();
}

// AbortLatch semantics the flows rely on: first cause wins, OK causes are
// normalized to a generic abort.
TEST_F(EndpointTest, AbortLatchFirstCauseWins) {
  AbortLatch latch;
  EXPECT_FALSE(latch.tripped());
  EXPECT_TRUE(latch.status().ok());
  EXPECT_TRUE(latch.Trip(Status::DeadlineExceeded("first")));
  EXPECT_FALSE(latch.Trip(Status::Aborted("second")));
  EXPECT_TRUE(latch.tripped());
  EXPECT_EQ(latch.status().code(), StatusCode::kDeadlineExceeded);

  AbortLatch normalizing;
  EXPECT_TRUE(normalizing.Trip(Status::OK()));
  EXPECT_EQ(normalizing.status().code(), StatusCode::kAborted);
}

// ---------------------------------------------------------------------------
// Staging lanes
// ---------------------------------------------------------------------------

// The push that fills a segment transmits it in the same call: with four
// 16 B tuples per 64 B segment, segments_sent() steps at tuples 4, 8, 12,
// ... for Push, PushTo and one-tuple PushBatch alike, never a push later.
TEST_F(EndpointTest, PushThatFillsSegmentTransmitsIt) {
  FlowOptions options;
  options.segment_size = 64;  // 4 tuples per segment
  options.segments_per_ring = 32;
  ChannelMatrix matrix = MakeMatrix(options);
  constexpr uint64_t kPerSegment = 64 / kTupleSize;
  constexpr uint64_t kTuples = 3 * 3 * kPerSegment;  // 3 segments per kind

  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
    Partitioner single = Partitioner::Single();
    for (uint64_t i = 0; i < kTuples; ++i) {
      Rec rec{i, i};
      switch (i / (3 * kPerSegment)) {
        case 0:
          ASSERT_TRUE(endpoint.Push(&rec, &single).ok());
          break;
        case 1:
          ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
          break;
        default:
          ASSERT_TRUE(endpoint.PushBatch(&rec, 1, &single).ok());
      }
      EXPECT_EQ(endpoint.channel(0)->segments_sent(), (i + 1) / kPerSegment)
          << "after tuple " << i;
    }
    ASSERT_TRUE(endpoint.Close().ok());
  });
  engine.Run();
}

// A closed or aborted endpoint rejects every push with FailedPrecondition
// and stages nothing: no clock charge, no segment, no tuple at the sink.
// Out-of-range targets fail with OutOfRange, also without a charge.
TEST_F(EndpointTest, PushAfterCloseOrAbortFailsAndStagesNothing) {
  for (FlowOptimization opt :
       {FlowOptimization::kBandwidth, FlowOptimization::kLatency}) {
    for (bool abort : {false, true}) {
      const bool latency = opt == FlowOptimization::kLatency;
      SCOPED_TRACE(std::string(latency ? "latency" : "bandwidth") +
                   (abort ? ", abort" : ", close"));
      FlowOptions options;
      options.optimization = opt;
      ChannelMatrix matrix = MakeMatrix(options);
      VirtualClock clock;
      FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
      Partitioner single = Partitioner::Single();
      Partitioner stray = Partitioner::Generic(
          [](TupleView, uint32_t) { return 7u; }, &schema_, 1);
      Rec rec{1, 2};

      SimTime before = clock.now();
      EXPECT_EQ(endpoint.PushTo(&rec, 1).code(), StatusCode::kOutOfRange);
      EXPECT_EQ(endpoint.Push(&rec, &stray).code(), StatusCode::kOutOfRange);
      EXPECT_EQ(clock.now(), before);

      ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
      if (abort) {
        endpoint.Abort(Status::Aborted("source failed"));
      } else {
        ASSERT_TRUE(endpoint.Close().ok());
      }
      before = clock.now();
      const uint64_t sent = endpoint.channel(0)->segments_sent();
      EXPECT_EQ(endpoint.Push(&rec, &single).code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(endpoint.PushTo(&rec, 0).code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(endpoint.PushBatch(&rec, 1, &single).code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(clock.now(), before);
      EXPECT_EQ(endpoint.channel(0)->segments_sent(), sent);
      EXPECT_TRUE(endpoint.Close().ok());  // idempotent

      VirtualClock sink_clock;
      FlowSink sink = MakeSink(&matrix, &sink_clock);
      // Latency mode transmitted the first tuple before the abort; nothing
      // pushed afterwards arrives.
      TupleView tuple;
      const bool delivered = !abort || latency;
      if (delivered) {
        EXPECT_EQ(sink.Consume(&tuple), ConsumeResult::kOk);
        EXPECT_EQ(tuple.Get<uint64_t>(0), 1u);
      }
      EXPECT_EQ(sink.Consume(&tuple),
                abort ? ConsumeResult::kError : ConsumeResult::kFlowEnd);
    }
  }
}

// Ordered adaptive hand-off: when a hot key moves to a new owner, the
// tuples staged in the previous owner's lane are transmitted before the new
// owner's first tuple is staged, so the previous owner's segments sent by
// then hold every tuple routed to it so far.
TEST_F(EndpointTest, OrderedHandoffTransmitsPreviousOwnerLaneFirst) {
  FlowOptions options;
  options.segment_size = 256;  // 16 tuples: hand-offs meet partial segments
  options.segments_per_ring = 256;
  const std::vector<net::NodeId> target_nodes{nodes_[1], nodes_[1]};
  ChannelMatrix matrix(&env_, options, kTupleSize, /*num_sources=*/1,
                       target_nodes);
  AdaptiveShuffleOptions opts;
  opts.enabled = true;
  opts.ordered_handoff = true;
  opts.epoch_tuples = 32;
  opts.hot_factor = 1.0;  // hot at half an epoch; key 42 carries 3/4
  // Routes on the payload field. `twin` replays the router's decisions so
  // the test knows which pushes hand a key off.
  AdaptivePartitioner router(&schema_, 1, target_nodes, opts, nullptr);
  AdaptivePartitioner twin(&schema_, 1, target_nodes, opts, nullptr);

  struct Handoff {
    uint32_t from;         // previous owner
    uint64_t first;        // index of the new owner's first tuple
    uint64_t from_sent;    // previous owner's segments sent by then
    bool flushed;          // the hand-off transmitted a partial segment
  };
  std::vector<Handoff> handoffs;
  constexpr uint64_t kTuples = 4096;
  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
    for (uint64_t i = 0; i < kTuples; ++i) {
      Rec rec{i, i % 4 == 3 ? 1000 + i : 42};
      const AdaptivePartitioner::Decision d =
          twin.Route(reinterpret_cast<const uint8_t*>(&rec));
      const uint32_t from = static_cast<uint32_t>(d.flush_first);
      const uint64_t sent_before =
          d.flush_first >= 0 ? endpoint.channel(from)->segments_sent() : 0;
      ASSERT_TRUE(endpoint.PushAdaptive(&rec, &router).ok());
      if (d.flush_first >= 0) {
        const uint64_t sent = endpoint.channel(from)->segments_sent();
        handoffs.push_back(Handoff{from, i, sent, sent > sent_before});
      }
    }
    ASSERT_TRUE(endpoint.Close().ok());
  });
  // Per target: the tuple indices of each consumed segment, in order.
  std::vector<std::vector<std::vector<uint64_t>>> segments(2);
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(1 + t, "consumer", [&, t] {
      VirtualClock clock;
      FlowSink sink(&matrix, t, &schema_, &env_.config(), &clock, "endpoint",
                    {nodes_[0]});
      SegmentView view;
      while (sink.ConsumeSegment(&view) == ConsumeResult::kOk) {
        std::vector<uint64_t>& seqs = segments[t].emplace_back();
        for (uint32_t off = 0; off < view.bytes; off += kTupleSize) {
          Rec rec;
          std::memcpy(&rec, view.payload + off, sizeof(rec));
          seqs.push_back(rec.seq);
        }
      }
    });
  }
  engine.Run();

  ASSERT_FALSE(handoffs.empty());
  size_t flushed = 0;
  for (const Handoff& h : handoffs) {
    SCOPED_TRACE("hand-off at tuple " + std::to_string(h.first));
    const auto& from_segments = segments[h.from];
    ASSERT_LE(h.from_sent, from_segments.size());
    uint64_t sent_tuples = 0;
    for (uint64_t s = 0; s < h.from_sent; ++s) {
      sent_tuples += from_segments[s].size();
    }
    uint64_t earlier_tuples = 0;
    for (const auto& seqs : from_segments) {
      for (uint64_t seq : seqs) earlier_tuples += seq < h.first ? 1 : 0;
    }
    EXPECT_EQ(sent_tuples, earlier_tuples);
    flushed += h.flushed ? 1 : 0;
  }
  EXPECT_GT(flushed, 0u) << "no hand-off met a partially staged segment";
}

// ---------------------------------------------------------------------------
// Backpressure signal (TargetLoadBoard) and its adaptive-routing reaction
// ---------------------------------------------------------------------------

TEST(TargetLoadBoardTest, RiseFallThresholdsWithHysteresis) {
  TargetLoadBoard board(/*num_targets=*/1, /*high=*/4, /*low=*/2);
  EXPECT_EQ(board.depth(0), 0u);
  EXPECT_FALSE(board.saturated(0));

  // Below the high-water mark: never saturated.
  for (int i = 0; i < 3; ++i) board.OnDelivered(0);
  EXPECT_EQ(board.depth(0), 3u);
  EXPECT_FALSE(board.saturated(0));

  // Trips exactly at `high`.
  board.OnDelivered(0);
  EXPECT_TRUE(board.saturated(0));

  // Hysteresis: stays saturated while depth is above `low`...
  board.OnConsumed(0);
  EXPECT_EQ(board.depth(0), 3u);
  EXPECT_TRUE(board.saturated(0));

  // ...and clears exactly at `low`, so a target hovering around one
  // threshold cannot flap.
  board.OnConsumed(0);
  EXPECT_EQ(board.depth(0), 2u);
  EXPECT_FALSE(board.saturated(0));

  // Climbing back above `low` (but below `high`) does not re-trip.
  board.OnDelivered(0);
  EXPECT_FALSE(board.saturated(0));
}

TEST(TargetLoadBoardTest, SlotsAreIndependent) {
  TargetLoadBoard board(/*num_targets=*/3, /*high=*/2, /*low=*/1);
  board.OnDelivered(1);
  board.OnDelivered(1);
  EXPECT_TRUE(board.saturated(1));
  EXPECT_FALSE(board.saturated(0));
  EXPECT_FALSE(board.saturated(2));
  EXPECT_EQ(board.depth(0), 0u);
  EXPECT_EQ(board.depth(2), 0u);
}

TEST(AdaptiveBackpressureTest, SaturatedTargetThrottlesOnlyItsOwnSources) {
  // 2 nodes x 2 target threads: targets {0,1} on node 0, {2,3} on node 1.
  // Saturating target 0 must divert only the tuples homed at target 0 —
  // and only to its same-node sibling — while traffic for every other
  // target routes exactly as the static partitioner would.
  const Schema schema{{"key", DataType::kUInt64}};
  const std::vector<net::NodeId> target_nodes{0, 0, 1, 1};
  AdaptiveShuffleOptions opts;
  opts.enabled = true;
  opts.react_to_backpressure = true;
  opts.backpressure_high = 4;
  opts.backpressure_low = 2;
  TargetLoadBoard board(4, opts.backpressure_high, opts.backpressure_low);
  AdaptivePartitioner part(&schema, 0, target_nodes, opts, &board);

  // One representative cold key per home target.
  uint64_t key_for[4];
  for (uint32_t found = 0, k = 0; found != 0xf; ++k) {
    const uint32_t home = part.HomeTarget(k);
    if ((found & (1u << home)) == 0) {
      key_for[home] = k;
      found |= 1u << home;
    }
  }

  auto route = [&](uint64_t key) {
    return part.Route(reinterpret_cast<const uint8_t*>(&key)).target;
  };

  // Unsaturated: everything goes to its static home.
  for (uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(route(key_for[t]), t);
  }

  // Saturate target 0.
  for (uint32_t i = 0; i < opts.backpressure_high; ++i) board.OnDelivered(0);
  ASSERT_TRUE(board.saturated(0));

  // Its traffic diverts to the same-node sibling (target 1)...
  EXPECT_EQ(route(key_for[0]), 1u);
  EXPECT_GT(part.diverted_tuples(), 0u);
  // ...but never across nodes, and other targets' traffic is untouched.
  const uint64_t diverted_before = part.diverted_tuples();
  EXPECT_EQ(route(key_for[1]), 1u);
  EXPECT_EQ(route(key_for[2]), 2u);
  EXPECT_EQ(route(key_for[3]), 3u);
  EXPECT_EQ(part.diverted_tuples(), diverted_before);

  // With every sibling of the node saturated there is nowhere better to
  // go: the tuple stays home rather than leaving the node.
  for (uint32_t i = 0; i < opts.backpressure_high; ++i) board.OnDelivered(1);
  ASSERT_TRUE(board.saturated(1));
  EXPECT_EQ(route(key_for[0]), 0u);

  // Hysteresis end-to-end: draining target 0 to the low-water mark lifts
  // the diversion.
  for (uint32_t i = 0; i < opts.backpressure_high; ++i) board.OnConsumed(0);
  ASSERT_FALSE(board.saturated(0));
  EXPECT_EQ(route(key_for[0]), 0u);
}

TEST(AdaptiveBackpressureTest, NoReactionWithoutOptInOrBoard) {
  // The board is advisory: without react_to_backpressure (or without a
  // board at all) routing must ignore saturation — that is what keeps the
  // default adaptive path bit-deterministic.
  const Schema schema{{"key", DataType::kUInt64}};
  const std::vector<net::NodeId> target_nodes{0, 0};
  TargetLoadBoard board(2, 2, 1);
  board.OnDelivered(0);
  board.OnDelivered(0);
  ASSERT_TRUE(board.saturated(0));

  uint64_t key0 = 0;
  AdaptiveShuffleOptions opts;
  opts.enabled = true;
  opts.react_to_backpressure = false;
  {
    AdaptivePartitioner part(&schema, 0, target_nodes, opts, &board);
    while (part.HomeTarget(key0) != 0) ++key0;
    EXPECT_EQ(part.Route(reinterpret_cast<const uint8_t*>(&key0)).target, 0u);
    EXPECT_EQ(part.diverted_tuples(), 0u);
  }
  {
    opts.react_to_backpressure = true;  // opted in, but no board wired up
    AdaptivePartitioner part(&schema, 0, target_nodes, opts, nullptr);
    EXPECT_EQ(part.Route(reinterpret_cast<const uint8_t*>(&key0)).target, 0u);
    EXPECT_EQ(part.diverted_tuples(), 0u);
  }
}

}  // namespace
}  // namespace dfi
