// Unit tests for the unified transport layer (FlowEndpoint / FlowSink /
// ChannelMatrix) exercised directly — no flow-type policy on top — so ring
// wrap-around, footer prefetch, deadline expiry and abort propagation are
// pinned down independently of shuffle/replicate/combiner semantics.
#include "core/endpoint/flow_endpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/exec/engine.h"
#include "core/endpoint/flow_sink.h"
#include "core/endpoint/multicast.h"
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
    return FlowSink(matrix, /*target_index=*/0, /*group=*/nullptr, &schema_,
                    &env_.config(), clock, "endpoint", {nodes_[0]}, latch);
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

// A sink without siblings drains its column alone: no pacing, no level
// filling, no busy marking and no group wakeups. Draining k delivered
// segments and the end marker bumps the progress epoch once per release
// (k + 1), as the exclusive sink before the one drain loop did; the
// consensus loops that park on the epoch (Fig 15) see the same wakeups. A
// one-column steal group wakes its group on every release on top.
TEST_F(EndpointTest, SinkWithoutSiblingsBumpsProgressOncePerRelease) {
  constexpr uint64_t kSegments = 5;
  FlowOptions options;
  options.segment_size = 64;  // 4 tuples per segment
  options.segments_per_ring = 16;
  auto drain = [&](bool grouped) {
    ChannelMatrix matrix = MakeMatrix(options);
    SinkStealGroup group;
    if (grouped) {
      group.AddColumn(matrix.column(0));
      matrix.channel(0, 0)->set_steal_wake(&group.wake());
    }
    {
      exec::Engine engine;
      engine.Spawn(0, "producer", [&] {
        VirtualClock clock;
        FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
        for (uint64_t i = 0; i < kSegments * 4; ++i) {
          Rec rec{i, 0};
          ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
        }
        ASSERT_TRUE(endpoint.Close().ok());
      });
      engine.Run();
    }
    VirtualClock clock;
    FlowSink sink(&matrix, /*target_index=*/0, grouped ? &group : nullptr,
                  &schema_, &env_.config(), &clock, "endpoint", {nodes_[0]});
    uint64_t segments = 0;
    uint64_t bumps = 0;
    exec::Engine engine;
    engine.Spawn(1, "consumer", [&] {
      const uint64_t before = exec::ProgressEpoch();
      SegmentView view;
      ConsumeResult r;
      while ((r = sink.ConsumeSegment(&view)) == ConsumeResult::kOk) {
        ++segments;
      }
      EXPECT_EQ(r, ConsumeResult::kFlowEnd) << sink.last_status();
      bumps = exec::ProgressEpoch() - before;
    });
    engine.Run();
    EXPECT_EQ(segments, kSegments);
    return bumps;
  };
  EXPECT_EQ(drain(/*grouped=*/false), kSegments + 1);
  EXPECT_GT(drain(/*grouped=*/true), kSegments + 1);
}

// Two sinks of one steal group never hold the same channel at once: while
// sink A iterates segment 0 of its channel, sink B (below the group's
// clock, so allowed to steal) finds the channel's next announcement busy
// and defers it; A's release replays it, and A then consumes segment 1 in
// ring order. Taking the cursor anyway would release A's segment under it.
TEST_F(EndpointTest, StealGroupDefersAChannelASiblingHolds) {
  FlowOptions options;
  options.segment_size = 64;     // 4 tuples per segment
  options.segments_per_ring = 2;  // two delivered segments fill the ring
  ChannelMatrix matrix(&env_, options, kTupleSize, /*num_sources=*/1,
                       {nodes_[1], nodes_[1]});
  SinkStealGroup group;
  for (uint32_t t = 0; t < 2; ++t) {
    group.AddColumn(matrix.column(t));
    matrix.channel(0, t)->set_steal_wake(&group.wake());
  }
  VirtualClock clock_a;
  VirtualClock clock_b;
  FlowSink sink_a(&matrix, 0, &group, &schema_, &env_.config(), &clock_a,
                  "endpoint", {nodes_[0]});
  FlowSink sink_b(&matrix, 1, &group, &schema_, &env_.config(), &clock_b,
                  "endpoint", {nodes_[0]});
  exec::Engine engine;
  engine.Spawn(0, "sinks", [&] {
    VirtualClock source_clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]),
                          &source_clock);
    for (uint64_t i = 0; i < 8; ++i) {
      Rec rec{i, 0};
      ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
    }
    // A runs ahead of B, and its full ring keeps it from deferring its
    // own column to B.
    clock_a.AdvanceTo(1 * kMillisecond);
    SegmentView view;
    ConsumeResult r;
    ASSERT_TRUE(sink_a.TryConsumeSegment(&view, &r));
    EXPECT_EQ(r, ConsumeResult::kOk);
    EXPECT_EQ(view.sequence, 0u);
    EXPECT_FALSE(sink_b.TryConsumeSegment(&view, &r))
        << "B took segment " << view.sequence << " of a channel A holds";
    ASSERT_TRUE(sink_a.TryConsumeSegment(&view, &r));
    EXPECT_EQ(r, ConsumeResult::kOk);
    EXPECT_EQ(view.sequence, 1u);
    EXPECT_EQ(view.target_column, 0u);
    EXPECT_EQ(sink_b.stolen_segments(), 0u);
    endpoint.Abort(Status::Aborted("test done"));
  });
  engine.Run();
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

// Registered memory starts unspecified, so a flow's set-up writes every
// word its protocol reads before anyone writes it: each slot footer of a
// fresh target ring reads writable with no fill and no arrival time, and
// every credit and sequencer counter reads 0. (Under the sanitizer's
// malloc fill an unwritten word reads 0xbe..., so a dropped initialization
// fails here instead of hanging a flow.)
TEST_F(EndpointTest, FreshFlowWritesFootersAndCounters) {
  const std::vector<net::NodeId> targets = {nodes_[0], nodes_[1]};
  for (FlowOptimization opt :
       {FlowOptimization::kBandwidth, FlowOptimization::kLatency}) {
    SCOPED_TRACE(opt == FlowOptimization::kLatency ? "latency" : "bandwidth");
    FlowOptions options;
    options.optimization = opt;
    options.segments_per_ring = 8;
    ChannelMatrix matrix(&env_, options, kTupleSize, /*num_sources=*/3,
                         targets);
    for (uint32_t s = 0; s < matrix.num_sources(); ++s) {
      for (uint32_t t = 0; t < matrix.num_targets(); ++t) {
        SCOPED_TRACE("channel " + std::to_string(s) + "->" +
                     std::to_string(t));
        ChannelShared* channel = matrix.channel(s, t);
        const SegmentRing& ring = channel->ring();
        ASSERT_EQ(ring.num_segments(), 8u);
        for (uint32_t i = 0; i < ring.num_segments(); ++i) {
          const SegmentFooter* footer = ring.footer(i);
          EXPECT_EQ(footer->flags, kFlagWritable) << "slot " << i;
          EXPECT_EQ(footer->fill_bytes, 0u) << "slot " << i;
          EXPECT_EQ(footer->arrival_sim_time, 0) << "slot " << i;
        }
        EXPECT_EQ(channel->LoadConsumed(), 0u);
      }
    }
  }

  FlowOptions options;
  options.use_multicast = true;
  options.global_ordering = true;
  MulticastState mcast(&env_, options, kTupleSize, /*num_sources=*/2, targets,
                       /*flow_abort=*/nullptr);
  for (uint32_t t = 0; t < mcast.num_targets(); ++t) {
    EXPECT_EQ(mcast.LoadConsumed(t), 0u) << "target " << t;
  }
  auto sequencer =
      env_.ResolveRemote(mcast.sequencer_ref(), sizeof(uint64_t));
  ASSERT_TRUE(sequencer.ok()) << sequencer.status();
  uint64_t position;
  std::memcpy(&position, *sequencer, sizeof(position));
  EXPECT_EQ(position, 0u);
}

// ---------------------------------------------------------------------------
// Staging lanes
// ---------------------------------------------------------------------------

// The push that fills a segment transmits it in the same call: with four
// 16 B tuples per 64 B segment, segments_sent() steps at tuples 4, 8, 12,
// ... for Push and PushTo alike, never a push later.
TEST_F(EndpointTest, PushThatFillsSegmentTransmitsIt) {
  FlowOptions options;
  options.segment_size = 64;  // 4 tuples per segment
  options.segments_per_ring = 32;
  ChannelMatrix matrix = MakeMatrix(options);
  constexpr uint64_t kPerSegment = 64 / kTupleSize;
  constexpr uint64_t kTuples = 2 * 3 * kPerSegment;  // 3 segments per kind

  exec::Engine engine;
  engine.Spawn(0, "producer", [&] {
    VirtualClock clock;
    FlowEndpoint endpoint(&matrix, 0, env_.context(nodes_[0]), &clock);
    Partitioner single = Partitioner::Single();
    for (uint64_t i = 0; i < kTuples; ++i) {
      Rec rec{i, i};
      if (i < 3 * kPerSegment) {
        ASSERT_TRUE(endpoint.Push(&rec, &single).ok());
      } else {
        ASSERT_TRUE(endpoint.PushTo(&rec, 0).ok());
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
  constexpr uint32_t kHigh = 4;
  TargetLoadBoard board(4, kHigh, /*low=*/2);
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
    return part.Route(reinterpret_cast<const uint8_t*>(&key));
  };

  // Unsaturated: everything goes to its static home.
  for (uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(route(key_for[t]), t);
  }

  // Saturate target 0.
  for (uint32_t i = 0; i < kHigh; ++i) board.OnDelivered(0);
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
  for (uint32_t i = 0; i < kHigh; ++i) board.OnDelivered(1);
  ASSERT_TRUE(board.saturated(1));
  EXPECT_EQ(route(key_for[0]), 0u);

  // Hysteresis end-to-end: draining target 0 to the low-water mark lifts
  // the diversion.
  for (uint32_t i = 0; i < kHigh; ++i) board.OnConsumed(0);
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
    EXPECT_EQ(part.Route(reinterpret_cast<const uint8_t*>(&key0)), 0u);
    EXPECT_EQ(part.diverted_tuples(), 0u);
  }
  {
    opts.react_to_backpressure = true;  // opted in, but no board wired up
    AdaptivePartitioner part(&schema, 0, target_nodes, opts, nullptr);
    EXPECT_EQ(part.Route(reinterpret_cast<const uint8_t*>(&key0)), 0u);
    EXPECT_EQ(part.diverted_tuples(), 0u);
  }
}

}  // namespace
}  // namespace dfi
