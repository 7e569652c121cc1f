// Application-level gap handling of ordered replicate flows: with
// FlowOptions::app_handles_gaps the flow surfaces kGap with the missing
// sequence number and the application decides — SkipGap (no-op) or
// SupplyGap (content recovered through its own protocol). This is the
// NOPaxos gap-agreement hook (paper section 5.4).

#include <gtest/gtest.h>

#include "common/exec/engine.h"
#include "common/units.h"
#include "core/dfi_runtime.h"
#include "core/replicate_flow.h"

namespace dfi {
namespace {

class GapHandlingTest : public ::testing::Test {
 protected:
  void Init(double loss, uint64_t seed, double reorder = 0.0) {
    net::SimConfig cfg;
    cfg.multicast_loss_probability = loss;
    cfg.multicast_reorder_probability = reorder;
    cfg.loss_seed = seed;
    fabric_ = std::make_unique<net::Fabric>(cfg);
    fabric_->AddNodes(3);
    dfi_ = std::make_unique<DfiRuntime>(fabric_.get());

    ReplicateFlowSpec spec;
    spec.name = "gap";
    spec.sources.Append(Endpoint{fabric_->node(2).address(), 0});
    spec.targets.Append(Endpoint{fabric_->node(0).address(), 0});
    spec.targets.Append(Endpoint{fabric_->node(1).address(), 0});
    spec.schema = Schema{{"key", DataType::kUInt64}};
    spec.options.use_multicast = true;
    spec.options.global_ordering = true;
    spec.options.optimization = FlowOptimization::kLatency;
    spec.options.app_handles_gaps = true;
    ASSERT_TRUE(dfi_->InitReplicateFlow(std::move(spec)).ok());
  }

  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<DfiRuntime> dfi_;
};

TEST_F(GapHandlingTest, NoGapsWithoutLoss) {
  Init(0.0, 1);
  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_->CreateReplicateSource("gap", 0);
    for (uint64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE((*src)->Push(&k).ok());
    }
    ASSERT_TRUE((*src)->Close().ok());
  });
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_->CreateReplicateTarget("gap", t);
      uint64_t count = 0;
      SegmentView seg;
      ConsumeResult r;
      while ((r = (*tgt)->ConsumeSegment(&seg)) != ConsumeResult::kFlowEnd) {
        ASSERT_NE(r, ConsumeResult::kGap) << "no loss -> no gaps";
        ++count;
      }
      EXPECT_EQ(count, 200u);
    });
  }
  engine.Run();
}

TEST_F(GapHandlingTest, GapsSurfacedAndSkippable) {
  Init(0.15, 7);
  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_->CreateReplicateSource("gap", 0);
    for (uint64_t k = 0; k < 150; ++k) {
      ASSERT_TRUE((*src)->Push(&k).ok());
    }
    ASSERT_TRUE((*src)->Close().ok());
  });
  std::vector<uint64_t> gaps_seen(2, 0);
  std::vector<uint64_t> delivered(2, 0);
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_->CreateReplicateTarget("gap", t);
      SegmentView seg;
      uint64_t last_seq = 0;
      bool first = true;
      // In app-handled-gap mode the application also owns termination (the
      // end marker itself may be lost): stop once all 150 data sequences
      // were either delivered or explicitly skipped.
      while (delivered[t] + gaps_seen[t] < 150) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        ASSERT_NE(r, ConsumeResult::kFlowEnd);
        if (r == ConsumeResult::kGap) {
          // The application decides: treat the lost sequence as a no-op.
          ++gaps_seen[t];
          (*tgt)->SkipGap();
          continue;
        }
        if (!first) {
          EXPECT_GT(seg.sequence, last_seq) << "order must still hold";
        }
        first = false;
        last_seq = seg.sequence;
        ++delivered[t];
      }
    });
  }
  engine.Run();
  for (uint32_t t = 0; t < 2; ++t) {
    EXPECT_GT(gaps_seen[t], 0u) << "15% loss must surface gaps";
    EXPECT_EQ(delivered[t] + gaps_seen[t], 150u)
        << "every data sequence either delivered or explicitly skipped";
  }
}

// Robustness PR: bursty loss scripted through the FaultPlan (no base loss
// at all — every drop comes from LossBurst windows, up to 0.2) combined
// with reorder injection. Delivered sequences must stay strictly ordered,
// and every data sequence must be either delivered or explicitly skipped;
// reordered stragglers that arrive after their gap was skipped are
// discarded as duplicates, never delivered out of order.
TEST_F(GapHandlingTest, BurstyFaultPlanLossWithReorderStaysOrdered) {
  Init(/*loss=*/0.0, /*seed=*/33, /*reorder=*/0.1);
  fabric_->fault_plan().LossBurst(0, 50 * kMicrosecond, 0.2);
  fabric_->fault_plan().LossBurst(100 * kMicrosecond, kSecond, 0.15);
  constexpr uint64_t kMessages = 250;
  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_->CreateReplicateSource("gap", 0);
    for (uint64_t k = 0; k < kMessages; ++k) {
      ASSERT_TRUE((*src)->Push(&k).ok());
    }
    ASSERT_TRUE((*src)->Close().ok());
  });
  std::vector<uint64_t> gaps_seen(2, 0);
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_->CreateReplicateTarget("gap", t);
      SegmentView seg;
      uint64_t delivered = 0;
      uint64_t last_seq = 0;
      bool first = true;
      while (delivered + gaps_seen[t] < kMessages) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        ASSERT_NE(r, ConsumeResult::kFlowEnd);
        ASSERT_NE(r, ConsumeResult::kError);
        if (r == ConsumeResult::kGap) {
          ++gaps_seen[t];
          (*tgt)->SkipGap();
          continue;
        }
        if (!first) {
          ASSERT_GT(seg.sequence, last_seq)
              << "loss bursts + reorder must not break ordering";
        }
        first = false;
        last_seq = seg.sequence;
        ++delivered;
      }
      EXPECT_EQ(delivered + gaps_seen[t], kMessages);
    });
  }
  engine.Run();
  for (uint32_t t = 0; t < 2; ++t) {
    EXPECT_GT(gaps_seen[t], 0u)
        << "the scripted loss bursts must surface gaps";
  }
}

TEST_F(GapHandlingTest, SupplyGapInjectsRecoveredContent) {
  Init(0.15, 21);
  exec::Engine engine;
  engine.Spawn(2, "producer", [&] {
    auto src = dfi_->CreateReplicateSource("gap", 0);
    for (uint64_t k = 0; k < 120; ++k) {
      ASSERT_TRUE((*src)->Push(&k).ok());
    }
    ASSERT_TRUE((*src)->Close().ok());
  });
  for (uint32_t t = 0; t < 2; ++t) {
    engine.Spawn(t, "consumer", [&, t] {
      auto tgt = dfi_->CreateReplicateTarget("gap", t);
      SegmentView seg;
      uint64_t total = 0;
      uint64_t recovered_count = 0;
      while (total < 120) {
        const ConsumeResult r = (*tgt)->ConsumeSegment(&seg);
        ASSERT_NE(r, ConsumeResult::kFlowEnd);
        if (r == ConsumeResult::kGap) {
          // The application "recovered" the content out of band (in
          // NOPaxos: from the leader) and supplies it; the flow then
          // delivers it in sequence like any other segment.
          const uint64_t recovered = 0xDEAD0000 + seg.sequence;
          (*tgt)->SupplyGap(&recovered, sizeof(recovered));
          ++recovered_count;
          continue;
        }
        ++total;
      }
      EXPECT_EQ(total, 120u);
      EXPECT_GT(recovered_count, 0u) << "15% loss must recover something";
    });
  }
  engine.Run();
}

}  // namespace
}  // namespace dfi
