#include "mpi/mpi_env.h"

#include <gtest/gtest.h>

#include <cstring>
#include <algorithm>
#include <numeric>
#include <vector>

#include "common/exec/engine.h"

namespace dfi::mpi {
namespace {

class MpiTest : public ::testing::Test {
 protected:
  void SetUpEnv(int ranks, ThreadMode mode = ThreadMode::kSingle,
                uint32_t threads_per_rank = 1) {
    nodes_ = fabric_.AddNodes(ranks);
    env_ = std::make_unique<MpiEnv>(&fabric_, nodes_, mode, threads_per_rank);
  }

  net::Fabric fabric_;
  std::vector<net::NodeId> nodes_;
  std::unique_ptr<MpiEnv> env_;
};

TEST_F(MpiTest, EagerSendRecvRoundTrip) {
  SetUpEnv(2);
  std::vector<uint8_t> data(512);
  std::iota(data.begin(), data.end(), 0);
  VirtualClock sc, rc;
  std::vector<uint8_t> out(512, 0);
  exec::Engine engine;
  // The receiver posts first and parks until the message arrives.
  engine.Spawn(1, "receiver", [&] {
    ASSERT_TRUE(env_->Recv(1, 0, 7, out.data(), out.size(), &rc).ok());
  });
  engine.Spawn(0, "sender", [&] {
    ASSERT_TRUE(env_->Send(0, 1, 7, data.data(), data.size(), &sc).ok());
  });
  engine.Run();
  EXPECT_EQ(out, data);
  EXPECT_GT(rc.now(), sc.now()) << "receiver completes after the arrival";
}

TEST_F(MpiTest, EagerSenderDoesNotBlock) {
  SetUpEnv(2);
  // Send completes with no receiver present (buffered).
  std::vector<uint8_t> data(64, 1);
  VirtualClock sc;
  ASSERT_TRUE(env_->Send(0, 1, 0, data.data(), data.size(), &sc).ok());
  VirtualClock rc;
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(env_->Recv(1, 0, 0, out.data(), out.size(), &rc).ok());
  EXPECT_EQ(out, data);
}

TEST_F(MpiTest, RendezvousBlocksUntilMatched) {
  SetUpEnv(2);
  std::vector<uint8_t> data(64 * 1024);
  std::iota(data.begin(), data.end(), 0);
  VirtualClock sc(1000), rc(5'000'000);
  bool send_returned = false;
  std::vector<uint8_t> out(data.size());
  exec::Engine engine;
  engine.Spawn(0, "sender", [&] {
    ASSERT_TRUE(env_->Send(0, 1, 1, data.data(), data.size(), &sc).ok());
    send_returned = true;
  });
  // Runs once the sender has parked on the unmatched rendezvous.
  engine.Spawn(1, "receiver", [&] {
    EXPECT_FALSE(send_returned) << "rendezvous must wait for the recv";
    ASSERT_TRUE(env_->Recv(1, 0, 1, out.data(), out.size(), &rc).ok());
  });
  engine.Run();
  EXPECT_TRUE(send_returned);
  EXPECT_EQ(out, data);
  // The transfer cannot start before the late receiver posted.
  EXPECT_GT(rc.now(), 5'000'000);
  EXPECT_GT(sc.now(), 5'000'000) << "sender waited for handshake";
}

TEST_F(MpiTest, RecvSizeMismatchRejected) {
  SetUpEnv(2);
  std::vector<uint8_t> data(128, 0);
  VirtualClock sc, rc;
  ASSERT_TRUE(env_->Send(0, 1, 2, data.data(), 128, &sc).ok());
  std::vector<uint8_t> out(64);
  EXPECT_EQ(env_->Recv(1, 0, 2, out.data(), 64, &rc).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MpiTest, RankValidation) {
  SetUpEnv(2);
  VirtualClock c;
  uint8_t b = 0;
  EXPECT_EQ(env_->Send(0, 5, 0, &b, 1, &c).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(env_->Recv(7, 0, 0, &b, 1, &c).code(), StatusCode::kOutOfRange);
}

TEST_F(MpiTest, TagsDoNotCrossMatch) {
  SetUpEnv(2);
  VirtualClock sc, rc;
  uint64_t a = 111, b = 222;
  ASSERT_TRUE(env_->Send(0, 1, 10, &a, sizeof(a), &sc).ok());
  ASSERT_TRUE(env_->Send(0, 1, 20, &b, sizeof(b), &sc).ok());
  uint64_t out = 0;
  ASSERT_TRUE(env_->Recv(1, 0, 20, &out, sizeof(out), &rc).ok());
  EXPECT_EQ(out, 222u);
  ASSERT_TRUE(env_->Recv(1, 0, 10, &out, sizeof(out), &rc).ok());
  EXPECT_EQ(out, 111u);
}

TEST_F(MpiTest, BarrierJoinsClocks) {
  SetUpEnv(3);
  std::vector<std::unique_ptr<VirtualClock>> clocks;
  for (int r = 0; r < 3; ++r) {
    clocks.push_back(std::make_unique<VirtualClock>(r * 1'000'000));
  }
  exec::Engine engine;
  for (int r = 0; r < 3; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      ASSERT_TRUE(env_->Barrier(r, clocks[r].get()).ok());
    });
  }
  engine.Run();
  for (int r = 0; r < 3; ++r) {
    EXPECT_GE(clocks[r]->now(), 2'000'000) << "rank " << r;
  }
}

TEST_F(MpiTest, AlltoallExchangesSlices) {
  constexpr int kRanks = 4;
  constexpr size_t kBytes = 1024;
  SetUpEnv(kRanks);
  exec::Engine engine;
  std::vector<std::vector<uint8_t>> recv(kRanks,
                                         std::vector<uint8_t>(kRanks * kBytes));
  for (int r = 0; r < kRanks; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      std::vector<uint8_t> send(kRanks * kBytes);
      for (int q = 0; q < kRanks; ++q) {
        std::memset(send.data() + q * kBytes, 16 * r + q, kBytes);
      }
      VirtualClock clock;
      ASSERT_TRUE(
          env_->Alltoall(r, send.data(), recv[r].data(), kBytes, &clock).ok());
      EXPECT_GT(clock.now(), 0);
    });
  }
  engine.Run();
  for (int r = 0; r < kRanks; ++r) {
    for (int q = 0; q < kRanks; ++q) {
      // Slice q of rank r's recv buffer came from rank q's slice r.
      EXPECT_EQ(recv[r][q * kBytes], 16 * q + r) << "r=" << r << " q=" << q;
    }
  }
}

TEST_F(MpiTest, AlltoallStragglerDelaysEveryone) {
  constexpr int kRanks = 4;
  SetUpEnv(kRanks);
  exec::Engine engine;
  std::vector<SimTime> finish(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      // Rank 3 arrives 10 ms late (the straggler).
      VirtualClock clock(r == 3 ? 10'000'000 : 0);
      std::vector<uint8_t> send(kRanks * 64, 0), recv(kRanks * 64, 0);
      ASSERT_TRUE(env_->Alltoall(r, send.data(), recv.data(), 64, &clock).ok());
      finish[r] = clock.now();
    });
  }
  engine.Run();
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GE(finish[r], 10'000'000)
        << "bulk-synchronous collective: rank " << r
        << " must wait for the straggler";
  }
}

TEST_F(MpiTest, MultiThreadLatchSerializesAndDegrades) {
  SetUpEnv(2, ThreadMode::kMultiple, /*threads_per_rank=*/4);
  // 4 threads of rank 0 each send 100 eager messages; the latch must make
  // the aggregate virtual time exceed the uncontended case markedly.
  constexpr int kThreads = 4;
  constexpr int kMsgs = 100;
  exec::Engine engine;
  std::vector<SimTime> finish(kThreads);
  std::vector<uint8_t> payload(64, 0);
  for (int t = 0; t < kThreads; ++t) {
    engine.Spawn(0, "sender", [&, t] {
      VirtualClock clock;
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_TRUE(
            env_->Send(0, 1, 100 + t, payload.data(), 64, &clock).ok());
      }
      finish[t] = clock.now();
    });
  }
  // Drain on rank 1 so mailbox memory stays bounded.
  engine.Spawn(1, "drainer", [&] {
    VirtualClock clock;
    std::vector<uint8_t> buf(64);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_TRUE(env_->Recv(1, 0, 100 + t, buf.data(), 64, &clock).ok());
      }
    }
  });
  engine.Run();
  // Total latch hold: 400 calls * (300 + 120*3) ns = 264 us serialized, so
  // the last thread to finish must carry (almost) the whole serialization,
  // far above the ~40 us a single uncontended thread needs.
  const SimTime slowest = *std::max_element(finish.begin(), finish.end());
  EXPECT_GE(slowest, 250'000);
  // And every thread at least pays for its own 100 latch holds.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GE(finish[t], 66'000) << "thread " << t;
  }
}

TEST_F(MpiTest, WindowPutAndFence) {
  SetUpEnv(3);
  auto window = env_->CreateWindow(4096);
  ASSERT_TRUE(window.ok());
  exec::Engine engine;
  for (int r = 0; r < 3; ++r) {
    engine.Spawn(r, "rank", [&, r] {
      VirtualClock clock;
      uint64_t value = 1000 + r;
      // Every rank writes its value into every rank's window at offset r*8.
      for (int q = 0; q < 3; ++q) {
        ASSERT_TRUE(env_->Put(r, &value, sizeof(value), q, r * 8, *window,
                              &clock)
                        .ok());
      }
      ASSERT_TRUE(env_->Fence(r, *window, &clock).ok());
      // After the fence, all puts are visible everywhere.
      for (int src = 0; src < 3; ++src) {
        uint64_t got;
        std::memcpy(&got, (*window)->local(r) + src * 8, 8);
        EXPECT_EQ(got, 1000u + src);
      }
    });
  }
  engine.Run();
}

TEST_F(MpiTest, PutBeyondWindowRejected) {
  SetUpEnv(2);
  auto window = env_->CreateWindow(64);
  ASSERT_TRUE(window.ok());
  VirtualClock clock;
  uint64_t v = 0;
  EXPECT_EQ(env_->Put(0, &v, 8, 1, 60, *window, &clock).code(),
            StatusCode::kOutOfRange);
}

TEST_F(MpiTest, WindowMemoryAccounted) {
  SetUpEnv(2);
  const uint64_t before0 = fabric_.node(nodes_[0]).registered_bytes();
  auto window = env_->CreateWindow(8192);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(fabric_.node(nodes_[0]).registered_bytes(), before0 + 8192);
}

}  // namespace
}  // namespace dfi::mpi
