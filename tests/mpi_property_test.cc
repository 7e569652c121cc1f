// Property sweep over mini-MPI point-to-point: for any message size
// (crossing the eager/rendezvous threshold), rank count and message count,
// transfers must deliver bytes exactly and virtual completion times must
// respect the link capacity lower bound.

#include <gtest/gtest.h>

#include <numeric>

#include "common/exec/engine.h"
#include "mpi/mpi_env.h"

namespace dfi::mpi {
namespace {

struct P2pParam {
  size_t message_bytes;
  int messages;
};

std::string ParamName(const ::testing::TestParamInfo<P2pParam>& info) {
  std::string name = "b";
  name += std::to_string(info.param.message_bytes);
  name += "_n";
  name += std::to_string(info.param.messages);
  return name;
}

class MpiP2pProperty : public ::testing::TestWithParam<P2pParam> {};

TEST_P(MpiP2pProperty, ExactDeliveryAndLinkBound) {
  const P2pParam& p = GetParam();
  net::Fabric fabric;
  auto nodes = fabric.AddNodes(2);
  MpiEnv env(&fabric, nodes);

  std::vector<uint8_t> payload(p.message_bytes);
  std::iota(payload.begin(), payload.end(), 1);

  VirtualClock recv_clock;
  exec::Engine engine;
  engine.Spawn(0, "sender", [&] {
    VirtualClock clock;
    for (int i = 0; i < p.messages; ++i) {
      ASSERT_TRUE(
          env.Send(0, 1, 3, payload.data(), p.message_bytes, &clock).ok());
    }
  });
  engine.Spawn(1, "receiver", [&] {
    std::vector<uint8_t> out(p.message_bytes);
    for (int i = 0; i < p.messages; ++i) {
      out.assign(p.message_bytes, 0);
      ASSERT_TRUE(
          env.Recv(1, 0, 3, out.data(), p.message_bytes, &recv_clock).ok());
      ASSERT_EQ(out, payload) << "message " << i;
    }
  });
  engine.Run();

  // Completion cannot beat the wire: total bytes at link speed.
  const double min_ns = static_cast<double>(p.message_bytes) * p.messages /
                        fabric.config().LinkBytesPerNs();
  EXPECT_GE(recv_clock.now(), static_cast<SimTime>(min_ns));
}

INSTANTIATE_TEST_SUITE_P(
    EagerAndRendezvous, MpiP2pProperty,
    ::testing::Values(P2pParam{1, 50},          // tiny eager
                      P2pParam{64, 200},        // typical eager
                      P2pParam{8192, 50},       // at the eager threshold
                      P2pParam{8193, 50},       // first rendezvous size
                      P2pParam{262144, 20},     // bulk rendezvous
                      P2pParam{1 << 20, 5}),    // 1 MiB rendezvous
    ParamName);

TEST(MpiCollectiveProperty, AlltoallConservesBytesAcrossRankCounts) {
  for (int ranks : {2, 3, 5, 8}) {
    net::Fabric fabric;
    auto nodes = fabric.AddNodes(ranks);
    MpiEnv env(&fabric, nodes);
    constexpr size_t kBytes = 512;
    std::vector<std::vector<uint8_t>> recv(
        ranks, std::vector<uint8_t>(ranks * kBytes));
    exec::Engine engine;
    for (int r = 0; r < ranks; ++r) {
      engine.Spawn(r, "rank", [&, r] {
        std::vector<uint8_t> send(ranks * kBytes);
        for (int q = 0; q < ranks; ++q) {
          std::fill(send.begin() + q * kBytes,
                    send.begin() + (q + 1) * kBytes,
                    static_cast<uint8_t>(r * 16 + q));
        }
        VirtualClock clock;
        ASSERT_TRUE(
            env.Alltoall(r, send.data(), recv[r].data(), kBytes, &clock)
                .ok());
      });
    }
    engine.Run();
    for (int r = 0; r < ranks; ++r) {
      for (int q = 0; q < ranks; ++q) {
        for (size_t b = 0; b < kBytes; ++b) {
          ASSERT_EQ(recv[r][q * kBytes + b], q * 16 + r)
              << "ranks=" << ranks << " r=" << r << " q=" << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dfi::mpi
