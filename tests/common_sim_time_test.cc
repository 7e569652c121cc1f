#include "common/sim_time.h"

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/sim_config.h"

namespace dfi {
namespace {

TEST(VirtualClockTest, AdvanceAccumulates) {
  VirtualClock clock;
  clock.Advance(100);
  clock.Advance(50);
  EXPECT_EQ(clock.now(), 150);
}

TEST(VirtualClockTest, AdvanceToIsMaxJoin) {
  VirtualClock clock;
  clock.Advance(100);
  clock.AdvanceTo(80);  // behind: no-op
  EXPECT_EQ(clock.now(), 100);
  clock.AdvanceTo(250);
  EXPECT_EQ(clock.now(), 250);
}

#ifdef NDEBUG
TEST(VirtualClockTest, NegativeAdvanceClampsInRelease) {
  VirtualClock clock;
  clock.Advance(100);
  clock.Advance(-500);  // would wrap the timeline; clamped to no charge
  EXPECT_EQ(clock.now(), 100);
}
#else
TEST(VirtualClockDeathTest, NegativeAdvanceAssertsInDebug) {
  VirtualClock clock;
  clock.Advance(100);
  EXPECT_DEATH(clock.Advance(-1), "negative delta");
}
#endif

TEST(VirtualClockTest, ResetRestarts) {
  VirtualClock clock(500);
  EXPECT_EQ(clock.now(), 500);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0);
}

// RoundNs stands in for std::llround wherever a non-negative cost is
// rounded to whole ns, so every virtual time depends on the two agreeing
// on every input, halfway points included.
void ExpectRoundsLikeLlround(double x) {
  ASSERT_EQ(RoundNs(x), std::llround(x)) << std::setprecision(17) << x;
}

TEST(RoundNsTest, MatchesLlroundAtHalfwayPointsAndTheirNeighbours) {
  ExpectRoundsLikeLlround(0.0);
  for (int64_t k = 0; k <= (int64_t{1} << 20); ++k) {
    const double half = static_cast<double>(k) + 0.5;
    ExpectRoundsLikeLlround(half);
    ExpectRoundsLikeLlround(std::nextafter(half, 0.0));
    ExpectRoundsLikeLlround(std::nextafter(half, INFINITY));
  }
}

TEST(RoundNsTest, MatchesLlroundOnSeededDoubles) {
  Xorshift128Plus rng(0x5eed);
  constexpr double kRange = 1099511627776.0;  // 2^40
  for (int i = 0; i < 500'000; ++i) {
    // Uniform over the range, and uniform over the binades below it (a
    // random exponent and mantissa), which reaches the small fractions.
    ExpectRoundsLikeLlround(rng.NextDouble() * kRange);
    const int exponent = static_cast<int>(rng.NextBelow(80)) - 40;
    ExpectRoundsLikeLlround(std::ldexp(1.0 + rng.NextDouble(), exponent));
  }
}

TEST(RoundNsTest, MatchesLlroundNearTheEndOfTheFraction) {
  // From 2^52 on every double is an integer; just below, the ulp is 0.5.
  for (const double edge : {4503599627370496.0, 9007199254740992.0}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 4096; ++i) {
      ExpectRoundsLikeLlround(below);
      ExpectRoundsLikeLlround(above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, INFINITY);
    }
  }
}

TEST(RoundNsTest, MatchesLlroundOnLinkAndCopyCosts) {
  // The products the link scheduler and the verbs round: a transfer's
  // duration at the nominal rate and at degraded rates (the factor the
  // fault plan applies, as LinkScheduler::Reserve divides it in), and the
  // inline and tuple copy costs.
  const net::SimConfig cfg;
  const double nominal = 1.0 / (cfg.link_gbps / 8.0);
  std::vector<double> ns_per_byte = {nominal};
  for (const double gbps : {10.0, 25.0, 40.0, 56.0, 12.5, 33.3}) {
    ns_per_byte.push_back(nominal / (gbps / cfg.link_gbps));
    ns_per_byte.push_back(1.0 / (gbps / 8.0));
  }
  ns_per_byte.push_back(cfg.inline_copy_ns_per_byte);
  ns_per_byte.push_back(cfg.tuple_copy_ns_per_byte);
  for (const double per_byte : ns_per_byte) {
    for (uint32_t bytes = 0; bytes <= 65536; ++bytes) {
      ExpectRoundsLikeLlround(static_cast<double>(bytes) * per_byte);
    }
  }
}

}  // namespace
}  // namespace dfi
