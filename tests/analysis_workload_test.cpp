#include "analysis/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace circles::analysis {
namespace {

TEST(WorkloadTest, BasicAccessors) {
  Workload w;
  w.counts = {3, 1, 2};
  EXPECT_EQ(w.n(), 6u);
  EXPECT_EQ(w.k(), 3u);
  EXPECT_EQ(w.winner(), pp::ColorId{0});
  EXPECT_FALSE(w.tied());
  EXPECT_EQ(w.margin(), 1u);
  EXPECT_EQ(w.to_string(), "[3,1,2]");
}

TEST(WorkloadTest, TieDetection) {
  Workload w;
  w.counts = {2, 2, 1};
  EXPECT_TRUE(w.tied());
  EXPECT_EQ(w.margin(), 0u);
}

TEST(WorkloadTest, AgentColorsMatchCounts) {
  Workload w;
  w.counts = {2, 0, 3};
  util::Rng rng(1);
  const auto colors = w.agent_colors(rng);
  ASSERT_EQ(colors.size(), 5u);
  std::map<pp::ColorId, int> histogram;
  for (const auto c : colors) histogram[c] += 1;
  EXPECT_EQ(histogram[0], 2);
  EXPECT_EQ(histogram[2], 3);
  EXPECT_EQ(histogram.count(1), 0u);
}

TEST(RandomCountsTest, SumsToN) {
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const Workload w = random_counts(rng, 40, 5);
    EXPECT_EQ(w.n(), 40u);
    EXPECT_EQ(w.k(), 5u);
  }
}

// Mean and variance of color `c`'s count over `samples` sampled workloads.
template <typename Sample>
std::pair<double, double> color_moments(int samples, pp::ColorId c,
                                        Sample sample) {
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = static_cast<double>(sample().counts[c]);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / samples;
  return {mean, (sum_sq - samples * mean * mean) / (samples - 1)};
}

TEST(RandomCountsTest, PerColorCountsAreMultinomial) {
  // Each color's count is Bin(n, 1/k): mean n/k, variance n(1/k)(1-1/k).
  util::Rng rng(12);
  constexpr int kSamples = 20000;
  const auto [mean, variance] = color_moments(
      kSamples, 3, [&] { return random_counts(rng, 1000, 4); });
  EXPECT_NEAR(mean, 250.0, 5.0 * std::sqrt(187.5 / kSamples));
  EXPECT_NEAR(variance / 187.5, 1.0, 0.05);
}

TEST(RandomUniqueWinnerTest, NeverTied) {
  util::Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const Workload w = random_unique_winner(rng, 12, 4);
    EXPECT_FALSE(w.tied());
    EXPECT_EQ(w.n(), 12u);
  }
}

TEST(ExactTieTest, ProducesTiesOfRequestedWidth) {
  util::Rng rng(4);
  for (std::uint32_t tied = 2; tied <= 4; ++tied) {
    for (int trial = 0; trial < 20; ++trial) {
      const Workload w = exact_tie(rng, 20, 4, tied);
      EXPECT_EQ(w.n(), 20u);
      EXPECT_TRUE(w.tied()) << w.to_string();
      std::uint64_t top = 0;
      for (const auto c : w.counts) top = std::max(top, c);
      const auto at_top = std::count(w.counts.begin(), w.counts.end(), top);
      EXPECT_EQ(at_top, tied) << w.to_string();
    }
  }
}

TEST(ExactTieTest, TieOfTwoAgents) {
  util::Rng rng(5);
  const Workload w = exact_tie(rng, 2, 2, 2);
  EXPECT_EQ(w.counts, (std::vector<std::uint64_t>{1, 1}));
}

TEST(ExactTieTest, FeasibilityMatchesABruteForceSearch) {
  // exact_tie_feasible(n, k, t) iff some count vector of k colors summing
  // to n has exactly t colors at its (positive) maximum; when it holds,
  // exact_tie builds one.
  util::Rng rng(7);
  for (std::uint64_t n = 0; n <= 12; ++n) {
    for (std::uint32_t k = 1; k <= 4; ++k) {
      for (std::uint32_t t = 0; t <= 5; ++t) {
        bool exists = false;
        std::vector<std::uint64_t> counts(k, 0);
        const std::function<void(std::uint32_t, std::uint64_t)> search =
            [&](std::uint32_t c, std::uint64_t left) {
              if (exists) return;
              if (c + 1 == k) {
                counts[c] = left;
                const std::uint64_t top =
                    *std::max_element(counts.begin(), counts.end());
                exists = top > 0 && static_cast<std::uint32_t>(std::count(
                                        counts.begin(), counts.end(), top)) == t;
                return;
              }
              for (std::uint64_t v = 0; v <= left; ++v) {
                counts[c] = v;
                search(c + 1, left - v);
              }
            };
        search(0, n);
        // A single winner (t = 1) is a vector but not a tie.
        const bool expected = exists && t >= 2;
        EXPECT_EQ(exact_tie_feasible(n, k, t), expected)
            << "n=" << n << " k=" << k << " t=" << t;
        if (expected) {
          const Workload w = exact_tie(rng, n, k, t);
          EXPECT_EQ(w.n(), n);
          const std::uint64_t top =
              *std::max_element(w.counts.begin(), w.counts.end());
          EXPECT_EQ(std::count(w.counts.begin(), w.counts.end(), top), t);
        }
      }
    }
  }
}

TEST(CloseMarginTest, MarginIsMinimalFeasible) {
  util::Rng rng(6);
  for (const std::uint64_t n : {3ull, 9ull, 25ull, 60ull}) {
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      const Workload w = close_margin(rng, n, k);
      EXPECT_EQ(w.n(), n) << w.to_string();
      EXPECT_FALSE(w.tied());
      EXPECT_LE(w.margin(), 2u);
      EXPECT_GE(w.margin(), 1u);
      if (k > 2 || n % 2 == 1) {
        EXPECT_EQ(w.margin(), 1u) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(CloseMarginDeathTest, FeasibilityMatchesTheBuilder) {
  // close_margin_feasible(n, k) iff close_margin builds a workload: every
  // feasible (n, k) yields a non-tied workload of n agents with margin 1
  // (2 where k = 2 and n is even), and every infeasible one dies.
  util::Rng rng(11);
  for (std::uint32_t k = 1; k <= 6; ++k) {
    for (std::uint64_t n = 0; n <= 40; ++n) {
      if (close_margin_feasible(n, k)) {
        const Workload w = close_margin(rng, n, k);
        EXPECT_EQ(w.n(), n) << "n=" << n << " k=" << k;
        EXPECT_FALSE(w.tied()) << "n=" << n << " k=" << k;
        EXPECT_EQ(w.margin(), k == 2 && n % 2 == 0 ? 2u : 1u)
            << "n=" << n << " k=" << k;
      } else {
        EXPECT_DEATH((void)close_margin(rng, n, k), "close-margin")
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(CloseMarginTest, EvenTwoColorForcesMarginTwo) {
  util::Rng rng(7);
  const Workload w = close_margin(rng, 10, 2);
  EXPECT_EQ(w.margin(), 2u);
  EXPECT_EQ(w.n(), 10u);
}

TEST(DominantTest, DominantColorHoldsShare) {
  util::Rng rng(8);
  const Workload w = dominant(rng, 100, 5, 0.6);
  EXPECT_EQ(w.n(), 100u);
  std::uint64_t top = 0;
  for (const auto c : w.counts) top = std::max(top, c);
  EXPECT_GE(top, 60u);
}

TEST(ZipfTest, SkewedAndUntied) {
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const Workload w = zipf(rng, 60, 5, 1.5);
    EXPECT_EQ(w.n(), 60u);
    EXPECT_FALSE(w.tied());
  }
}

TEST(ZipfTest, PerColorCountsFollowZipfWeights) {
  // At n = 10^4 ties are vanishingly rare, so the tie rejection leaves each
  // color's count Bin(n, w_c) for the normalized Zipf weight w_c.
  const auto weights = util::zipf_weights(5, 1.2);
  constexpr double n = 10000.0;
  constexpr int kSamples = 20000;
  for (const pp::ColorId c : {0u, 2u, 4u}) {
    SCOPED_TRACE("c=" + std::to_string(c));
    util::Rng rng(13);
    const auto [mean, variance] = color_moments(
        kSamples, c, [&] { return zipf(rng, 10000, 5, 1.2); });
    const double expected_var = n * weights[c] * (1.0 - weights[c]);
    EXPECT_NEAR(mean, n * weights[c],
                5.0 * std::sqrt(expected_var / kSamples));
    EXPECT_NEAR(variance / expected_var, 1.0, 0.05);
  }
}

TEST(DominantTest, RestIsSpreadOverAllColors) {
  // 600 agents on a uniform color plus Bin(400, 1/4) per color: every
  // color's count has mean 600/4 + 100 = 250.
  util::Rng rng(14);
  constexpr int kSamples = 20000;
  const auto [mean, variance] = color_moments(
      kSamples, 1, [&] { return dominant(rng, 1000, 4, 0.6); });
  // Var = Var(Bin(400, 1/4)) + Var(600 * Bernoulli(1/4)) + 2 Cov, with
  // Cov = 0 by independence: 75 + 600^2 * 3/16 = 67575.
  EXPECT_NEAR(mean, 250.0, 5.0 * std::sqrt(67575.0 / kSamples));
  EXPECT_NEAR(variance / 67575.0, 1.0, 0.05);
}

TEST(PermuteColorsTest, PreservesCountMultiset) {
  util::Rng rng(10);
  Workload w;
  w.counts = {5, 0, 3, 1};
  for (int trial = 0; trial < 20; ++trial) {
    const Workload p = permute_colors(rng, w);
    auto a = w.counts;
    auto b = p.counts;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(p.n(), w.n());
  }
}

}  // namespace
}  // namespace circles::analysis
