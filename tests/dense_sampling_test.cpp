#include "dense/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace circles::dense {
namespace {

TEST(LogFactorialTest, MatchesDirectSummation) {
  double acc = 0.0;
  for (std::uint64_t x = 1; x <= 300; ++x) {
    acc += std::log(static_cast<double>(x));
    EXPECT_NEAR(log_factorial(x), acc, 1e-9) << "x=" << x;
  }
  EXPECT_EQ(log_factorial(0), 0.0);
}

TEST(LogFactorialTest, StirlingAgreesWithLgamma) {
  for (const std::uint64_t x :
       {std::uint64_t{2048}, std::uint64_t{5000}, std::uint64_t{1000000},
        std::uint64_t{100000000}}) {
    const double expected = std::lgamma(static_cast<double>(x) + 1.0);
    EXPECT_NEAR(log_factorial(x) / expected, 1.0, 1e-12) << "x=" << x;
  }
}

TEST(LogChooseTest, SmallValuesExact) {
  EXPECT_NEAR(log_choose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(log_choose(10, 5), std::log(252.0), 1e-12);
  EXPECT_EQ(log_choose(7, 0), 0.0);
  EXPECT_EQ(log_choose(7, 7), 0.0);
}

TEST(HypergeometricTest, DegenerateSupportsNeedNoRandomness) {
  util::Rng rng(1);
  // draws == 0, successes == 0, all-success and forced draws never consume
  // the rng and return the forced value.
  EXPECT_EQ(hypergeometric(rng, 10, 4, 0), 0u);
  EXPECT_EQ(hypergeometric(rng, 10, 0, 7), 0u);
  EXPECT_EQ(hypergeometric(rng, 10, 10, 7), 7u);
  EXPECT_EQ(hypergeometric(rng, 10, 4, 10), 4u);
  // lo == hi via the pigeonhole bound: drawing 9 of 10 with 4 successes
  // forces at least 3.
  EXPECT_EQ(hypergeometric(rng, 4, 2, 4), 2u);
}

TEST(HypergeometricTest, StaysInSupport) {
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t total = 2 + rng.uniform_below(200);
    const std::uint64_t successes = rng.uniform_below(total + 1);
    const std::uint64_t draws = rng.uniform_below(total + 1);
    const std::uint64_t failures = total - successes;
    const std::uint64_t lo = draws > failures ? draws - failures : 0;
    const std::uint64_t hi = std::min(draws, successes);
    const std::uint64_t x = hypergeometric(rng, total, successes, draws);
    EXPECT_GE(x, lo);
    EXPECT_LE(x, hi);
  }
}

TEST(HypergeometricTest, MatchesExactPmfOnSmallCase) {
  // HG(N=10, K=4, m=5): pmf over x in [0..4] is C(4,x)C(6,5-x)/C(10,5).
  const double denom = 252.0;
  const std::vector<double> pmf = {6 / denom, 60 / denom, 120 / denom,
                                   60 / denom, 6 / denom};
  util::Rng rng(42);
  std::vector<double> freq(5, 0.0);
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    freq[hypergeometric(rng, 10, 4, 5)] += 1.0 / samples;
  }
  for (std::size_t x = 0; x < pmf.size(); ++x) {
    EXPECT_NEAR(freq[x], pmf[x], 0.01) << "x=" << x;
  }
}

TEST(HypergeometricTest, LargeParameterMeanIsRight) {
  // Exercises the log-gamma anchor path (all parameters above the
  // sequential cutoff): mean must be draws * successes / total.
  util::Rng rng(3);
  const std::uint64_t total = 1'000'000, successes = 300'000, draws = 2'000;
  double mean = 0.0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    mean += static_cast<double>(
                hypergeometric(rng, total, successes, draws)) /
            samples;
  }
  // stddev of one draw ~ sqrt(2000 * .3 * .7) ~ 20.5; of the mean ~ 0.15.
  EXPECT_NEAR(mean, 600.0, 1.0);
}

TEST(HypergeometricTest, DeterministicPerSeed) {
  util::Rng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(hypergeometric(a, 5000, 1234, 777),
              hypergeometric(b, 5000, 1234, 777));
  }
}

// Sample mean and (unbiased) variance of `samples` draws of `draw()`.
template <typename Draw>
std::pair<double, double> mean_and_variance(int samples, Draw draw) {
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = static_cast<double>(draw());
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / samples;
  return {mean, (sum_sq - samples * mean * mean) / (samples - 1)};
}

TEST(BinomialTest, DegenerateCasesNeedNoRandomness) {
  util::Rng rng(1), untouched(1);
  EXPECT_EQ(binomial(rng, 0, 0.4), 0u);
  EXPECT_EQ(binomial(rng, 50, 0.0), 0u);
  EXPECT_EQ(binomial(rng, 50, 1.0), 50u);
  EXPECT_EQ(binomial(rng, 1'000'000'000'000, 1.0), 1'000'000'000'000u);
  EXPECT_EQ(rng(), untouched());
}

TEST(BinomialTest, StaysInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t n =
        i % 2 == 0 ? rng.uniform_below(200) : rng.uniform_below(1'000'000);
    const double p = rng.uniform01();
    EXPECT_LE(binomial(rng, n, p), n) << "n=" << n << " p=" << p;
  }
}

TEST(BinomialTest, MatchesExactPmfOnSmallCases) {
  // Chi-square goodness of fit against the exact pmf at a fixed seed, on
  // both the item-by-item path (n = 10) and the chop-down path (n = 40).
  // Bins with expected count < 5 are pooled; the bound df + 5 sqrt(2 df)
  // sits beyond the 0.999 quantile for every df here.
  util::Rng rng(42);
  constexpr int kSamples = 100000;
  for (const std::uint64_t n : {std::uint64_t{10}, std::uint64_t{40}}) {
    for (const double p : {0.03, 0.3, 0.5, 0.7, 0.97}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
      std::vector<double> observed(n + 1, 0.0);
      for (int i = 0; i < kSamples; ++i) observed[binomial(rng, n, p)] += 1;
      double chi2 = 0.0, pooled_obs = 0.0, pooled_exp = 0.0;
      int bins = 0;
      for (std::uint64_t x = 0; x <= n; ++x) {
        pooled_obs += observed[x];
        pooled_exp += kSamples * std::exp(log_choose(n, x) +
                                          static_cast<double>(x) * std::log(p) +
                                          static_cast<double>(n - x) *
                                              std::log1p(-p));
        if (pooled_exp >= 5.0 || x == n) {
          chi2 += (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) /
                  pooled_exp;
          pooled_obs = pooled_exp = 0.0;
          ++bins;
        }
      }
      const double df = bins - 1;
      ASSERT_GE(df, 1.0);
      EXPECT_LT(chi2, df + 5.0 * std::sqrt(2.0 * df)) << "bins=" << bins;
    }
  }
}

TEST(BinomialTest, LargeNMeanAndVarianceAreRight) {
  // Exercises the saddle-point anchor far from the lookup table, on both
  // sides of the p > 1/2 symmetry branch.
  util::Rng rng(3);
  const std::uint64_t n = 1'000'000'000;
  constexpr int kSamples = 5000;
  for (const double p : {0.3, 0.8, 1e-8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto [mean, variance] =
        mean_and_variance(kSamples, [&] { return binomial(rng, n, p); });
    const double expected_var = static_cast<double>(n) * p * (1.0 - p);
    // Five standard errors on the mean; the variance estimator's relative
    // standard error is ~sqrt(2 / samples) = 2%.
    EXPECT_NEAR(mean, n * p, 5.0 * std::sqrt(expected_var / kSamples));
    EXPECT_NEAR(variance / expected_var, 1.0, 0.1);
  }
}

TEST(BinomialTest, DeterministicPerSeed) {
  util::Rng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(binomial(a, 5000, 0.37), binomial(b, 5000, 0.37));
    EXPECT_EQ(binomial(a, 12, 0.6), binomial(b, 12, 0.6));
  }
}

TEST(MultinomialTest, SumsToNAndSkipsZeroWeights) {
  util::Rng rng(5);
  const std::vector<std::vector<double>> cases = {
      {0.0, 3.0, 0.5, 0.0, 7.25, 1.0, 0.0},
      {0.0, 0.0, 2.5, 0.0},  // a single positive weight takes every item
  };
  for (const auto& weights : cases) {
    std::vector<std::uint64_t> out(weights.size());
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t n = i % 2 == 0 ? rng.uniform_below(50)
                                         : rng.uniform_below(1'000'000'000);
      multinomial(rng, n, weights, out);
      std::uint64_t sum = 0;
      for (std::size_t c = 0; c < weights.size(); ++c) {
        if (weights[c] == 0.0) EXPECT_EQ(out[c], 0u) << "c=" << c;
        sum += out[c];
      }
      EXPECT_EQ(sum, n);
    }
  }
}

TEST(MultinomialTest, PerColorMeansAndVariancesMatch) {
  const std::vector<double> weights = {1.0, 2.0, 5.0, 2.0};  // sum 10
  constexpr std::uint64_t n = 1000;
  constexpr int kSamples = 20000;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    SCOPED_TRACE("c=" + std::to_string(c));
    util::Rng rng(11);
    std::vector<std::uint64_t> out(weights.size());
    const auto [mean, variance] = mean_and_variance(kSamples, [&] {
      multinomial(rng, n, weights, out);
      return out[c];
    });
    const double p = weights[c] / 10.0;
    const double expected_var = static_cast<double>(n) * p * (1.0 - p);
    EXPECT_NEAR(mean, n * p, 5.0 * std::sqrt(expected_var / kSamples));
    EXPECT_NEAR(variance / expected_var, 1.0, 0.05);
  }
}

TEST(MultivariateHypergeometricTest, SumsToDrawsAndRespectsCounts) {
  util::Rng rng(5);
  const std::vector<std::uint64_t> counts = {17, 0, 5, 40, 1, 0, 30};
  std::vector<std::uint64_t> out(counts.size());
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t draws = rng.uniform_below(94);  // total is 93
    multivariate_hypergeometric(rng, counts, draws, out);
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      EXPECT_LE(out[j], counts[j]);
      sum += out[j];
    }
    EXPECT_EQ(sum, draws);
  }
}

TEST(MultivariateHypergeometricTest, MarginalMeansMatch) {
  util::Rng rng(11);
  const std::vector<std::uint64_t> counts = {100, 300, 600};
  std::vector<std::uint64_t> out(3);
  std::vector<double> mean(3, 0.0);
  const int samples = 50000;
  for (int i = 0; i < samples; ++i) {
    multivariate_hypergeometric(rng, counts, 100, out);
    for (int j = 0; j < 3; ++j) mean[j] += static_cast<double>(out[j]) / samples;
  }
  EXPECT_NEAR(mean[0], 10.0, 0.15);
  EXPECT_NEAR(mean[1], 30.0, 0.25);
  EXPECT_NEAR(mean[2], 60.0, 0.25);
}

TEST(CollisionFreeRunLengthTest, TwoAgentsAlwaysRunOne) {
  CollisionFreeRunLength dist(2);
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(dist.sample(rng), 1u);
}

TEST(CollisionFreeRunLengthTest, SamplesMatchSurvivalMean) {
  const std::uint64_t n = 400;
  CollisionFreeRunLength dist(n);
  util::Rng rng(17);
  double mean = 0.0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t len = dist.sample(rng);
    ASSERT_GE(len, 1u);
    ASSERT_LE(len, dist.max_length());
    mean += static_cast<double>(len) / samples;
  }
  // E[L] = sum_j P(L >= j) = mean_length(); ~0.88 sqrt(n) ~ 17.6 here.
  EXPECT_NEAR(mean, dist.mean_length(), 0.15);
  EXPECT_GT(dist.mean_length(), 0.5 * std::sqrt(static_cast<double>(n)));
}

TEST(CollisionFreeRunLengthTest, NeverExceedsHalfThePopulation) {
  CollisionFreeRunLength dist(9);  // max floor((9-1)/2)+... = 4 free pairs
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) EXPECT_LE(dist.sample(rng), 4u);
}

TEST(LastSpecialSlotTest, BoundsAndDegenerates) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(last_special_slot(rng, 6, 6), 6u);
    const std::uint64_t m = last_special_slot(rng, 10, 3);
    EXPECT_GE(m, 3u);
    EXPECT_LE(m, 10u);
  }
}

TEST(LastSpecialSlotTest, MatchesExactDistribution) {
  // slots=5, special=2: P(max=j) = C(j-1,1)/C(5,2) = (j-1)/10, j in 2..5.
  util::Rng rng(23);
  std::map<std::uint64_t, double> freq;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    freq[last_special_slot(rng, 5, 2)] += 1.0 / samples;
  }
  EXPECT_NEAR(freq[2], 0.1, 0.01);
  EXPECT_NEAR(freq[3], 0.2, 0.01);
  EXPECT_NEAR(freq[4], 0.3, 0.01);
  EXPECT_NEAR(freq[5], 0.4, 0.01);
}

TEST(BlockDrawTest, FindMatchesABinarySearchOverTheEnds) {
  // Random rate matrices with dead (zero-rate) blocks, first and last
  // included: find(r) must return what upper_bound over the cumulative ends
  // does, for random r and for r on every guide edge and every end.
  util::Rng rng(31);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t blocks = 1 + rng.uniform_below(80);
    std::vector<double> rates(blocks, 0.0);
    double sum = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (rng.uniform_below(3) == 0) continue;
      rates[b] = rng.uniform01() * (rng.uniform_below(4) == 0 ? 1e-3 : 1.0);
      sum += rates[b];
    }
    if (sum == 0.0) rates[blocks / 2] = sum = 1.0;
    for (double& r : rates) r /= sum;
    const BlockDraw draw(rates);
    std::vector<double> ends;
    double acc = 0.0;
    for (const double r : rates) {
      if (r <= 0.0) continue;
      acc += r;
      ends.push_back(acc);
    }
    ASSERT_EQ(draw.size(), ends.size());
    std::vector<double> probes;
    for (int i = 0; i < 500; ++i) probes.push_back(rng.uniform01());
    for (int g = 0; g < 256; ++g) probes.push_back(g / 256.0);
    for (const double e : ends) {
      for (const double r : {e, std::nextafter(e, 0.0)}) {
        if (r < 1.0) probes.push_back(r);  // uniform01 is below 1
      }
    }
    for (const double r : probes) {
      const auto expected = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), r) - ends.begin());
      EXPECT_EQ(draw.find(r), expected) << "r=" << r;
    }
  }
}

TEST(AgentIndexTest, GuideLookupMatchesALinearWalkOverEveryIndex) {
  // Random count rows whose zero-count categories include the first, the
  // last and interior ones, numbered through a shuffled id list, with guides
  // from one bucket to more buckets than agents: every agent index must map
  // to the category a linear walk over the cumulative counts finds.
  util::Rng rng(41);
  AgentIndex index;
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t w = 2 + rng.uniform_below(40);
    std::vector<std::uint64_t> counts(w, 0);
    for (std::size_t c = 1; c + 1 < w; ++c) {
      if (rng.uniform_below(3) != 0) counts[c] = 1 + rng.uniform_below(30);
    }
    counts[w / 2] += 1;  // at least one agent
    if (rep % 2 == 0) counts[0] = 1 + rng.uniform_below(5);
    if (rep % 3 == 0) counts[w - 1] = 1 + rng.uniform_below(5);
    std::vector<std::uint32_t> ids(w);
    for (std::size_t c = 0; c < w; ++c) ids[c] = static_cast<std::uint32_t>(c);
    rng.shuffle(std::span<std::uint32_t>(ids));
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;

    index.reserve(rng.uniform_below(2 * total + 2));
    index.build(ids, counts);
    ASSERT_EQ(index.total(), total);
    std::size_t c = 0;
    std::uint64_t below = 0;  // agents in categories before c
    for (std::uint64_t i = 0; i < total; ++i) {
      while (below + counts[ids[c]] <= i) below += counts[ids[c++]];
      ASSERT_EQ(index.category(i), c) << "rep " << rep << " index " << i;
    }
  }
}

TEST(TakenSetTest, InsertReportsRepeatsAcrossGrowthAndEpochs) {
  // Against std::set: insert() is false exactly for indices already taken
  // this epoch, also after the table doubles past its reservation, and
  // clear() forgets every index.
  util::Rng rng(43);
  TakenSet taken;
  taken.reserve(4);
  for (int epoch = 0; epoch < 50; ++epoch) {
    taken.clear();
    std::set<std::uint64_t> reference;
    const std::uint64_t range = 1 + rng.uniform_below(300);
    const int draws = static_cast<int>(rng.uniform_below(200));
    for (int d = 0; d < draws; ++d) {
      const std::uint64_t i = rng.uniform_below(range) * 0x100003ull;
      EXPECT_EQ(taken.insert(i), reference.insert(i).second);
    }
  }
  taken.clear();
  EXPECT_TRUE(taken.insert(0xffffffffull));  // the largest agent index
  EXPECT_FALSE(taken.insert(0xffffffffull));
  EXPECT_TRUE(taken.insert(0));
}

}  // namespace
}  // namespace circles::dense
