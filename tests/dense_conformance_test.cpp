// Statistical conformance gate for the batched dense engine.
//
// Two layers, each a family of tests under Holm's step-down correction at
// family-wise level kFamilyAlpha:
//
//  * Epoch law. What one epoch produces on tiny urns is compared by a
//    chi-square test with its exact law, found by enumeration.
//    - Per-agent epochs: the length L, the colliding block and the
//      per-block pair counts (how many interactions pair state s with
//      state t), against every sequence of scheduler draws up to the first
//      collision. The sampler under test is the engine's own:
//      sample_agent_epoch over AgentUrn numberings and a BlockDraw, the
//      calls DenseEngine makes. Draws with replacement, an off-by-one at a
//      category boundary of the index lookup and a responder allowed to be
//      its own initiator each fail it.
//    - Contingency epochs: the per-block pair counts for given block
//      lengths, against every ordered choice of the epoch's agents. This
//      runs a reference copy of the engine's deal and pairing loop built
//      on the library's hypergeometric draws.
//  * End to end. The agent array and dense_batched run the same specs, and
//    two-sample KS tests compare last_change_step and state_changes, on
//    single-urn and 4-urn clustered inputs, so a fault in the engine's
//    epoch loop around the samplers shows here.
//
// A null pair (dense_batched against itself on a second seed set) runs
// through the same end-to-end harness, and the KS p-value is checked for
// calibration, so the stated false-alarm rate is measured, not assumed.
// Every seed is fixed, so each test is deterministic; on a fresh seed set a
// correct engine fails a family with probability at most kFamilyAlpha.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dense/sampling.hpp"
#include "metrics/metrics.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace circles::dense {
namespace {

using CountVector = std::vector<std::uint64_t>;

/// Family-wise false-alarm rate of every test family below.
constexpr double kFamilyAlpha = 1e-3;

// --- p-values -------------------------------------------------------------

/// Asymptotic two-sample KS p-value for distance d between samples of
/// sizes m and n (Stephens' small-sample correction). Ties in discrete
/// statistics make it conservative.
double ks_p_value(double d, std::size_t m, std::size_t n) {
  const double ne = static_cast<double>(m) * static_cast<double>(n) /
                    static_cast<double>(m + n);
  const double root = std::sqrt(ne);
  const double lambda = (root + 0.12 + 0.11 / root) * d;
  if (lambda < 0.2) return 1.0;
  double sum = 0.0, sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = sign * 2.0 * std::exp(-2.0 * j * j * lambda * lambda);
    sum += term;
    if (std::abs(term) < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(sum, 0.0, 1.0);
}

/// Upper tail of the chi-square distribution with `dof` degrees of freedom:
/// the regularized gamma Q(dof/2, x/2), by its series below a + 1 and its
/// continued fraction above.
double chi_square_p_value(double x, std::size_t dof) {
  const double a = 0.5 * static_cast<double>(dof);
  const double z = 0.5 * x;
  if (z <= 0.0) return 1.0;
  const double log_prefix = a * std::log(z) - z - std::lgamma(a);
  if (z < a + 1.0) {
    double term = 1.0 / a, sum = term;
    for (int i = 1; i < 1000 && std::abs(term) > 1e-15 * sum; ++i) {
      term *= z / (a + i);
      sum += term;
    }
    return std::clamp(1.0 - sum * std::exp(log_prefix), 0.0, 1.0);
  }
  // Lentz's method for the continued fraction of Q.
  const double tiny = 1e-300;
  double b = z + 1.0 - a, c = 1.0 / tiny, d = 1.0 / b, h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return std::clamp(std::exp(log_prefix) * h, 0.0, 1.0);
}

/// Holm's step-down procedure: which hypotheses are rejected at
/// family-wise level alpha.
std::vector<bool> holm_reject(const std::vector<double>& p, double alpha) {
  std::vector<std::size_t> order(p.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return p[a] < p[b]; });
  std::vector<bool> reject(p.size(), false);
  for (std::size_t r = 0; r < order.size(); ++r) {
    if (p[order[r]] > alpha / static_cast<double>(order.size() - r)) break;
    reject[order[r]] = true;
  }
  return reject;
}

/// Runs a family of named p-values through Holm and reports each rejection.
void expect_family_quiet(const std::vector<std::string>& names,
                         const std::vector<double>& p) {
  const std::vector<bool> reject = holm_reject(p, kFamilyAlpha);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_FALSE(reject[i]) << names[i] << ": p = " << p[i];
  }
}

// --- the exact epoch law --------------------------------------------------

/// One epoch on tiny urns: per-urn state counts and the U x U matrix of
/// per-block interaction counts (row-major, block (u, v) = initiator urn u,
/// responder urn v).
struct EpochShape {
  std::string name;
  std::vector<CountVector> urns;
  std::vector<std::uint64_t> block_len;

  std::size_t num_urns() const { return urns.size(); }
  std::size_t num_states() const { return urns[0].size(); }
  /// Agents urn u contributes: initiators of (u, *) plus responders of
  /// (*, u).
  std::uint64_t takes(std::size_t u) const {
    std::uint64_t t = 0;
    for (std::size_t v = 0; v < num_urns(); ++v) {
      t += block_len[u * num_urns() + v] + block_len[v * num_urns() + u];
    }
    return t;
  }
};

/// Per-block pair counts, flattened as [block][initiator state][responder
/// state].
using Outcome = std::vector<std::uint64_t>;

/// The exact law of an epoch's pair counts: every ordered choice of
/// distinct agents per urn is equally likely; interaction j of block b takes
/// the next unused agent of urn u as initiator, then the next of urn v as
/// responder.
std::map<Outcome, double> exact_pair_law(const EpochShape& shape) {
  const std::size_t u_count = shape.num_urns();
  const std::size_t states = shape.num_states();
  std::vector<std::vector<std::uint32_t>> agents(u_count);  // agent -> state
  for (std::size_t u = 0; u < u_count; ++u) {
    for (std::uint32_t s = 0; s < states; ++s) {
      for (std::uint64_t i = 0; i < shape.urns[u][s]; ++i) {
        agents[u].push_back(s);
      }
    }
  }
  std::map<Outcome, double> law;
  std::uint64_t total = 0;
  std::vector<std::vector<std::uint32_t>> seq(u_count);
  std::vector<std::vector<bool>> taken(u_count);
  for (std::size_t u = 0; u < u_count; ++u) {
    taken[u].assign(agents[u].size(), false);
  }
  const auto tally = [&] {
    Outcome out(u_count * u_count * states * states, 0);
    std::vector<std::size_t> next(u_count, 0);
    for (std::size_t b = 0; b < u_count * u_count; ++b) {
      const std::size_t u = b / u_count, v = b % u_count;
      for (std::uint64_t j = 0; j < shape.block_len[b]; ++j) {
        const std::uint32_t s = seq[u][next[u]++];
        const std::uint32_t t = seq[v][next[v]++];
        out[(b * states + s) * states + t] += 1;
      }
    }
    law[out] += 1.0;
    ++total;
  };
  // Injective sequences of takes(u) agents per urn, urn by urn.
  std::function<void(std::size_t)> extend = [&](std::size_t u) {
    if (u == u_count) {
      tally();
      return;
    }
    if (seq[u].size() == shape.takes(u)) {
      extend(u + 1);
      return;
    }
    for (std::size_t a = 0; a < agents[u].size(); ++a) {
      if (taken[u][a]) continue;
      taken[u][a] = true;
      seq[u].push_back(agents[u][a]);
      extend(u);
      seq[u].pop_back();
      taken[u][a] = false;
    }
  };
  extend(0);
  for (auto& [outcome, mass] : law) mass /= static_cast<double>(total);
  return law;
}

/// Chi-square p-value of `draws` sampled outcomes against an exact law.
/// Outcomes expected fewer than five times are pooled into one cell; an
/// outcome outside the law's support gives p = 0.
double law_p_value(const std::map<Outcome, double>& law,
                   const std::function<Outcome(util::Rng&)>& sample,
                   std::uint64_t seed, std::uint64_t draws) {
  std::map<Outcome, std::uint64_t> seen;
  util::Rng rng(seed);
  for (std::uint64_t i = 0; i < draws; ++i) {
    const Outcome out = sample(rng);
    if (!law.count(out)) return 0.0;
    seen[out] += 1;
  }
  const double n = static_cast<double>(draws);
  double chi2 = 0.0, pooled_expected = 0.0, pooled_observed = 0.0;
  std::size_t cells = 0;
  for (const auto& [outcome, mass] : law) {
    const double expected = mass * n;
    const auto it = seen.find(outcome);
    const double observed =
        it == seen.end() ? 0.0 : static_cast<double>(it->second);
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += observed;
      continue;
    }
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++cells;
  }
  if (pooled_expected > 0.0) {
    chi2 += (pooled_observed - pooled_expected) *
            (pooled_observed - pooled_expected) / pooled_expected;
    ++cells;
  }
  if (cells < 2) return 1.0;
  return chi_square_p_value(chi2, cells - 1);
}

double epoch_law_p_value(const EpochShape& shape,
                         const std::function<Outcome(util::Rng&)>& sample,
                         std::uint64_t seed, std::uint64_t draws) {
  return law_p_value(exact_pair_law(shape), sample, seed, draws);
}

/// The tiny epochs the law is enumerated on: one urn holding {3, 2, 2}
/// with L in {1, 2, 3}, and two urns with every kind of block live (an
/// intra block, both cross blocks), where urn 0 gives up four of its five
/// agents and urn 1 two.
std::vector<EpochShape> epoch_shapes() {
  return {
      {"one urn {3,2,2}, L=1", {{3, 2, 2}}, {1}},
      {"one urn {3,2,2}, L=2", {{3, 2, 2}}, {2}},
      {"one urn {3,2,2}, L=3", {{3, 2, 2}}, {3}},
      {"two urns {2,2,1}/{1,2,2}, blocks 1,1,1,0",
       {{2, 2, 1}, {1, 2, 2}},
       {1, 1, 1, 0}},
  };
}

/// A reference copy of the batched engine's hypergeometric deal and
/// contingency pairing: each urn draws its agents' states as a multivariate
/// hypergeometric and splits them over its roles (initiators of (u, *),
/// then responders of (*, u)), and each block pairs its initiator row with
/// its responder row by a hypergeometric contingency table.
Outcome contingency_epoch(util::Rng& rng, const EpochShape& shape) {
  const std::size_t u_count = shape.num_urns();
  const std::size_t states = shape.num_states();
  const std::size_t blocks = u_count * u_count;
  std::vector<CountVector> init(blocks, CountVector(states, 0));
  std::vector<CountVector> resp(blocks, CountVector(states, 0));
  for (std::size_t u = 0; u < u_count; ++u) {
    const std::uint64_t t_u = shape.takes(u);
    if (t_u == 0) continue;
    CountVector rem(states, 0);
    multivariate_hypergeometric(rng, shape.urns[u], t_u, rem);
    const auto deal = [&](CountVector& target, std::uint64_t count) {
      if (count == 0) return;
      multivariate_hypergeometric(rng, rem, count, target);
      for (std::size_t i = 0; i < states; ++i) rem[i] -= target[i];
    };
    for (std::size_t v = 0; v < u_count; ++v) {
      deal(init[u * u_count + v], shape.block_len[u * u_count + v]);
    }
    for (std::size_t v = 0; v < u_count; ++v) {
      deal(resp[v * u_count + u], shape.block_len[v * u_count + u]);
    }
  }
  Outcome out(blocks * states * states, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t resp_pool = shape.block_len[b];
    for (std::size_t s = 0; s < states; ++s) {
      std::uint64_t need = init[b][s];
      std::uint64_t pool = resp_pool;
      for (std::size_t t = 0; t < states && need > 0; ++t) {
        const std::uint64_t avail = resp[b][t];
        if (avail == 0) continue;
        const std::uint64_t m = hypergeometric(rng, pool, avail, need);
        pool -= avail;
        resp[b][t] -= m;
        need -= m;
        out[(b * states + s) * states + t] += m;
      }
      resp_pool -= init[b][s];
    }
  }
  return out;
}

TEST(DenseConformanceTest, ContingencyEpochsFollowTheExactPairLaw) {
  std::vector<std::string> names;
  std::vector<double> p;
  std::uint64_t seed = 101;
  for (const EpochShape& shape : epoch_shapes()) {
    names.push_back(shape.name);
    p.push_back(epoch_law_p_value(
        shape, [&](util::Rng& rng) { return contingency_epoch(rng, shape); },
        seed++, 20'000));
  }
  expect_family_quiet(names, p);
}

/// A per-agent epoch on tiny urns: per-urn state counts and the row-major
/// block rate matrix. The epoch runs to its first collision, so its length
/// is part of the outcome.
struct AgentEpochShape {
  std::string name;
  std::vector<CountVector> urns;
  std::vector<double> rates;

  std::size_t num_urns() const { return urns.size(); }
  std::size_t num_states() const { return urns[0].size(); }
};

/// Collision-free interactions per epoch are at most 5 on these shapes; a
/// sampler that runs into this budget has missed a collision.
constexpr std::uint64_t kAgentEpochBudget = 16;

/// An epoch outcome: {L, collided, colliding block}, then the per-block pair
/// counts as in Outcome.
Outcome agent_outcome(const AgentEpochEnd& end, const Outcome& pairs) {
  Outcome out{end.length, end.collided ? 1u : 0u,
              end.collided ? end.block : 0u};
  out.insert(out.end(), pairs.begin(), pairs.end());
  return out;
}

/// The exact law of a per-agent epoch under the lumped scheduler: each step
/// draws block (u, v) with its rate, then a uniform initiator of urn u and a
/// uniform other responder of urn v; the epoch ends at the first step that
/// re-touches one of its agents. A step's probabilities depend only on the
/// states of the fresh agents, which the pair counts so far determine, so
/// the epochs still running after each step are merged by pair counts.
std::map<Outcome, double> exact_agent_epoch_law(const AgentEpochShape& shape) {
  const std::size_t u_count = shape.num_urns();
  const std::size_t states = shape.num_states();
  std::vector<double> n(u_count, 0.0);
  for (std::size_t u = 0; u < u_count; ++u) {
    for (const std::uint64_t c : shape.urns[u]) n[u] += static_cast<double>(c);
  }
  std::map<Outcome, double> law;
  std::map<Outcome, double> running{
      {Outcome(u_count * u_count * states * states, 0), 1.0}};
  for (std::uint64_t len = 0; !running.empty(); ++len) {
    std::map<Outcome, double> next;
    for (const auto& [pairs, mass] : running) {
      std::vector<CountVector> fresh = shape.urns;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t b = i / (states * states);
        fresh[b / u_count][i / states % states] -= pairs[i];
        fresh[b % u_count][i % states] -= pairs[i];
      }
      for (std::size_t b = 0; b < u_count * u_count; ++b) {
        if (shape.rates[b] <= 0.0) continue;
        const std::size_t u = b / u_count, v = b % u_count;
        const double cap = u == v ? n[u] * (n[u] - 1.0) : n[u] * n[v];
        double fresh_mass = 0.0;
        for (std::size_t s = 0; s < states; ++s) {
          if (fresh[u][s] == 0) continue;
          const double fs = static_cast<double>(fresh[u][s]);
          fresh[u][s] -= 1;  // the initiator is no longer a responder
          for (std::size_t t = 0; t < states; ++t) {
            const double ways = fs * static_cast<double>(fresh[v][t]);
            if (ways == 0.0) continue;
            fresh_mass += ways;
            Outcome longer = pairs;
            longer[(b * states + s) * states + t] += 1;
            next[longer] += mass * shape.rates[b] * ways / cap;
          }
          fresh[u][s] += 1;
        }
        const double collide =
            mass * shape.rates[b] * (1.0 - fresh_mass / cap);
        if (collide > 0.0) law[agent_outcome({len, true, b}, pairs)] += collide;
      }
    }
    running.swap(next);
  }
  return law;
}

/// The engine's per-agent sampler (sample_agent_epoch, with the engine's
/// AgentUrn numbering and BlockDraw) on one epoch of `shape`.
Outcome engine_agent_epoch(util::Rng& rng, const AgentEpochShape& shape,
                           const BlockDraw& blocks,
                           std::vector<AgentUrn>& urns) {
  const std::size_t u_count = shape.num_urns();
  const std::size_t states = shape.num_states();
  std::vector<std::uint32_t> ids(states);
  for (std::size_t s = 0; s < states; ++s) {
    ids[s] = static_cast<std::uint32_t>(s);
  }
  for (std::size_t u = 0; u < u_count; ++u) {
    urns[u].index.build(ids, shape.urns[u]);
  }
  Outcome pairs(u_count * u_count * states * states, 0);
  const AgentEpochEnd end = sample_agent_epoch(
      rng, u_count == 1 ? nullptr : &blocks, std::span<AgentUrn>(urns),
      kAgentEpochBudget,
      [&](std::uint64_t, std::size_t b, std::uint32_t s, std::uint32_t t) {
        pairs[(b * states + s) * states + t] += 1;
      });
  return agent_outcome(end, pairs);
}

/// One urn holding {3, 2, 2}; two urns {2,2,1}/{1,2,2} with every kind of
/// block live (an intra block, both cross blocks), and with a dead block.
std::vector<AgentEpochShape> agent_epoch_shapes() {
  return {
      {"one urn {3,2,2}", {{3, 2, 2}}, {1.0}},
      {"two urns {2,2,1}/{1,2,2}, rates .35/.15/.2/.3",
       {{2, 2, 1}, {1, 2, 2}},
       {0.35, 0.15, 0.2, 0.3}},
      {"two urns {2,2,1}/{1,2,2}, rates .5/.25/.25/0",
       {{2, 2, 1}, {1, 2, 2}},
       {0.5, 0.25, 0.25, 0.0}},
  };
}

TEST(DenseConformanceTest, PerAgentEpochsFollowTheExactPairLaw) {
  std::vector<std::string> names;
  std::vector<double> p;
  std::uint64_t seed = 201;
  for (const AgentEpochShape& shape : agent_epoch_shapes()) {
    const std::map<Outcome, double> law = exact_agent_epoch_law(shape);
    double total = 0.0;
    for (const auto& [outcome, mass] : law) total += mass;
    ASSERT_NEAR(total, 1.0, 1e-12) << shape.name;
    const BlockDraw blocks(shape.rates);
    std::vector<AgentUrn> urns(shape.num_urns());
    for (AgentUrn& urn : urns) urn.reserve(1);
    names.push_back(shape.name);
    p.push_back(law_p_value(
        law,
        [&](util::Rng& rng) {
          return engine_agent_epoch(rng, shape, blocks, urns);
        },
        seed++, 20'000));
  }
  expect_family_quiet(names, p);
}

/// The chi-square test has power where it matters: an epoch whose agents
/// are drawn with replacement stays inside the law's support at L = 1 but
/// over-weights same-state pairs (9/49 instead of 6/42 for (0, 0)).
TEST(DenseConformanceTest, ExactPairLawRejectsDrawsWithReplacement) {
  const EpochShape shape = epoch_shapes()[0];  // one urn {3, 2, 2}, L = 1
  const double p = epoch_law_p_value(
      shape,
      [&](util::Rng& rng) {
        const auto pick = [&] {
          std::uint64_t r = rng.uniform_below(7);
          std::size_t s = 0;
          while (r >= shape.urns[0][s]) r -= shape.urns[0][s++];
          return s;
        };
        Outcome out(shape.num_states() * shape.num_states(), 0);
        const std::size_t s = pick();
        const std::size_t t = pick();
        out[s * shape.num_states() + t] += 1;
        return out;
      },
      7, 20'000);
  EXPECT_LT(p, kFamilyAlpha);
}

// --- agent array against dense_batched ------------------------------------

struct ConformanceSpec {
  std::string name;
  std::uint32_t k;
  CountVector colors;
  std::uint32_t clusters;  // 0: uniform scheduler (one urn)
  // Bounds on the share of dense_batched epochs dealt agent by agent, so
  // the gate covers both epoch samplers.
  double min_agent_share;
  double max_agent_share;
};

/// Single-urn and clustered inputs. The k = 3 specs have many present
/// states per agent in an epoch, so nearly every epoch is dealt agent by
/// agent; the k = 2 specs have few, so nearly none is, and the 2-urn one
/// runs the multi-urn contingency path end to end (the block chain, the
/// per-urn deals, the block pairings and the per-block last-change
/// placement). Sizes stay small because Debug builds recount every block's
/// active pairs after each change.
std::vector<ConformanceSpec> conformance_specs() {
  return {
      {"one urn, k=3 n=300", 3, {120, 100, 80}, 0, 0.9, 1.0},
      {"one urn, k=2 n=4000", 2, {2100, 1900}, 0, 0.0, 0.1},
      {"4 urns, k=3 n=400", 3, {160, 130, 110}, 4, 0.9, 1.0},
      {"2 urns, k=2 n=16000", 2, {12000, 4000}, 2, 0.0, 0.1},
  };
}

struct Samples {
  std::vector<double> last_change_step;
  std::vector<double> state_changes;
};

Samples run_samples(const ConformanceSpec& c, sim::EngineKind backend,
                    std::uint64_t seed, std::uint32_t trials,
                    metrics::MetricsRegistry* metrics = nullptr) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = c.k;
  spec.workload = sim::WorkloadSpec::explicit_counts(c.colors);
  if (c.clusters > 0) {
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = c.clusters;
    spec.bridge = 0.05;
  }
  spec.backend = backend;
  spec.trials = trials;
  spec.seed = seed;
  sim::BatchOptions options;
  options.metrics = metrics;
  const sim::SpecResult result = sim::BatchRunner(options).run_one(spec);
  EXPECT_EQ(result.silent, trials) << c.name;
  Samples out;
  for (const auto& trial : result.trials) {
    out.last_change_step.push_back(
        static_cast<double>(trial.outcome.run.last_change_step));
    out.state_changes.push_back(
        static_cast<double>(trial.outcome.run.state_changes));
  }
  return out;
}

constexpr std::uint32_t kTrials = 200;

/// KS p-values of two sample sets, on both statistics.
void add_ks(const std::string& name, const Samples& a, const Samples& b,
            std::vector<std::string>& names, std::vector<double>& p) {
  names.push_back(name + ", last_change_step");
  p.push_back(ks_p_value(
      util::ks_distance(a.last_change_step, b.last_change_step),
      a.last_change_step.size(), b.last_change_step.size()));
  names.push_back(name + ", state_changes");
  p.push_back(ks_p_value(util::ks_distance(a.state_changes, b.state_changes),
                         a.state_changes.size(), b.state_changes.size()));
}

TEST(DenseConformanceTest, AgentAndBatchedAgreeInDistribution) {
  std::vector<std::string> names;
  std::vector<double> p;
  for (const ConformanceSpec& c : conformance_specs()) {
    const Samples agent =
        run_samples(c, sim::EngineKind::kAgentArray, 20261018, kTrials);
    metrics::MetricsRegistry registry;
    const Samples batched = run_samples(c, sim::EngineKind::kDenseBatched,
                                        20261018, kTrials, &registry);
    add_ks(c.name, agent, batched, names, p);
    const double share =
        static_cast<double>(registry.counter("dense.agent_epochs").value()) /
        static_cast<double>(registry.counter("dense.epochs").value());
    EXPECT_GE(share, c.min_agent_share) << c.name;
    EXPECT_LE(share, c.max_agent_share) << c.name;
  }
  expect_family_quiet(names, p);
}

/// The null pair: dense_batched against itself on a second seed set,
/// through the same harness. Both sides sample one law, so any rejection
/// here is a false alarm; the family rejects with probability at most
/// kFamilyAlpha.
TEST(DenseConformanceTest, NullPairStaysQuiet) {
  std::vector<std::string> names;
  std::vector<double> p;
  for (const ConformanceSpec& c : conformance_specs()) {
    const Samples a =
        run_samples(c, sim::EngineKind::kDenseBatched, 20261018, kTrials);
    const Samples b =
        run_samples(c, sim::EngineKind::kDenseBatched, 9031, kTrials);
    add_ks(c.name + " null", a, b, names, p);
  }
  expect_family_quiet(names, p);
}

/// The p-values the gate rests on are calibrated: under the null, the KS
/// p-value of two samples of kTrials falls below alpha at most about alpha
/// of the time (ties make it conservative), and chi-square p-values match
/// known quantiles.
TEST(DenseConformanceTest, PValuesAreCalibrated) {
  util::Rng rng(4242);
  const int reps = 2000;
  int below_5 = 0, below_1 = 0;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> a(kTrials), b(kTrials);
    for (auto& x : a) x = rng.uniform01();
    for (auto& x : b) x = rng.uniform01();
    const double pv =
        ks_p_value(util::ks_distance(a, b), a.size(), b.size());
    below_5 += pv < 0.05;
    below_1 += pv < 0.01;
  }
  // Binomial(2000, 0.05) has sd ~9.7; allow a 4-sd excess.
  EXPECT_LE(below_5, 0.05 * reps + 39);
  EXPECT_LE(below_1, 0.01 * reps + 18);
  EXPECT_GT(below_5, 0);  // not degenerate

  // chi-square upper quantiles: P(X > 3.841 | 1) = 0.05,
  // P(X > 18.307 | 10) = 0.05, P(X > 124.342 | 100) = 0.05.
  EXPECT_NEAR(chi_square_p_value(3.841, 1), 0.05, 1e-3);
  EXPECT_NEAR(chi_square_p_value(18.307, 10), 0.05, 1e-3);
  EXPECT_NEAR(chi_square_p_value(124.342, 100), 0.05, 1e-3);
  EXPECT_NEAR(chi_square_p_value(0.5, 4), 0.9735, 1e-3);
}

}  // namespace
}  // namespace circles::dense
