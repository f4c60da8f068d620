#include "dense/dense_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "metrics/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/recorder.hpp"
#include "pp/schedulers/clustered.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace circles::dense {
namespace {

using CountVector = std::vector<std::uint64_t>;

analysis::Workload workload_of(CountVector counts) {
  analysis::Workload w;
  w.counts = std::move(counts);
  return w;
}

/// A kernel lowered with its dense table turned off: every pair goes through
/// the hashed sparse cache, an independent path from the default dense
/// table the protocol constructor compiles.
std::shared_ptr<const kernel::CompiledProtocol> forced_sparse(
    const pp::Protocol& protocol) {
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  return std::make_shared<const kernel::CompiledProtocol>(protocol, options);
}

/// Exact silence on a count vector (the engine's active-pair criterion,
/// recomputed independently).
bool counts_silent(const pp::Protocol& protocol, const CountVector& counts) {
  for (pp::StateId s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    for (pp::StateId t = 0; t < counts.size(); ++t) {
      if (counts[t] == 0 || (s == t && counts[s] < 2)) continue;
      const pp::Transition tr = protocol.transition(s, t);
      if (tr.initiator != s || tr.responder != t) return false;
    }
  }
  return true;
}

/// Exhaustive BFS over the count-configuration graph: every configuration
/// reachable from `initial`, and the subset that is silent. Tiny instances
/// only (n <= 6, small state spaces).
std::set<CountVector> reachable_silent_configs(const pp::Protocol& protocol,
                                               const CountVector& initial) {
  std::set<CountVector> seen{initial};
  std::vector<CountVector> frontier{initial};
  std::set<CountVector> silent;
  while (!frontier.empty()) {
    const CountVector config = std::move(frontier.back());
    frontier.pop_back();
    bool any_change = false;
    for (pp::StateId s = 0; s < config.size(); ++s) {
      if (config[s] == 0) continue;
      for (pp::StateId t = 0; t < config.size(); ++t) {
        if (config[t] == 0 || (s == t && config[s] < 2)) continue;
        const pp::Transition tr = protocol.transition(s, t);
        if (tr.initiator == s && tr.responder == t) continue;
        any_change = true;
        CountVector next = config;
        next[s] -= 1;
        next[t] -= 1;
        next[tr.initiator] += 1;
        next[tr.responder] += 1;
        if (seen.insert(next).second) frontier.push_back(std::move(next));
      }
    }
    if (!any_change) silent.insert(config);
  }
  return silent;
}

TEST(DenseConfigTest, FromWorkloadPlacesAgentsInInputStates) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto workload = workload_of({3, 2, 1});
  const DenseConfig config = DenseConfig::from_workload(*protocol, workload);
  EXPECT_EQ(config.n(), 6u);
  EXPECT_EQ(config.num_states(), protocol->num_states());
  for (pp::ColorId c = 0; c < 3; ++c) {
    EXPECT_EQ(config.count(protocol->input(c)), workload.counts[c]);
  }
  EXPECT_EQ(config.present_states().size(), 3u);
  const auto histogram = config.output_histogram(*protocol);
  EXPECT_EQ(histogram, (CountVector{3, 2, 1}));
}

TEST(DenseConfigTest, FromPopulationMatchesAgentArray) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const std::vector<pp::ColorId> colors = {0, 1, 1, 0, 1};
  pp::Population population(*protocol, colors);
  const DenseConfig config =
      DenseConfig::from_population(*protocol, population);
  EXPECT_EQ(config.n(), 5u);
  EXPECT_EQ(config.count(protocol->input(0)), 2u);
  EXPECT_EQ(config.count(protocol->input(1)), 3u);
}

TEST(DenseEngineTest, ReachesSilenceAndConservesPopulation) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({40, 30, 20}));
    const pp::RunResult result = engine.run(config, 123);
    EXPECT_TRUE(result.silent);
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(config.n(), 90u);
    EXPECT_TRUE(counts_silent(*protocol, config.counts));
    // Exact silence detection: the run stops right after the final change.
    EXPECT_EQ(result.interactions, result.last_change_step + 1);
    // Silent consensus on the plurality winner (color 0).
    const auto histogram = config.output_histogram(*protocol);
    EXPECT_EQ(histogram[0], 90u);
  }
}

TEST(DenseEngineTest, AlreadySilentConfigurationStopsImmediately) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    // All agents of one color: diagonal states, no pair changes anything.
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({5, 0}));
    const pp::RunResult result = engine.run(config, 1);
    EXPECT_TRUE(result.silent);
    EXPECT_EQ(result.interactions, 0u);
    EXPECT_EQ(result.state_changes, 0u);
  }
}

TEST(DenseEngineTest, FixedBudgetRunsExactlyToBudget) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  pp::EngineOptions options;
  options.max_interactions = 5000;
  options.stop_when_silent = false;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({30, 20, 10}));
    const pp::RunResult result = engine.run(config, 9);
    EXPECT_EQ(result.interactions, 5000u);
    EXPECT_EQ(config.n(), 60u);
  }
}

TEST(DenseEngineTest, TinyBudgetReportsExhaustion) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  pp::EngineOptions options;
  options.max_interactions = 3;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of({500, 400, 300}));
    const pp::RunResult result = engine.run(config, 5);
    EXPECT_TRUE(result.budget_exhausted);
    EXPECT_FALSE(result.silent);
    EXPECT_EQ(result.interactions, 3u);
  }
}

TEST(DenseEngineTest, DeterministicPerSeed) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode);
    DenseConfig a =
        DenseConfig::from_workload(*protocol, workload_of({25, 20, 15}));
    DenseConfig b = a;
    const pp::RunResult ra = engine.run(a, 77);
    const pp::RunResult rb = engine.run(b, 77);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.last_change_step, rb.last_change_step);
    EXPECT_EQ(ra.final_outputs, rb.final_outputs);
  }
}

TEST(DenseEngineTest, ForcedSparseKernelMatchesDenseTable) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  DenseEngine dense_table(*protocol, {}, DenseMode::kBatched);
  DenseEngine sparse(forced_sparse(*protocol), {}, DenseMode::kBatched);
  EXPECT_EQ(dense_table.compiled().kind(), kernel::TableKind::kDense);
  EXPECT_EQ(sparse.compiled().kind(), kernel::TableKind::kSparse);
  DenseConfig a =
      DenseConfig::from_workload(*protocol, workload_of({12, 9, 6}));
  DenseConfig b = a;
  const pp::RunResult ra = dense_table.run(a, 321);
  const pp::RunResult rb = sparse.run(b, 321);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(ra.interactions, rb.interactions);
  EXPECT_EQ(ra.state_changes, rb.state_changes);
}

// --- single-urn bitwise regression ----------------------------------------

/// The multi-urn refactor must leave single-urn runs on the exact historical
/// RNG stream. These goldens were captured from the pre-refactor engine —
/// interactions, state_changes, last_change_step and an FNV-1a hash of the
/// final count vector, per (workload, seed, mode). Batched runs that deal
/// some epochs agent by agent (agent_epochs > 0) draw a different stream;
/// their values were re-recorded when that sampler landed.
TEST(DenseGoldenTest, SingleUrnStreamsMatchThePreRefactorEngine) {
  struct Golden {
    std::uint32_t k;
    CountVector counts;
    std::uint64_t seed;
    bool batched;
    std::uint64_t interactions;
    std::uint64_t state_changes;
    std::uint64_t last_change_step;
    std::uint64_t final_hash;
    std::uint64_t agent_epochs;  // epochs dealt agent by agent
  };
  const std::vector<Golden> goldens{
      {3, {40, 30, 20}, 123ull, false, 4226ull, 203ull, 4225ull,
       0xe9f6ad22c0cb1cffull, 0},
      {3, {40, 30, 20}, 123ull, true, 1666ull, 224ull, 1665ull,
       0xe9f6ad22c0cb1cffull, 7},
      {3, {400, 350, 250}, 777ull, false, 73594ull, 3203ull, 73593ull,
       0x69d34e9a4a4821b9ull, 0},
      {3, {400, 350, 250}, 777ull, true, 90401ull, 3196ull, 90400ull,
       0x69d34e9a4a4821b9ull, 233},
      {2, {6, 5}, 9ull, false, 135ull, 18ull, 134ull,
       0x580ddf4a9b4b380aull, 0},
      {2, {6, 5}, 9ull, true, 156ull, 22ull, 155ull, 0x580ddf4a9b4b380aull,
       0},
      {4, {2000, 1500, 900, 600}, 20260728ull, false, 338900ull, 12617ull,
       338899ull, 0x542d5bf6e303879bull, 0},
      {4, {2000, 1500, 900, 600}, 20260728ull, true, 236621ull, 12303ull,
       236620ull, 0x542d5bf6e303879bull, 1066},
  };
  for (const Golden& g : goldens) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = g.k});
    const DenseMode mode = g.batched ? DenseMode::kBatched : DenseMode::kPerStep;
    metrics::MetricsRegistry registry;
    pp::EngineOptions options;
    options.metrics = &registry;
    DenseEngine engine(*protocol, options, mode);
    DenseConfig config =
        DenseConfig::from_workload(*protocol, workload_of(g.counts));
    const pp::RunResult result = engine.run(config, g.seed);
    EXPECT_EQ(registry.counter("dense.agent_epochs").value(), g.agent_epochs)
        << "k=" << g.k;
    EXPECT_EQ(result.interactions, g.interactions) << "k=" << g.k;
    EXPECT_EQ(result.state_changes, g.state_changes) << "k=" << g.k;
    EXPECT_EQ(result.last_change_step, g.last_change_step) << "k=" << g.k;
    std::uint64_t hash = 1469598103934665603ull;
    for (const auto x : config.counts) hash = (hash ^ x) * 1099511628211ull;
    EXPECT_EQ(hash, g.final_hash) << "k=" << g.k;

    // A 1-urn UrnConfig on the same engine consumes the identical stream.
    UrnConfig urn = UrnConfig::from_dense(
        DenseConfig::from_workload(*protocol, workload_of(g.counts)));
    const pp::RunResult urn_result = engine.run(urn, g.seed);
    EXPECT_EQ(urn_result.interactions, g.interactions);
    EXPECT_EQ(urn_result.state_changes, g.state_changes);
    EXPECT_EQ(urn.aggregate().counts, config.counts);
  }
}

// --- urn configurations ----------------------------------------------------

TEST(UrnConfigTest, FromWorkloadDealsEveryAgentExactlyOnce) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const analysis::Workload workload = workload_of({50, 30, 20});
  const std::vector<std::uint64_t> sizes{60, 25, 15};
  util::Rng rng(5);
  const UrnConfig config =
      UrnConfig::from_workload(*protocol, workload, sizes, rng);
  ASSERT_EQ(config.num_urns(), 3u);
  EXPECT_EQ(config.n(), 100u);
  EXPECT_EQ(config.sizes(), sizes);
  // The aggregate is exactly the unpartitioned initial configuration.
  EXPECT_EQ(config.aggregate(),
            DenseConfig::from_workload(*protocol, workload));
  EXPECT_EQ(config.output_histogram(*protocol), workload.counts);
}

TEST(UrnConfigTest, FromWorkloadSplitIsHypergeometric) {
  // Mean of urn 0's color-0 count across many deals must match the
  // hypergeometric mean size0 * c0 / n.
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const analysis::Workload workload = workload_of({30, 20});
  util::Rng rng(11);
  double sum = 0.0;
  const int kDeals = 4000;
  for (int i = 0; i < kDeals; ++i) {
    const UrnConfig config =
        UrnConfig::from_workload(*protocol, workload, {{20, 30}}, rng);
    sum += static_cast<double>(config.urns[0][protocol->input(0)]);
  }
  EXPECT_NEAR(sum / kDeals, 20.0 * 30.0 / 50.0, 0.25);
}

TEST(UrnConfigTest, FromPopulationPartitionsByIdRanges) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const std::vector<pp::ColorId> colors = {0, 1, 1, 0, 1};
  pp::Population population(*protocol, colors);
  const UrnConfig config =
      UrnConfig::from_population(*protocol, population, {{2, 3}});
  ASSERT_EQ(config.num_urns(), 2u);
  EXPECT_EQ(config.urns[0][protocol->input(0)], 1u);
  EXPECT_EQ(config.urns[0][protocol->input(1)], 1u);
  EXPECT_EQ(config.urns[1][protocol->input(0)], 1u);
  EXPECT_EQ(config.urns[1][protocol->input(1)], 2u);
}

// --- multi-urn engine basics -----------------------------------------------

namespace urn_harness {

pp::UrnLumping dumbbell(std::vector<std::uint64_t> sizes, double bridge) {
  pp::ClusteredOptions options;
  options.sizes = std::move(sizes);
  options.bridge_probability = bridge;
  std::uint64_t n = 0;
  for (const auto s : options.sizes) n += s;
  return pp::clustered_lumping(n, options);
}

}  // namespace urn_harness

TEST(UrnEngineTest, ReachesSilenceExactlyAndConservesUrnSizes) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({60, 40}, 0.05);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode, lumping);
    util::Rng rng(3);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({50, 30, 20}), lumping.sizes, rng);
    const pp::RunResult result = engine.run(config, 99);
    EXPECT_TRUE(result.silent);
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(config.sizes(), lumping.sizes);
    // Exact silence detection: the run stops right after the final change.
    EXPECT_EQ(result.interactions, result.last_change_step + 1);
    // Silent consensus on the plurality winner (color 0).
    EXPECT_EQ(config.output_histogram(*protocol)[0], 100u);
  }
}

TEST(UrnEngineTest, DeterministicPerSeedAndAcrossKernelPaths) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({30, 20, 10}, 0.1);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine compiled(*protocol, {}, mode, lumping);
    DenseEngine sparse(forced_sparse(*protocol), {}, mode, lumping);
    util::Rng rng(8);
    const UrnConfig initial = UrnConfig::from_workload(
        *protocol, workload_of({25, 20, 15}), lumping.sizes, rng);
    UrnConfig a = initial, b = initial, c = initial;
    const pp::RunResult ra = compiled.run(a, 41);
    const pp::RunResult rb = compiled.run(b, 41);
    const pp::RunResult rc = sparse.run(c, 41);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.state_changes, rb.state_changes);
    EXPECT_EQ(ra.last_change_step, rb.last_change_step);
    // Dense-table and forced-sparse kernels are bitwise identical,
    // multi-urn included.
    EXPECT_EQ(a, c);
    EXPECT_EQ(ra.interactions, rc.interactions);
    EXPECT_EQ(ra.state_changes, rc.state_changes);
  }
}

TEST(UrnEngineTest, BudgetExhaustionReportedExactly) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({300, 300}, 0.01);
  pp::EngineOptions options;
  options.max_interactions = 4000;
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, options, mode, lumping);
    util::Rng rng(2);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({300, 200, 100}), lumping.sizes, rng);
    const pp::RunResult result = engine.run(config, 7);
    EXPECT_TRUE(result.budget_exhausted);
    EXPECT_EQ(result.interactions, 4000u);
    EXPECT_EQ(config.n(), 600u);
  }
}

TEST(UrnEngineTest, RejectsMismatchedConfigurations) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const auto lumping = urn_harness::dumbbell({6, 4}, 0.2);
  DenseEngine engine(*protocol, {}, DenseMode::kPerStep, lumping);
  // DenseConfig on a multi-urn engine.
  DenseConfig dense = DenseConfig::from_workload(*protocol, workload_of({6, 4}));
  EXPECT_DEATH((void)engine.run(dense, 1), "multi-urn");
  // Wrong urn count.
  UrnConfig one = UrnConfig::from_dense(
      DenseConfig::from_workload(*protocol, workload_of({6, 4})));
  EXPECT_DEATH((void)engine.run(one, 1), "urn");
  // Wrong per-urn sizes.
  util::Rng rng(1);
  UrnConfig swapped = UrnConfig::from_workload(*protocol, workload_of({6, 4}),
                                               {{4, 6}}, rng);
  EXPECT_DEATH((void)engine.run(swapped, 1), "lumping");
}

// --- active-pair bookkeeping golden ----------------------------------------

/// Pins every observable of a run — the result fields, the engine's work
/// counters and the final per-urn counts (nonzero entries as urn:state=count)
/// — recorded from the engine that rebuilt every block's active-pair count
/// from scratch after each state change. The incremental bookkeeping that
/// replaced the rebuild must keep every draw, so each summary is unchanged.
/// Batched cases that deal some epochs agent by agent (agent_epochs > 0)
/// draw a different stream; their summaries were re-recorded when that
/// sampler landed. Multi-urn contingency epochs once drew their deals and
/// pairings from per-urn and per-block sub-streams; the one case that takes
/// such epochs was re-recorded when they moved onto the run's own stream.
/// Unlike the kernel-path identity tests, both sides of this comparison do
/// not share the active-pair code.
TEST(DenseGoldenTest, ActivePairBookkeepingKeepsEveryDraw) {
  struct Case {
    const char* name;
    const char* protocol;
    std::uint32_t k;
    CountVector colors;
    std::vector<std::uint64_t> sizes;  // empty: one urn, DenseConfig path
    double bridge;
    DenseMode mode;
    bool sparse;  // forced-sparse kernel (max_dense_entries = 0)
    std::uint64_t budget;
    std::uint64_t seed;
    const char* golden;
    std::uint64_t agent_epochs;  // epochs dealt agent by agent
  };
  const std::vector<Case> cases{
      {"single-urn batched margin-1", "circles", 3, {3001, 3000, 1500}, {}, 0.0,
       DenseMode::kBatched, false, 500'000'000, 17,
       "interactions=272980139 state_changes=73570 last_change_step=272980138 "
       "silent=1 epochs=2130 mvhg_draws=2 ff_jumps=54908 "
       "ff_interactions=272808008 counts=0:0=1 0:3=3000 0:9=1500 0:15=1500 "
       "0:18=1500 ", 2129},
      {"8-urn clustered batched", "circles", 3, {1900, 1300, 800},
       {500, 500, 500, 500, 500, 500, 500, 500}, 0.02, DenseMode::kBatched,
       false, 500'000'000, 23,
       "interactions=130175 state_changes=8107 last_change_step=130174 "
       "silent=1 epochs=744 mvhg_draws=0 ff_jumps=1303 ff_interactions=98648 "
       "counts=0:0=74 0:3=169 0:9=82 0:15=89 0:18=86 1:0=88 1:3=159 1:9=54 "
       "1:15=102 1:18=97 2:0=78 2:3=166 2:9=75 2:15=89 2:18=92 3:0=91 3:3=152 "
       "3:9=43 3:15=106 3:18=108 4:0=63 4:3=166 4:9=60 4:15=105 4:18=106 "
       "5:0=68 5:3=172 5:9=91 5:15=87 5:18=82 6:0=89 6:3=146 6:9=36 6:15=114 "
       "6:18=115 7:0=49 7:3=170 7:9=59 7:15=108 7:18=114 ", 744},
      {"8-urn clustered batched, budget cut", "circles", 3, {260, 200, 180},
       {80, 80, 80, 80, 80, 80, 80, 80}, 0.01, DenseMode::kBatched, false,
       6'000, 29,
       "interactions=6000 state_changes=1222 last_change_step=5998 silent=0 "
       "epochs=151 mvhg_draws=0 ff_jumps=367 ff_interactions=3295 "
       "counts=0:0=2 0:3=14 0:4=6 0:5=3 0:6=1 0:8=2 0:9=1 0:10=1 0:13=3 "
       "0:15=13 0:16=8 0:17=1 0:18=9 0:19=10 0:20=4 0:22=1 0:23=1 1:0=3 "
       "1:3=15 1:4=2 1:5=5 1:6=1 1:10=2 1:13=2 1:15=12 1:16=7 1:17=5 1:18=8 "
       "1:19=7 1:20=7 1:22=1 1:23=2 1:26=1 2:0=18 2:3=14 2:6=11 2:15=13 "
       "2:18=24 3:0=8 3:3=20 3:4=2 3:5=2 3:6=3 3:9=4 3:10=1 3:15=17 3:17=1 "
       "3:18=17 3:19=1 3:20=4 4:0=3 4:3=11 4:4=15 4:9=2 4:10=3 4:13=7 4:15=6 "
       "4:16=14 4:18=2 4:19=14 4:20=2 4:23=1 5:0=3 5:3=13 5:4=6 5:5=5 5:9=2 "
       "5:10=2 5:13=2 5:15=6 5:16=13 5:17=4 5:18=8 5:19=9 5:20=5 5:23=1 "
       "5:26=1 6:0=13 6:3=21 6:4=2 6:6=2 6:9=6 6:15=16 6:16=1 6:18=19 7:0=10 "
       "7:3=17 7:4=1 7:5=5 7:6=1 7:9=6 7:15=17 7:16=1 7:17=1 7:18=16 7:19=1 "
       "7:20=3 7:26=1 ", 151},
      {"3-urn per-step", "circles", 3, {110, 90, 70}, {120, 90, 60}, 0.1,
       DenseMode::kPerStep, false, 500'000'000, 31,
       "interactions=30864 state_changes=849 last_change_step=30863 "
       "silent=1 epochs=0 mvhg_draws=0 ff_jumps=0 ff_interactions=0 "
       "counts=0:0=5 0:3=44 0:9=18 0:15=29 0:18=24 1:0=1 1:3=32 1:9=2 "
       "1:15=30 1:18=25 2:0=14 2:3=14 2:15=11 2:18=21 ", 0},
      {"single-urn per-step", "circles", 4, {90, 80, 70, 60}, {}, 0.0,
       DenseMode::kPerStep, false, 500'000'000, 37,
       "interactions=43270 state_changes=1043 last_change_step=43269 "
       "silent=1 epochs=0 mvhg_draws=0 ff_jumps=0 ff_interactions=0 "
       "counts=0:0=10 0:4=80 0:16=10 0:24=70 0:32=10 0:44=60 0:48=60 ", 0},
      {"4-urn batched, forced-sparse kernel", "circles", 4, {700, 600, 500, 400},
       {800, 600, 500, 300}, 0.05, DenseMode::kBatched, true, 500'000'000,
       41,
       "interactions=602147 state_changes=7679 last_change_step=602146 "
       "silent=1 epochs=661 mvhg_draws=0 ff_jumps=3117 ff_interactions=580371 "
       "counts=0:0=33 0:4=229 0:16=68 0:24=168 0:32=11 0:44=140 0:48=151 "
       "1:0=23 1:4=163 1:16=22 1:24=145 1:32=31 1:44=105 1:48=111 2:0=26 "
       "2:4=131 2:16=10 2:24=121 2:32=33 2:44=94 2:48=85 3:0=18 3:4=77 "
       "3:24=66 3:32=25 3:44=61 3:48=53 ", 661},
      // Protocols whose same-state pairs can be non-null, so the diagonal
      // blocks' own-agent correction is exercised.
      {"unordered_circles single-urn batched", "unordered_circles", 3,
       {120, 100, 80}, {}, 0.0, DenseMode::kBatched, false, 500'000'000, 43,
       "interactions=331672 state_changes=20277 last_change_step=331671 "
       "silent=1 epochs=620 mvhg_draws=2 ff_jumps=17215 "
       "ff_interactions=307229 counts=0:10=6 0:16=113 0:43=1 0:55=16 0:58=83 "
       "0:85=1 0:127=79 0:154=1 ", 619},
      {"unordered_circles 4-urn batched", "unordered_circles", 3,
       {120, 100, 80}, {100, 80, 70, 50}, 0.05, DenseMode::kBatched, false,
       500'000'000, 47,
       "interactions=5907131 state_changes=81364 last_change_step=5907130 "
       "silent=1 epochs=491 mvhg_draws=0 ff_jumps=78814 "
       "ff_interactions=5822755 counts=0:15=43 0:57=27 0:126=1 0:129=29 "
       "1:12=6 1:15=24 1:57=26 1:126=1 1:129=22 1:156=1 2:15=27 2:42=1 "
       "2:57=31 2:84=1 2:126=1 2:129=9 3:15=19 3:57=15 3:129=16 ", 491},
      // Three states leave almost no epoch short enough to deal agent by
      // agent; this run has none, so it pins the contingency path's stream.
      {"approx_majority single-urn batched", "approx_majority_3state", 2,
       {101000, 99000}, {}, 0.0, DenseMode::kBatched, false, 500'000'000, 63,
       "interactions=4909347 state_changes=1584344 "
       "last_change_step=4909346 silent=1 epochs=12064 mvhg_draws=24128 "
       "ff_jumps=2217 ff_interactions=1505761 counts=0:0=200000 ",
       0},
      // Circles at k >= 8: hundreds of states, so nearly every epoch is
      // dealt agent by agent and fast-forward changes compact long present
      // lists.
      {"circles k=8 single-urn batched margin-1", "circles", 8,
       {101, 100, 100, 100, 100, 100, 100, 100}, {}, 0.0, DenseMode::kBatched,
       false, 500'000'000, 67,
       "interactions=2398705 state_changes=5147 last_change_step=2398704 "
       "silent=1 epochs=201 mvhg_draws=0 ff_jumps=3699 "
       "ff_interactions=2391441 counts=0:0=1 0:8=100 0:80=100 0:152=100 "
       "0:224=100 0:296=100 0:368=100 0:440=100 0:448=100 ", 201},
      {"circles k=8 8-urn clustered batched", "circles", 8,
       {300, 200, 150, 110, 80, 60, 50, 50},
       {125, 125, 125, 125, 125, 125, 125, 125}, 0.02, DenseMode::kBatched,
       false, 500'000'000, 71,
       "interactions=44365661 state_changes=3261 last_change_step=44365660 "
       "silent=1 epochs=229 mvhg_draws=0 ff_jumps=1446 "
       "ff_interactions=44359104 counts=0:0=9 0:8=24 0:64=6 0:80=19 0:128=5 "
       "0:152=14 0:192=3 0:224=10 0:256=6 0:296=4 0:368=3 0:440=7 0:448=15 "
       "1:0=17 1:8=21 1:80=20 1:128=6 1:152=14 1:192=4 1:224=10 1:256=1 "
       "1:296=7 1:320=1 1:368=8 1:440=8 1:448=8 2:8=26 2:64=8 2:80=20 "
       "2:128=11 2:152=10 2:224=11 2:256=7 2:296=10 2:320=1 2:368=9 2:440=9 "
       "2:448=3 3:0=24 3:8=27 3:64=17 3:80=12 3:152=11 3:192=2 3:224=10 "
       "3:256=3 3:296=6 3:368=5 3:440=3 3:448=5 4:0=22 4:8=21 4:64=4 4:80=16 "
       "4:128=1 4:152=15 4:192=4 4:224=11 4:296=10 4:320=4 4:368=8 4:440=5 "
       "4:448=4 5:0=14 5:8=23 5:64=2 5:80=21 5:128=4 5:152=17 5:192=10 "
       "5:224=9 5:256=2 5:296=7 5:368=4 5:440=8 5:448=4 6:0=10 6:8=29 6:64=8 "
       "6:80=18 6:128=3 6:152=13 6:192=3 6:224=10 6:256=1 6:296=9 6:320=2 "
       "6:368=7 6:440=6 6:448=6 7:0=4 7:8=29 7:64=5 7:80=24 7:128=10 7:152=16 "
       "7:192=4 7:224=9 7:296=7 7:320=2 7:368=6 7:440=4 7:448=5 ", 229},
      // Few present states against ~sqrt(n) agents per epoch: every epoch
      // takes the multi-urn contingency path (the block chain, mvhg deals
      // and block pairings), and the budget cuts the run inside one, so
      // the final change is placed per block.
      {"circles k=2 2-urn clustered batched, contingency epochs", "circles",
       2, {10500, 9500}, {12000, 8000}, 0.05, DenseMode::kBatched, false,
       240'000, 59,
       "interactions=240000 state_changes=40276 last_change_step=239994 "
       "silent=0 epochs=2664 mvhg_draws=19350 ff_jumps=0 ff_interactions=0 "
       "counts=0:0=910 0:2=3872 0:3=1536 0:4=3420 0:5=1993 0:7=269 1:0=470 "
       "1:2=2700 1:3=1012 1:4=2608 1:5=1099 1:7=111 ", 0},
      {"ordering 3-urn per-step", "ordering", 3, {40, 30, 20}, {40, 30, 20},
       0.1, DenseMode::kPerStep, false, 500'000'000, 53,
       "interactions=133995 state_changes=568 last_change_step=133994 "
       "silent=1 epochs=0 mvhg_draws=0 ff_jumps=0 ff_interactions=0 "
       "counts=0:0=17 0:7=12 0:14=10 0:17=1 1:0=13 1:3=1 1:7=10 "
       "1:14=6 2:0=9 2:7=7 2:10=1 2:14=3 ", 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto protocol =
        sim::ProtocolRegistry::global().create(c.protocol, {.k = c.k});
    metrics::MetricsRegistry registry;
    pp::EngineOptions options;
    options.max_interactions = c.budget;
    options.metrics = &registry;
    const auto kernel =
        c.sparse ? forced_sparse(*protocol)
                 : std::make_shared<const kernel::CompiledProtocol>(*protocol);
    pp::RunResult result;
    std::vector<CountVector> final_urns;
    if (c.sizes.empty()) {
      DenseEngine engine(kernel, options, c.mode);
      DenseConfig config =
          DenseConfig::from_workload(*protocol, workload_of(c.colors));
      result = engine.run(config, c.seed);
      final_urns.push_back(config.counts);
    } else {
      const auto lumping = urn_harness::dumbbell(c.sizes, c.bridge);
      DenseEngine engine(kernel, options, c.mode, lumping);
      util::Rng rng(c.seed);
      UrnConfig config = UrnConfig::from_workload(
          *protocol, workload_of(c.colors), lumping.sizes, rng);
      result = engine.run(config, c.seed);
      final_urns = config.urns;
    }
    std::ostringstream summary;
    summary << "interactions=" << result.interactions
            << " state_changes=" << result.state_changes
            << " last_change_step=" << result.last_change_step
            << " silent=" << result.silent
            << " epochs=" << registry.counter("dense.epochs").value()
            << " mvhg_draws=" << registry.counter("dense.mvhg_draws").value()
            << " ff_jumps="
            << registry.counter("dense.fast_forward_jumps").value()
            << " ff_interactions="
            << registry.counter("dense.fast_forward_interactions").value()
            << " counts=";
    for (std::size_t u = 0; u < final_urns.size(); ++u) {
      for (std::size_t s = 0; s < final_urns[u].size(); ++s) {
        if (final_urns[u][s] == 0) continue;
        summary << u << ':' << s << '=' << final_urns[u][s] << ' ';
      }
    }
    EXPECT_EQ(summary.str(), c.golden);
    EXPECT_EQ(registry.counter("dense.agent_epochs").value(), c.agent_epochs);
  }
}

// --- multi-urn cross-backend equivalence -----------------------------------

namespace urn_harness {

using UrnCounts = std::vector<CountVector>;

/// Exhaustive BFS over the per-urn count-configuration graph under a
/// lumping's positive-rate blocks; returns the reachable silent subset.
std::set<UrnCounts> reachable_silent_urn_configs(const pp::Protocol& protocol,
                                                 const pp::UrnLumping& lumping,
                                                 const UrnCounts& initial) {
  const std::size_t u_count = lumping.num_urns();
  std::set<UrnCounts> seen{initial};
  std::vector<UrnCounts> frontier{initial};
  std::set<UrnCounts> silent;
  while (!frontier.empty()) {
    const UrnCounts config = std::move(frontier.back());
    frontier.pop_back();
    bool any_change = false;
    for (std::size_t u = 0; u < u_count; ++u) {
      for (std::size_t v = 0; v < u_count; ++v) {
        if (lumping.rate(u, v) <= 0.0) continue;
        for (pp::StateId s = 0; s < config[u].size(); ++s) {
          if (config[u][s] == 0) continue;
          for (pp::StateId t = 0; t < config[v].size(); ++t) {
            if (config[v][t] == 0 ||
                (u == v && s == t && config[u][s] < 2)) {
              continue;
            }
            const pp::Transition tr = protocol.transition(s, t);
            if (tr.initiator == s && tr.responder == t) continue;
            any_change = true;
            UrnCounts next = config;
            next[u][s] -= 1;
            next[v][t] -= 1;
            next[u][tr.initiator] += 1;
            next[v][tr.responder] += 1;
            if (seen.insert(next).second) frontier.push_back(std::move(next));
          }
        }
      }
    }
    if (!any_change) silent.insert(config);
  }
  return silent;
}

/// Agent-array reference with the clustered scheduler from a fixed initial
/// split: colors laid out so id range u holds exactly initial[u].
UrnCounts agent_clustered_final(const pp::Protocol& protocol,
                                const pp::UrnLumping& lumping,
                                const UrnCounts& initial_colors_by_urn,
                                std::uint64_t seed) {
  std::vector<pp::ColorId> colors;
  for (const CountVector& urn : initial_colors_by_urn) {
    for (pp::ColorId c = 0; c < urn.size(); ++c) {
      for (std::uint64_t i = 0; i < urn[c]; ++i) colors.push_back(c);
    }
  }
  pp::Population population(protocol, colors);
  pp::ClusteredScheduler scheduler(lumping, seed);
  pp::Engine engine;
  const pp::RunResult result = engine.run(protocol, population, scheduler);
  EXPECT_TRUE(result.silent);
  return dense::UrnConfig::from_population(protocol, population,
                                           lumping.sizes)
      .urns;
}

/// Urn-engine run from the same fixed initial split.
UrnCounts urn_engine_final(const pp::Protocol& protocol,
                           const pp::UrnLumping& lumping,
                           const UrnCounts& initial_colors_by_urn,
                           DenseMode mode, std::uint64_t seed) {
  dense::UrnConfig config;
  config.urns.assign(lumping.num_urns(),
                     CountVector(protocol.num_states(), 0));
  for (std::size_t u = 0; u < initial_colors_by_urn.size(); ++u) {
    for (pp::ColorId c = 0; c < initial_colors_by_urn[u].size(); ++c) {
      config.urns[u][protocol.input(c)] += initial_colors_by_urn[u][c];
    }
  }
  DenseEngine engine(protocol, {}, mode, lumping);
  const pp::RunResult result = engine.run(config, seed);
  EXPECT_TRUE(result.silent);
  return config.urns;
}

/// Initial per-urn state counts from per-urn color counts.
UrnCounts states_of(const pp::Protocol& protocol,
                    const UrnCounts& colors_by_urn) {
  UrnCounts out(colors_by_urn.size(), CountVector(protocol.num_states(), 0));
  for (std::size_t u = 0; u < colors_by_urn.size(); ++u) {
    for (pp::ColorId c = 0; c < colors_by_urn[u].size(); ++c) {
      out[u][protocol.input(c)] += colors_by_urn[u][c];
    }
  }
  return out;
}

}  // namespace urn_harness

/// Exhaustive tiny-population check against the clustered scheduler: for
/// every per-urn color split with 2+2 <= n <= 3+3 agents over k <= 3 colors,
/// both urn modes and the agent array (driven by the generalized
/// ClusteredScheduler) land only in configurations the BFS over the lumped
/// block structure proves reachable-and-silent; whenever that set is a
/// singleton, all backends land exactly there.
TEST(UrnEquivalenceTest, ExhaustiveTinySplitsAgainstBfsAndAgentArray) {
  using urn_harness::UrnCounts;
  for (const std::uint32_t k : {2u, 3u}) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = k});
    for (const std::uint64_t half : {2ull, 3ull}) {
      const auto lumping = urn_harness::dumbbell({half, half}, 0.25);
      // Enumerate all per-urn color splits with `half` agents per urn.
      std::vector<CountVector> urn_fills;
      CountVector fill(k, 0);
      const auto enumerate = [&](auto&& self, std::uint32_t color,
                                 std::uint64_t remaining) -> void {
        if (color + 1 == k) {
          fill[color] = remaining;
          urn_fills.push_back(fill);
          return;
        }
        for (std::uint64_t c = 0; c <= remaining; ++c) {
          fill[color] = c;
          self(self, color + 1, remaining - c);
        }
      };
      enumerate(enumerate, 0, half);

      for (std::size_t a = 0; a < urn_fills.size(); ++a) {
        for (std::size_t b = 0; b < urn_fills.size(); ++b) {
          const UrnCounts initial{urn_fills[a], urn_fills[b]};
          const auto silent_set = urn_harness::reachable_silent_urn_configs(
              *protocol, lumping,
              urn_harness::states_of(*protocol, initial));
          ASSERT_FALSE(silent_set.empty());
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const auto agent = urn_harness::agent_clustered_final(
                *protocol, lumping, initial, seed);
            const auto per_step = urn_harness::urn_engine_final(
                *protocol, lumping, initial, DenseMode::kPerStep, seed);
            const auto batched = urn_harness::urn_engine_final(
                *protocol, lumping, initial, DenseMode::kBatched, seed);
            EXPECT_TRUE(silent_set.count(agent))
                << "agent escaped the reachable-silent set";
            EXPECT_TRUE(silent_set.count(per_step))
                << "urn per-step escaped the reachable-silent set";
            EXPECT_TRUE(silent_set.count(batched))
                << "urn batched escaped the reachable-silent set";
            if (silent_set.size() == 1) {
              EXPECT_EQ(agent, per_step);
              EXPECT_EQ(agent, batched);
            }
          }
        }
      }
    }
  }
}

/// Where several silent configurations are reachable, agent and urn
/// backends must cover the same outcome set from one fixed initial split.
TEST(UrnEquivalenceTest, TiedSplitOutcomeSetsMatchAcrossBackends) {
  using urn_harness::UrnCounts;
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const auto lumping = urn_harness::dumbbell({2, 2}, 0.3);
  const UrnCounts initial{{1, 1}, {1, 1}};  // 2-2 tie split across the urns
  const auto silent_set = urn_harness::reachable_silent_urn_configs(
      *protocol, lumping, urn_harness::states_of(*protocol, initial));
  ASSERT_GT(silent_set.size(), 1u);

  std::set<UrnCounts> agent_set, per_step_set, batched_set;
  // Enough fixed seeds to cover the full outcome support on every backend
  // (the rarest silent configuration has probability ~1%).
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    agent_set.insert(urn_harness::agent_clustered_final(*protocol, lumping,
                                                        initial, seed));
    per_step_set.insert(urn_harness::urn_engine_final(
        *protocol, lumping, initial, DenseMode::kPerStep, seed));
    batched_set.insert(urn_harness::urn_engine_final(
        *protocol, lumping, initial, DenseMode::kBatched, seed));
  }
  EXPECT_EQ(agent_set, per_step_set);
  EXPECT_EQ(agent_set, batched_set);
  for (const auto& config : agent_set) {
    EXPECT_TRUE(silent_set.count(config));
  }
}

/// KS-style two-sample comparison of the stabilization-time distributions
/// at n = 1000 under the clustered scheduler: last_change_step has the same
/// distribution on every backend (the per-urn count process is an exact
/// lumping of the clustered agent process).
TEST(UrnEquivalenceTest, ClusteredStabilizationDistributionMatchesAtModerateN) {
  const std::uint32_t trials = 60;
  const auto run_backend = [&](sim::EngineKind backend) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.workload = sim::WorkloadSpec::explicit_counts({400, 350, 250});
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = 2;
    spec.bridge = 0.02;
    spec.backend = backend;
    spec.trials = trials;
    spec.seed = 20260728;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.silent, trials);
    std::vector<double> samples;
    for (const auto& trial : result.trials) {
      samples.push_back(
          static_cast<double>(trial.outcome.run.last_change_step));
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  const auto agent = run_backend(sim::EngineKind::kAgentArray);
  const auto dense = run_backend(sim::EngineKind::kDense);
  const auto batched = run_backend(sim::EngineKind::kDenseBatched);

  // Critical value at alpha = 0.001 for two samples of 60:
  // 1.95 * sqrt(2/60) = 0.356. Fixed seeds make the test deterministic; the
  // observed distances are ~0.1.
  EXPECT_LT(util::ks_distance(agent, dense), 0.356);
  EXPECT_LT(util::ks_distance(agent, batched), 0.356);
  EXPECT_LT(util::ks_distance(dense, batched), 0.356);
}

// --- per-urn snapshots ------------------------------------------------------

namespace {

/// Captures the per-urn count matrix at every sample.
class UrnCaptureProbe final : public obs::Probe {
 public:
  void on_sample(const obs::Snapshot& snapshot) override {
    samples += 1;
    last_counts.assign(snapshot.counts.begin(), snapshot.counts.end());
    last_urns.clear();
    for (const auto& urn : snapshot.urns) {
      last_urns.emplace_back(urn.begin(), urn.end());
    }
    if (snapshot.ctx != nullptr) {
      urn_sizes.assign(snapshot.ctx->urn_sizes.begin(),
                       snapshot.ctx->urn_sizes.end());
    }
  }
  int samples = 0;
  CountVector last_counts;
  std::vector<CountVector> last_urns;
  CountVector urn_sizes;
};

}  // namespace

TEST(UrnSnapshotTest, ProbesSeePerUrnCountsNextToTheAggregate) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 3});
  const auto lumping = urn_harness::dumbbell({60, 40}, 0.05);
  for (const DenseMode mode : {DenseMode::kPerStep, DenseMode::kBatched}) {
    DenseEngine engine(*protocol, {}, mode, lumping);
    util::Rng rng(4);
    UrnConfig config = UrnConfig::from_workload(
        *protocol, workload_of({50, 30, 20}), lumping.sizes, rng);

    UrnCaptureProbe probe;
    obs::Recorder recorder({.interaction_horizon = 1u << 20});
    recorder.add(&probe, obs::GridSpec{.points = 32});
    const pp::RunResult result = engine.run(config, 12, &recorder);
    EXPECT_TRUE(result.silent);
    EXPECT_GT(probe.samples, 1);
    EXPECT_EQ(probe.urn_sizes, lumping.sizes);
    ASSERT_EQ(probe.last_urns.size(), 2u);
    // The per-urn matrix matches the final configuration and sums to the
    // aggregate the probe saw in snapshot.counts.
    EXPECT_EQ(probe.last_urns, config.urns);
    CountVector sum(protocol->num_states(), 0);
    for (const auto& urn : probe.last_urns) {
      for (std::size_t s = 0; s < urn.size(); ++s) sum[s] += urn[s];
    }
    EXPECT_EQ(sum, probe.last_counts);
  }

  // Single-urn hosts expose no partition (aggregate only).
  DenseEngine single(*protocol, {}, DenseMode::kPerStep);
  DenseConfig dense =
      DenseConfig::from_workload(*protocol, workload_of({20, 15, 10}));
  UrnCaptureProbe probe;
  obs::Recorder recorder({.interaction_horizon = 1u << 20});
  recorder.add(&probe, obs::GridSpec{.points = 16});
  (void)single.run(dense, 3, &recorder);
  EXPECT_GT(probe.samples, 1);
  EXPECT_TRUE(probe.last_urns.empty());
  EXPECT_TRUE(probe.urn_sizes.empty());
}

// --- backend=auto dispatch --------------------------------------------------

TEST(AutoBackendTest, ResolvesFromSchedulerSizeAndFeatures) {
  const auto resolve = [](auto&& mutate) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 2;
    spec.n = 500;
    spec.backend = sim::EngineKind::kAuto;
    spec.trials = 1;
    spec.seed = 1;
    spec.engine.max_interactions = 50000;
    spec.engine.stop_when_silent = true;
    mutate(spec);
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    // The requested spec is preserved; the resolution is reported apart.
    EXPECT_EQ(result.spec.backend, sim::EngineKind::kAuto);
    return result.backend_resolved;
  };

  // Lumpable + moderate n -> batched: per-step dense is never auto's pick.
  EXPECT_EQ(resolve([](sim::RunSpec&) {}), sim::EngineKind::kDenseBatched);
  // Large n -> batched; clustered is lumpable too.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = 10000; }),
            sim::EngineKind::kDenseBatched);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.n = 10000;
              s.scheduler = pp::SchedulerKind::kClustered;
            }),
            sim::EngineKind::kDenseBatched);
  // Huge n -> fluid (mean-field integration; cost independent of n). The
  // threshold is inclusive, and clustered lumpings ride the same tier.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoFluidMinN; }),
            sim::EngineKind::kFluid);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.n = sim::kAutoFluidMinN;
              s.scheduler = pp::SchedulerKind::kClustered;
            }),
            sim::EngineKind::kFluid);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = sim::kAutoFluidMinN - 1; }),
            sim::EngineKind::kDenseBatched);
  // Tiny n -> agent.
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.n = 16; }),
            sim::EngineKind::kAgentArray);
  // Non-lumpable scheduler -> agent (no error).
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.scheduler = pp::SchedulerKind::kRoundRobin;
            }),
            sim::EngineKind::kAgentArray);
  // Agent-only features -> agent (no error).
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.circles_stats = true; }),
            sim::EngineKind::kAgentArray);
  EXPECT_EQ(resolve([](sim::RunSpec& s) { s.track_used_states = true; }),
            sim::EngineKind::kAgentArray);
  EXPECT_EQ(resolve([](sim::RunSpec& s) {
              s.scheduler_factory = [](std::uint32_t n, std::uint64_t seed) {
                return pp::make_scheduler(pp::SchedulerKind::kUniformRandom,
                                          n, seed);
              };
            }),
            sim::EngineKind::kAgentArray);

  // More states than agents -> the count vector is the bigger object; stay
  // on the agent array.
  const auto big = sim::ProtocolRegistry::global().create("circles",
                                                          {.k = 8});
  ASSERT_GT(big->num_states(), 200u);
  EXPECT_EQ(resolve([&](sim::RunSpec& s) {
              s.params.k = 8;
              s.n = 200;
            }),
            sim::EngineKind::kAgentArray);
}

/// The backend and reason PreparedSpec resolves for circles(k) at n under
/// backend=auto; nothing runs.
std::pair<sim::EngineKind, std::string> auto_pick(
    std::uint32_t k, std::uint64_t n,
    pp::SchedulerKind scheduler = pp::SchedulerKind::kUniformRandom) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = k;
  spec.n = n;
  spec.scheduler = scheduler;
  spec.backend = sim::EngineKind::kAuto;
  const sim::PreparedSpec prepared(spec, sim::ProtocolRegistry::global());
  return {prepared.backend(), prepared.auto_reason()};
}

TEST(AutoBackendTest, ThresholdsAreInclusiveAndNamed) {
  // circles k=2 has 8 states: the size threshold alone decides.
  EXPECT_EQ(auto_pick(2, sim::kAutoDenseMinN - 1),
            std::pair(sim::EngineKind::kAgentArray,
                      std::string("n=63 < 64 -> agent")));
  EXPECT_EQ(auto_pick(2, sim::kAutoDenseMinN),
            std::pair(sim::EngineKind::kDenseBatched,
                      std::string("n=64 >= 64, lumpable, 8 states <= n -> "
                                  "dense_batched")));
  // circles k=5 has 125 states: states = n runs on counts, states = n + 1
  // stays on the agent array.
  EXPECT_EQ(auto_pick(5, 125),
            std::pair(sim::EngineKind::kDenseBatched,
                      std::string("n=125 >= 64, lumpable, 125 states <= n "
                                  "-> dense_batched")));
  EXPECT_EQ(auto_pick(5, 124),
            std::pair(sim::EngineKind::kAgentArray,
                      std::string("125 states > n=124 -> agent")));
  EXPECT_EQ(auto_pick(3, sim::kAutoFluidMinN),
            std::pair(sim::EngineKind::kFluid,
                      std::string("n=100000000 >= 100000000, lumpable -> "
                                  "fluid")));
  EXPECT_EQ(auto_pick(3, 500, pp::SchedulerKind::kRoundRobin).second,
            "scheduler " + pp::to_string(pp::SchedulerKind::kRoundRobin) +
                " not lumpable -> agent");
}

TEST(AutoBackendTest, NeverResolvesToPerStepDense) {
  for (const auto scheduler :
       {pp::SchedulerKind::kUniformRandom, pp::SchedulerKind::kClustered}) {
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      for (std::uint64_t n = 2; n <= 10'000'000; n = n * 3 / 2 + 1) {
        // Two clusters need two agents each.
        if (scheduler == pp::SchedulerKind::kClustered && n < 4) continue;
        const auto [backend, reason] = auto_pick(k, n, scheduler);
        EXPECT_NE(backend, sim::EngineKind::kDense)
            << "k=" << k << " n=" << n << ": " << reason;
        EXPECT_NE(reason.find("-> " + sim::to_string(backend)),
                  std::string::npos)
            << reason;
      }
    }
  }
}

TEST(AutoBackendTest, ExplicitBackendsReportThemselves) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 40;
  spec.trials = 1;
  spec.backend = sim::EngineKind::kDense;
  const sim::SpecResult result = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(result.backend_resolved, sim::EngineKind::kDense);
  // Only auto specs carry a dispatch reason, in the result and manifest.
  EXPECT_EQ(result.auto_reason, "");
  EXPECT_EQ(result.manifest.to_json().find("auto_reason"), std::string::npos);

  spec.backend = sim::EngineKind::kAuto;
  const sim::SpecResult resolved = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(resolved.auto_reason, "n=40 < 64 -> agent");
  EXPECT_EQ(resolved.manifest.auto_reason, resolved.auto_reason);
  EXPECT_NE(resolved.manifest.to_json().find(
                "\"auto_reason\":\"n=40 < 64 -> agent\""),
            std::string::npos);
}

// --- cross-backend equivalence --------------------------------------------

/// Agent-array reference: run pp::Engine under the uniform scheduler and
/// return the final configuration as counts.
CountVector agent_final_counts(const pp::Protocol& protocol,
                               const analysis::Workload& workload,
                               std::uint64_t seed) {
  sim::TrialOptions options;
  options.seed = seed;
  std::unique_ptr<pp::Population> population;
  sim::run_trial_keep_population(protocol, workload, options, {}, {},
                                 &population);
  return DenseConfig::from_population(protocol, *population).counts;
}

CountVector dense_final_counts(const pp::Protocol& protocol,
                               const analysis::Workload& workload,
                               DenseMode mode, std::uint64_t seed) {
  DenseEngine engine(protocol, {}, mode);
  DenseConfig config = DenseConfig::from_workload(protocol, workload);
  const pp::RunResult result = engine.run(config, seed);
  EXPECT_TRUE(result.silent);
  return config.counts;
}

/// Exhaustive tiny-population check: for every workload with n <= 6 agents
/// over k <= 3 colors, both dense modes and the agent array land only in
/// configurations the BFS proves reachable-and-silent; and whenever that
/// set is a singleton (the generic circles case — Lemma 3.6 makes the
/// stable configuration schedule-independent), all backends land exactly
/// there.
TEST(DenseEquivalenceTest, ExhaustiveTinyPopulationsAgainstBfsAndAgentArray) {
  for (const std::uint32_t k : {2u, 3u}) {
    const auto protocol =
        sim::ProtocolRegistry::global().create("circles", {.k = k});
    std::vector<CountVector> workloads;
    // All count vectors over k colors with 2 <= n <= 6.
    const std::uint64_t max_n = 6;
    std::vector<std::uint64_t> counts(k, 0);
    const auto enumerate = [&](auto&& self, std::uint32_t color,
                               std::uint64_t remaining) -> void {
      if (color + 1 == k) {
        counts[color] = remaining;
        std::uint64_t total = 0;
        for (const auto c : counts) total += c;
        if (total >= 2) workloads.push_back(counts);
        return;
      }
      for (std::uint64_t c = 0; c <= remaining; ++c) {
        counts[color] = c;
        self(self, color + 1, remaining - c);
      }
    };
    for (std::uint64_t n = 2; n <= max_n; ++n) enumerate(enumerate, 0, n);

    for (const CountVector& w : workloads) {
      const analysis::Workload workload = workload_of(w);
      const DenseConfig initial =
          DenseConfig::from_workload(*protocol, workload);
      const auto silent_set =
          reachable_silent_configs(*protocol, initial.counts);
      ASSERT_FALSE(silent_set.empty());

      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto agent = agent_final_counts(*protocol, workload, seed);
        const auto per_step = dense_final_counts(*protocol, workload,
                                                 DenseMode::kPerStep, seed);
        const auto batched = dense_final_counts(*protocol, workload,
                                                DenseMode::kBatched, seed);
        EXPECT_TRUE(silent_set.count(agent))
            << "agent escaped the reachable-silent set, workload "
            << workload.to_string();
        EXPECT_TRUE(silent_set.count(per_step))
            << "dense escaped the reachable-silent set, workload "
            << workload.to_string();
        EXPECT_TRUE(silent_set.count(batched))
            << "dense_batched escaped the reachable-silent set, workload "
            << workload.to_string();
        if (silent_set.size() == 1) {
          EXPECT_EQ(agent, per_step);
          EXPECT_EQ(agent, batched);
        }
      }
    }
  }
}

/// Where several silent configurations are reachable (ties), all backends
/// must cover the same outcome set given enough seeds.
TEST(DenseEquivalenceTest, TiedWorkloadOutcomeSetsMatchAcrossBackends) {
  const auto protocol = sim::ProtocolRegistry::global().create("circles",
                                                               {.k = 2});
  const analysis::Workload workload = workload_of({2, 2});
  const DenseConfig initial = DenseConfig::from_workload(*protocol, workload);
  const auto silent_set = reachable_silent_configs(*protocol, initial.counts);
  ASSERT_GT(silent_set.size(), 1u);

  std::set<CountVector> agent_set, per_step_set, batched_set;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    agent_set.insert(agent_final_counts(*protocol, workload, seed));
    per_step_set.insert(
        dense_final_counts(*protocol, workload, DenseMode::kPerStep, seed));
    batched_set.insert(
        dense_final_counts(*protocol, workload, DenseMode::kBatched, seed));
  }
  EXPECT_EQ(agent_set, per_step_set);
  EXPECT_EQ(agent_set, batched_set);
  for (const auto& config : agent_set) {
    EXPECT_TRUE(silent_set.count(config));
  }
}

/// KS-style two-sample comparison of the stabilization-time distributions
/// at n = 1000: last_change_step has the same distribution on every backend
/// (the count process is an exact lumping of the agent process).
TEST(DenseEquivalenceTest, StabilizationTimeDistributionMatchesAtModerateN) {
  const std::uint32_t trials = 60;
  const auto run_backend = [&](sim::EngineKind backend) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.workload = sim::WorkloadSpec::explicit_counts({400, 350, 250});
    spec.backend = backend;
    spec.trials = trials;
    spec.seed = 20260728;  // same workload; schedule streams differ per seed
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.silent, trials);
    std::vector<double> samples;
    for (const auto& trial : result.trials) {
      samples.push_back(
          static_cast<double>(trial.outcome.run.last_change_step));
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  const auto agent = run_backend(sim::EngineKind::kAgentArray);
  const auto dense = run_backend(sim::EngineKind::kDense);
  const auto batched = run_backend(sim::EngineKind::kDenseBatched);

  // Critical value at alpha = 0.001 for two samples of 60:
  // 1.95 * sqrt(2/60) = 0.356. Fixed seeds make the test deterministic; the
  // observed distances are ~0.1.
  EXPECT_LT(util::ks_distance(agent, dense), 0.356);
  EXPECT_LT(util::ks_distance(agent, batched), 0.356);
  EXPECT_LT(util::ks_distance(dense, batched), 0.356);
}

// --- RunSpec/BatchRunner integration --------------------------------------

TEST(DenseBackendSpecTest, RejectsAgentLevelFeatures) {
  const sim::BatchRunner runner;
  sim::RunSpec base;
  base.protocol = "circles";
  base.params.k = 2;
  base.n = 10;
  base.backend = sim::EngineKind::kDense;

  auto with = [&](auto&& mutate) {
    sim::RunSpec spec = base;
    mutate(spec);
    return spec;
  };
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.circles_stats = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.track_used_states = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.reboot_faults = 1;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.chemical_time = true;
               })),
               std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.scheduler = pp::SchedulerKind::kRoundRobin;
               })),
               std::invalid_argument);
  EXPECT_THROW(
      runner.run_one(with([](sim::RunSpec& s) {
        s.grader = [](const pp::Protocol&, const analysis::Workload&,
                      std::span<const pp::ColorId>, const pp::Population&,
                      const pp::RunResult&) { return true; };
      })),
      std::invalid_argument);
  EXPECT_THROW(runner.run_one(with([](sim::RunSpec& s) {
                 s.scheduler_factory = [](std::uint32_t n,
                                          std::uint64_t seed) {
                   return pp::make_scheduler(
                       pp::SchedulerKind::kUniformRandom, n, seed);
                 };
               })),
               std::invalid_argument);

  // The plain dense spec itself is fine.
  const sim::SpecResult ok = runner.run_one(base);
  EXPECT_EQ(ok.trial_count, 1u);
  EXPECT_EQ(ok.silent, 1u);
}

TEST(DenseBackendSpecTest, NonLumpableRejectionNamesSchedulerAndAuto) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.backend = sim::EngineKind::kDense;
  spec.scheduler = pp::SchedulerKind::kRoundRobin;
  try {
    (void)sim::BatchRunner().run_one(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("round_robin"), std::string::npos) << message;
    EXPECT_NE(message.find("backend=auto"), std::string::npos) << message;
    EXPECT_NE(message.find("lumping"), std::string::npos) << message;
  }
}

TEST(DenseBackendSpecTest, ClusterShapeRequiresClusteredScheduler) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 2;
  spec.n = 10;
  spec.clusters = 3;
  EXPECT_THROW((void)sim::BatchRunner().run_one(spec), std::invalid_argument);
  spec.clusters = 0;
  spec.cluster_sizes = {5, 5};
  EXPECT_THROW((void)sim::BatchRunner().run_one(spec), std::invalid_argument);
}

TEST(DenseBackendSpecTest, BatchRunnerGradesClusteredDenseTrials) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.workload = sim::WorkloadSpec::explicit_counts({30, 20, 10});
  spec.scheduler = pp::SchedulerKind::kClustered;
  spec.cluster_sizes = {40, 12, 8};
  spec.bridge = 0.1;
  spec.trials = 10;
  spec.seed = 321;
  for (const auto backend :
       {sim::EngineKind::kDense, sim::EngineKind::kDenseBatched}) {
    spec.backend = backend;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.correct, 10u) << sim::to_string(backend);
    EXPECT_EQ(result.silent, 10u);
    EXPECT_TRUE(result.all_correct());
  }
}

TEST(DenseBackendSpecTest, BatchRunnerGradesDenseTrialsLikeAgentTrials) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.workload = sim::WorkloadSpec::explicit_counts({8, 5, 3});
  spec.trials = 10;
  spec.seed = 99;
  for (const auto backend :
       {sim::EngineKind::kDense, sim::EngineKind::kDenseBatched}) {
    spec.backend = backend;
    const sim::SpecResult result = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(result.correct, 10u) << sim::to_string(backend);
    EXPECT_EQ(result.silent, 10u);
    EXPECT_TRUE(result.all_correct());
  }
}

TEST(DenseBackendSpecTest, TieAwareGradingWorksOnDenseBackend) {
  sim::RunSpec spec;
  spec.protocol = "tie_report";
  spec.params.k = 2;
  spec.workload = sim::WorkloadSpec::explicit_counts({6, 6});
  spec.grading = sim::Grading::kTieAware;
  spec.backend = sim::EngineKind::kDenseBatched;
  spec.trials = 8;
  spec.seed = 5;
  const sim::SpecResult result = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(result.correct, 8u);
}

}  // namespace
}  // namespace circles::dense
