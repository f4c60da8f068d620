#include "fluid/fluid_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/dense_config.hpp"
#include "dense/urn_config.hpp"
#include "kernel/compiled_protocol.hpp"
#include "obs/probes.hpp"
#include "obs/recorder.hpp"
#include "pp/schedulers/clustered.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace circles::fluid {
namespace {

using CountVector = std::vector<std::uint64_t>;

analysis::Workload workload_of(CountVector counts) {
  analysis::Workload w;
  w.counts = std::move(counts);
  return w;
}

/// A kernel lowered with its dense table (and so its CSR adjacency) turned
/// off: transitions come from the hashed sparse cache instead.
std::shared_ptr<const kernel::CompiledProtocol> forced_sparse(
    const pp::Protocol& protocol) {
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  return std::make_shared<const kernel::CompiledProtocol>(protocol, options);
}

std::unique_ptr<pp::Protocol> make(const std::string& name, std::uint32_t k) {
  sim::ProtocolParams params;
  params.k = k;
  return sim::ProtocolRegistry::global().create(name, params);
}

// ---------------------------------------------------------------------------
// DriftTable

TEST(DriftTableTest, ClosureCoversExactlyTheInputReachableStates) {
  // approx_majority_3state: inputs X, Y; blank B appears only through
  // transitions — all 3 states are input-reachable.
  const auto protocol = make("approx_majority_3state", 2);
  const DriftTable table(kernel::CompiledProtocol(*protocol), 1 << 20);
  EXPECT_EQ(table.num_species(), protocol->num_states());
  // Species ascending, index_of is the inverse map.
  for (std::size_t i = 0; i < table.num_species(); ++i) {
    if (i > 0) EXPECT_LT(table.species()[i - 1], table.species()[i]);
    EXPECT_EQ(table.index_of(table.species()[i]),
              static_cast<std::int32_t>(i));
  }
}

TEST(DriftTableTest, TermsAreExactlyTheNonNullPairsOfTheClosure) {
  const auto protocol = make("circles", 3);
  const DriftTable table(kernel::CompiledProtocol(*protocol), 1 << 24);
  // Every term must reproduce the protocol's transition, and every non-null
  // ordered pair of closure states must appear exactly once.
  std::size_t non_null = 0;
  for (std::size_t i = 0; i < table.num_species(); ++i) {
    for (std::size_t j = 0; j < table.num_species(); ++j) {
      const pp::StateId a = table.species()[i];
      const pp::StateId b = table.species()[j];
      const pp::Transition out = protocol->transition(a, b);
      if (out.initiator != a || out.responder != b) ++non_null;
    }
  }
  EXPECT_EQ(table.terms().size(), non_null);
  for (const DriftTerm& term : table.terms()) {
    const pp::StateId a = table.species()[term.a];
    const pp::StateId b = table.species()[term.b];
    const pp::Transition out = protocol->transition(a, b);
    EXPECT_TRUE(out.initiator != a || out.responder != b);
    EXPECT_EQ(table.species()[term.a2], out.initiator);
    EXPECT_EQ(table.species()[term.b2], out.responder);
  }
  // Sorted by (a, b) — the canonical summation order.
  for (std::size_t i = 1; i < table.terms().size(); ++i) {
    const DriftTerm& p = table.terms()[i - 1];
    const DriftTerm& q = table.terms()[i];
    EXPECT_TRUE(p.a < q.a || (p.a == q.a && p.b < q.b));
  }
  // Row offsets delimit exactly the terms of each initiator.
  const auto rows = table.row_offsets();
  ASSERT_EQ(rows.size(), table.num_species() + 1);
  EXPECT_EQ(rows.front(), 0u);
  EXPECT_EQ(rows.back(), table.terms().size());
  for (std::size_t a = 0; a < table.num_species(); ++a) {
    ASSERT_LE(rows[a], rows[a + 1]);
    for (std::uint32_t t = rows[a]; t < rows[a + 1]; ++t) {
      EXPECT_EQ(table.terms()[t].a, a);
    }
  }
}

TEST(DriftTableTest, DenseAndSparseKernelBuildsProduceIdenticalTables) {
  // The dense kernel's build walks its CSR adjacency; the forced-sparse one
  // enumerates every closure pair through the hashed cache.
  const auto protocol = make("circles", 4);
  const kernel::CompiledProtocol dense(*protocol);
  ASSERT_TRUE(dense.has_adjacency());
  const auto sparse_kernel = forced_sparse(*protocol);
  ASSERT_FALSE(sparse_kernel->has_adjacency());
  const DriftTable table(dense, 1 << 24);
  const DriftTable sparse(*sparse_kernel, 1 << 24);
  ASSERT_EQ(table.num_species(), sparse.num_species());
  EXPECT_TRUE(std::equal(table.species().begin(), table.species().end(),
                         sparse.species().begin()));
  ASSERT_EQ(table.terms().size(), sparse.terms().size());
  EXPECT_TRUE(std::equal(table.terms().begin(), table.terms().end(),
                         sparse.terms().begin()));
  EXPECT_TRUE(std::equal(table.row_offsets().begin(),
                         table.row_offsets().end(),
                         sparse.row_offsets().begin(),
                         sparse.row_offsets().end()));
}

TEST(DriftTableTest, PairBudgetThrowsWithActionableMessage) {
  const auto protocol = make("circles", 5);
  try {
    const DriftTable table(kernel::CompiledProtocol(*protocol),
                           /*max_pair_lookups=*/10);
    FAIL() << "expected the pair budget to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pair-enumeration budget"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dense backend"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Drift vs the exact one-step expectation

// Brute-force E[d fractions / dt] of the mean-field model, one (u, v) block
// at a time: ordered pairs sampled with replacement, initiator from urn u and
// responder from urn v with probability rate(u, v) * x^u_a * x^v_b, and urn
// u's count deltas scaled by n / n_u. `x` is row-major num_urns x species.
std::vector<double> brute_force_drift(const pp::Protocol& protocol,
                                      const DriftTable& table,
                                      const pp::UrnLumping& lumping,
                                      const std::vector<double>& x) {
  const std::size_t m = table.num_species();
  const std::size_t urns = lumping.num_urns();
  std::vector<double> drift(x.size(), 0.0);
  for (std::size_t u = 0; u < urns; ++u) {
    for (std::size_t v = 0; v < urns; ++v) {
      const double r = lumping.rate(u, v);
      if (r <= 0.0) continue;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          const pp::StateId a = table.species()[i];
          const pp::StateId b = table.species()[j];
          const pp::Transition out = protocol.transition(a, b);
          if (out.initiator == a && out.responder == b) continue;
          const double w = r * x[u * m + i] * x[v * m + j];
          drift[u * m + i] -= w;
          drift[v * m + j] -= w;
          drift[u * m + static_cast<std::size_t>(
                             table.index_of(out.initiator))] += w;
          drift[v * m + static_cast<std::size_t>(
                             table.index_of(out.responder))] += w;
        }
      }
    }
  }
  const double n = static_cast<double>(lumping.n());
  for (std::size_t u = 0; u < urns; ++u) {
    const double scale = n / static_cast<double>(lumping.sizes[u]);
    for (std::size_t i = 0; i < m; ++i) drift[u * m + i] *= scale;
  }
  return drift;
}

TEST(FluidDriftTest, MatchesBruteForceMeanFieldExpectation) {
  const std::pair<const char*, std::uint32_t> cases[] = {
      {"approx_majority_3state", 2}, {"circles", 3}};
  for (const auto& [name, k] : cases) {
    const auto protocol = make(name, k);
    const FluidEngine engine(*protocol);
    const std::size_t m = engine.drift().num_species();
    // A generic interior point (normalized pseudo-random fractions).
    std::vector<double> x(m);
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      x[i] = 1.0 + std::fmod(0.61803398875 * static_cast<double>(i + 1), 1.0);
      sum += x[i];
    }
    for (double& v : x) v /= sum;
    std::vector<double> dxdt(m);
    engine.eval_drift(x, dxdt);
    const std::vector<double> expected = brute_force_drift(
        *protocol, engine.drift(), pp::UrnLumping::uniform(1), x);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_NEAR(dxdt[i], expected[i], 1e-12) << name << " species " << i;
    }
    // Fraction mass is conserved by every term.
    double total = 0.0;
    for (const double v : dxdt) total += v;
    EXPECT_NEAR(total, 0.0, 1e-12);
  }
}

TEST(FluidDriftTest, MultiUrnBlocksMatchBruteForceAtDeadAndNegativeEntries) {
  // With more than one urn the initiator and responder deltas land in
  // different rows of dxdt (u != v) or the same row (u == v), and each urn
  // rescales by n / n_u. Besides a generic interior point, check one where
  // whole initiator rows are exactly zero (the evaluation skips them) and a
  // few entries are slightly negative: Runge-Kutta stage vectors are not
  // clamped, so a negative fraction must still contribute its terms.
  pp::ClusteredOptions clustered;
  clustered.sizes = {500, 300, 200};
  clustered.bridge_probability = 0.1;
  pp::UrnLumping with_gap = pp::clustered_lumping(1000, clustered);
  // One ordered cross block never scheduled; its mass moves onto urn 0.
  with_gap.rates[0 * 3 + 0] += with_gap.rates[0 * 3 + 2];
  with_gap.rates[0 * 3 + 2] = 0.0;
  const pp::UrnLumping lumpings[] = {pp::clustered_lumping(1000, clustered),
                                     with_gap};
  const std::pair<const char*, std::uint32_t> cases[] = {
      {"approx_majority_3state", 2}, {"circles", 3}};
  for (const auto& [name, k] : cases) {
    for (const pp::UrnLumping& lumping : lumpings) {
      const auto protocol = make(name, k);
      const FluidEngine engine(*protocol, {}, {}, lumping);
      const std::size_t m = engine.drift().num_species();
      const std::size_t dim = lumping.num_urns() * m;
      std::vector<double> interior(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        interior[i] =
            (1.0 + std::fmod(0.61803398875 * static_cast<double>(i + 1), 1.0)) /
            static_cast<double>(m);
      }
      std::vector<double> sparse = interior;
      for (std::size_t i = 0; i < dim; ++i) {
        if (i % 3 == 0) sparse[i] = 0.0;
        if (i % 7 == 1) sparse[i] = -1e-7 * static_cast<double>(i % 5 + 1);
      }
      // The species 0 and the last species are dead in every urn.
      for (std::size_t u = 0; u < lumping.num_urns(); ++u) {
        sparse[u * m] = 0.0;
        sparse[u * m + m - 1] = 0.0;
      }
      for (const std::vector<double>& x : {interior, sparse}) {
        std::vector<double> dxdt(dim);
        engine.eval_drift(x, dxdt);
        const std::vector<double> expected =
            brute_force_drift(*protocol, engine.drift(), lumping, x);
        for (std::size_t i = 0; i < dim; ++i) {
          EXPECT_NEAR(dxdt[i], expected[i], 1e-12)
              << name << " urn " << i / m << " species " << i % m;
        }
        // Every term moves one agent within the initiator's urn and one
        // within the responder's, so each urn's mass is conserved.
        for (std::size_t u = 0; u < lumping.num_urns(); ++u) {
          double total = 0.0;
          for (std::size_t i = 0; i < m; ++i) total += dxdt[u * m + i];
          EXPECT_NEAR(total, 0.0, 1e-12) << name << " urn " << u;
        }
      }
    }
  }
}

TEST(FluidDriftTest, FiniteNExpectationConvergesToDriftAsOneOverN) {
  // The discrete chain draws ordered pairs WITHOUT replacement:
  // P(a, b) = c_a (c_b - [a==b]) / (n (n-1)). The mean-field drift replaces
  // that with x_a x_b; the gap must shrink like 1/n.
  const auto protocol = make("approx_majority_3state", 2);
  const FluidEngine engine(*protocol);
  const DriftTable& table = engine.drift();
  const std::size_t m = table.num_species();
  const auto gap_at = [&](std::uint64_t n) {
    std::vector<std::uint64_t> c(m, 0);
    c[0] = n / 2;
    c[1] = n - n / 2;
    std::vector<double> x(m);
    for (std::size_t i = 0; i < m; ++i) {
      x[i] = static_cast<double>(c[i]) / static_cast<double>(n);
    }
    std::vector<double> dxdt(m);
    engine.eval_drift(x, dxdt);
    // Exact E[Δc per interaction] of the discrete chain = d fractions / dt.
    std::vector<double> exact(m, 0.0);
    const double nn = static_cast<double>(n);
    for (const DriftTerm& term : table.terms()) {
      const double pairs =
          static_cast<double>(c[term.a]) *
          (static_cast<double>(c[term.b]) - (term.a == term.b ? 1.0 : 0.0));
      const double w = pairs / (nn * (nn - 1.0));
      exact[term.a] -= w;
      exact[term.b] -= w;
      exact[term.a2] += w;
      exact[term.b2] += w;
    }
    double gap = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      gap = std::max(gap, std::fabs(dxdt[i] - exact[i]));
    }
    return gap;
  };
  const double gap_1k = gap_at(1000);
  const double gap_100k = gap_at(100000);
  EXPECT_LT(gap_1k, 1e-2);
  // O(1/n): two decades of n buy ~two decades of accuracy.
  EXPECT_LT(gap_100k, gap_1k / 50.0);
}

// ---------------------------------------------------------------------------
// ODE end-to-end

TEST(FluidEngineTest, CirclesMillionAgentsReachesSilentConsensus) {
  const auto protocol = make("circles", 3);
  const FluidEngine engine(*protocol);
  const analysis::Workload workload =
      workload_of({600000, 250000, 150000});
  util::Rng rng(1);
  dense::DenseConfig config =
      dense::DenseConfig::from_workload(*protocol, workload);
  const pp::RunResult run = engine.run(config, /*seed=*/1);
  EXPECT_TRUE(run.silent);
  EXPECT_FALSE(run.budget_exhausted);
  EXPECT_TRUE(run.consensus_on(0));
  EXPECT_GT(run.interactions, 0u);
  EXPECT_GE(run.interactions, run.state_changes);
  // The final counts sum to n.
  std::uint64_t total = 0;
  for (const std::uint64_t c : config.counts) total += c;
  EXPECT_EQ(total, workload.n());
}

TEST(FluidEngineTest, TrajectoryIsBitwiseDeterministicAcrossBuildPaths) {
  const auto protocol = make("circles", 3);
  // The protocol constructor compiles a dense-table kernel; the other engine
  // builds its drift table through a forced-sparse one.
  const FluidEngine dense_table(*protocol);
  const FluidEngine sparse(forced_sparse(*protocol));
  const analysis::Workload workload = workload_of({500000, 300000, 200000});
  dense::DenseConfig a = dense::DenseConfig::from_workload(*protocol, workload);
  dense::DenseConfig b = dense::DenseConfig::from_workload(*protocol, workload);
  // Different seeds on purpose: the ODE trajectory must not consume them.
  const pp::RunResult ra = dense_table.run(a, /*seed=*/1);
  const pp::RunResult rb = sparse.run(b, /*seed=*/99);
  EXPECT_EQ(ra.interactions, rb.interactions);
  EXPECT_EQ(ra.state_changes, rb.state_changes);
  EXPECT_EQ(ra.silent, rb.silent);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(FluidEngineTest, ShortHorizonReportsBudgetExhaustion) {
  // A horizon far below the convergence time must end active, with
  // budget_exhausted set and interactions clamped to the budget — mirroring
  // a discrete engine that ran out of budget.
  const auto protocol = make("circles", 3);
  pp::EngineOptions options;
  options.max_interactions = 100'000;  // horizon = 0.1 chemical time at n=1e6
  const FluidEngine engine(*protocol, options);
  const analysis::Workload workload = workload_of({600000, 250000, 150000});
  dense::DenseConfig config =
      dense::DenseConfig::from_workload(*protocol, workload);
  const pp::RunResult run = engine.run(config, 1);
  EXPECT_FALSE(run.silent);
  EXPECT_TRUE(run.budget_exhausted);
  EXPECT_EQ(run.interactions, options.max_interactions);
}

TEST(FluidEngineTest, RejectsMassOutsideTheInputClosure) {
  // circles(k=3) has k^3 states but only the input-reachable slice is in the
  // drift table; planting mass on an unreachable state must be refused.
  const auto protocol = make("circles", 3);
  const FluidEngine engine(*protocol);
  ASSERT_LT(engine.drift().num_species(), protocol->num_states());
  pp::StateId outside = 0;
  while (engine.drift().index_of(outside) >= 0) ++outside;
  dense::DenseConfig config;
  config.counts.assign(protocol->num_states(), 0);
  config.counts[engine.drift().species()[0]] = 10;
  config.counts[outside] = 10;
  EXPECT_THROW((void)engine.run(config, 1), std::invalid_argument);
}

TEST(FluidEngineTest, ClusteredLumpingIntegratesPerUrn) {
  const auto protocol = make("circles", 3);
  const analysis::Workload workload = workload_of({60000, 25000, 15000});
  pp::ClusteredOptions clustered;
  clustered.num_clusters = 2;
  clustered.bridge_probability = 0.01;
  pp::UrnLumping lumping = pp::clustered_lumping(workload.n(), clustered);
  const FluidEngine engine(*protocol, {}, {}, lumping);
  util::Rng rng(3);
  dense::UrnConfig config = dense::UrnConfig::from_workload(
      *protocol, workload, lumping.sizes, rng);
  const pp::RunResult run = engine.run(config, 1);
  EXPECT_TRUE(run.silent);
  EXPECT_TRUE(run.consensus_on(0));
  for (std::size_t u = 0; u < config.num_urns(); ++u) {
    EXPECT_EQ(config.urn_n(u), lumping.sizes[u]) << "urn " << u;
  }
}

TEST(FluidEngineTest, EnergyTraceDescendsOnTheContinuousTrajectory) {
  const auto protocol = make("circles", 3);
  const auto* circles =
      dynamic_cast<const core::CirclesProtocol*>(protocol.get());
  ASSERT_NE(circles, nullptr);
  obs::EnergyTrace energy = obs::EnergyTrace::for_circles(*circles);
  obs::RecorderOptions recorder_options;
  pp::EngineOptions engine_options;
  recorder_options.interaction_horizon = engine_options.max_interactions;
  obs::Recorder recorder(recorder_options);
  obs::GridSpec grid;
  grid.points = 64;
  recorder.add(&energy, grid);

  const FluidEngine engine(*protocol, engine_options);
  const analysis::Workload workload = workload_of({500000, 300000, 200000});
  dense::DenseConfig config =
      dense::DenseConfig::from_workload(*protocol, workload);
  const pp::RunResult run = engine.run(config, 1, &recorder);
  EXPECT_TRUE(run.silent);

  const obs::TraceTable* table = energy.table();
  ASSERT_NE(table, nullptr);
  ASSERT_GT(table->num_rows(), 2u);
  const std::size_t energy_col = table->column_index("total_energy");
  const std::size_t time_col = table->column_index("chemical_time");
  // Monotone descent of the paper's potential along the mean-field
  // trajectory (allow count-rounding jitter of a few units), and a real
  // chemical clock.
  for (std::size_t row = 1; row < table->num_rows(); ++row) {
    EXPECT_LE(table->at(row, energy_col),
              table->at(row - 1, energy_col) + 4.0)
        << "row " << row;
    EXPECT_GE(table->at(row, time_col), table->at(row - 1, time_col));
  }
  EXPECT_LT(table->at(table->num_rows() - 1, energy_col),
            table->at(0, energy_col));
  EXPECT_GT(table->at(table->num_rows() - 1, time_col), 0.0);
}

// ---------------------------------------------------------------------------
// sim-layer integration

TEST(FluidSimTest, FluidTrialGradesLikeTheDenseBatchedTrial) {
  // The same trial seed on both backends starts from the same
  // configuration (same workload, same urn split); the clustered case
  // checks that the prepared engines carry the spec's urn structure.
  for (const pp::SchedulerKind scheduler :
       {pp::SchedulerKind::kUniformRandom, pp::SchedulerKind::kClustered}) {
    SCOPED_TRACE(pp::to_string(scheduler));
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.workload = sim::WorkloadSpec::explicit_counts({50000, 30000, 20000});
    spec.scheduler = scheduler;
    spec.bridge = 0.1;
    spec.backend = sim::EngineKind::kFluid;
    const sim::TrialRecord fluid = sim::BatchRunner::execute_trial(spec, 11);
    spec.backend = sim::EngineKind::kDenseBatched;
    const sim::TrialRecord dense = sim::BatchRunner::execute_trial(spec, 11);
    EXPECT_TRUE(fluid.outcome.correct);
    EXPECT_TRUE(dense.outcome.correct);
    EXPECT_EQ(fluid.outcome.consensus, dense.outcome.consensus);
  }
}

TEST(FluidSimTest, BatchRunnerRunsBackendFluidSpecs) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 1'000'000;
  // Well-separated color counts: mean-field convergence is fluctuation-free,
  // so a sub-race between two near-tied losers (which the discrete chain
  // resolves by noise) would be exponentially slow in the ODE. dominant()
  // splits the losers evenly — exactly that trap.
  spec.workload =
      sim::WorkloadSpec::explicit_counts({250000, 600000, 150000});
  spec.backend = sim::EngineKind::kFluid;
  spec.trials = 3;
  spec.seed = 5;
  const sim::BatchRunner runner;
  const sim::SpecResult result = runner.run_one(spec);
  EXPECT_EQ(result.backend_resolved, sim::EngineKind::kFluid);
  EXPECT_EQ(result.correct, 3u);
  EXPECT_EQ(result.silent, 3u);
}

TEST(FluidSimTest, FluidSpecsRecordProbeEnvelopes) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 200000;
  spec.workload =
      sim::WorkloadSpec::explicit_counts({100000, 60000, 40000});
  spec.backend = sim::EngineKind::kFluid;
  spec.trials = 2;
  spec.seed = 5;
  spec.probes.push_back(obs::ProbeSpec::parse("energy@log:64"));
  const sim::BatchRunner runner;
  const sim::SpecResult result = runner.run_one(spec);
  ASSERT_EQ(result.trace_envelopes.size(), 1u);
  const obs::TraceTable& envelope = result.trace_envelopes[0];
  EXPECT_GT(envelope.num_rows(), 0u);
  const std::size_t col = envelope.column_index("total_energy_p50");
  EXPECT_LT(envelope.at(envelope.num_rows() - 1, col), envelope.at(0, col));
}

TEST(FluidSimTest, RtolAtolFlowThroughTheSpec) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 100000;
  spec.workload = sim::WorkloadSpec::explicit_counts({50000, 30000, 20000});
  spec.backend = sim::EngineKind::kFluid;
  spec.rtol = 1e-3;
  spec.atol = 1e-6;
  spec.trials = 1;
  spec.seed = 9;
  const sim::BatchRunner runner;
  const sim::SpecResult result = runner.run_one(spec);
  EXPECT_EQ(result.correct, 1u);
}

TEST(FluidSimTest, ValidationRejectsAgentOnlyFeaturesWithClearMessages) {
  const sim::BatchRunner runner;
  const auto expect_reject = [&](sim::RunSpec spec, const char* needle) {
    try {
      (void)runner.run_one(spec);
      FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  sim::RunSpec base;
  base.protocol = "circles";
  base.params.k = 3;
  base.n = 10000;
  base.backend = sim::EngineKind::kFluid;

  sim::RunSpec scheduler = base;
  scheduler.scheduler = pp::SchedulerKind::kRoundRobin;
  expect_reject(scheduler, "no exact count-level lumping");

  sim::RunSpec faults = base;
  faults.reboot_faults = 2;
  expect_reject(faults, "addresses individual agents");

  sim::RunSpec chemical = base;
  chemical.chemical_time = true;
  expect_reject(chemical, "fluid trajectory already advances");

  sim::RunSpec tolerances;
  tolerances.protocol = "circles";
  tolerances.params.k = 3;
  tolerances.n = 10000;
  tolerances.backend = sim::EngineKind::kDenseBatched;
  tolerances.rtol = 1e-4;
  expect_reject(tolerances, "fluid-integrator tolerances");

  sim::RunSpec negative = base;
  negative.rtol = -1.0;
  expect_reject(negative, "negative fluid-integrator tolerance");
}

}  // namespace
}  // namespace circles::fluid
