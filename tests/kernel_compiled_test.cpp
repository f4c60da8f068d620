// Registry-wide equivalence suite for kernel::CompiledProtocol: every
// registered protocol's compiled kernel must agree with the virtual
// transition()/output() on all pairs (exhaustively for small state spaces,
// by seeded sample for cubic ones), under both table kinds; and the engines
// must produce bitwise-identical RunResults over dense-table and
// forced-sparse kernels.
#include "kernel/compiled_protocol.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "pp/silence.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace circles {
namespace {

struct RegistryCase {
  std::string name;
  std::uint32_t k;
};

/// One representative parameterization per registered protocol, plus a
/// cubic circles instance that exceeds the default dense budget.
std::vector<RegistryCase> registry_cases() {
  return {
      {"circles", 1},
      {"circles", 3},
      {"circles", 32},  // 32768 states -> sparse under the default budget
      {"tie_report", 3},
      {"tie_aware_pairwise", 3},
      {"unordered_circles", 2},
      {"ordering", 4},
      {"pairwise_plurality", 3},
      {"exact_majority_4state", 2},
      {"approx_majority_3state", 2},
  };
}

/// Exhaustive when num_states^2 fits, else a seeded sample. Pairs are drawn
/// uniformly plus a band around the input states (the reachable region).
std::vector<std::pair<pp::StateId, pp::StateId>> pair_sample(
    const pp::Protocol& protocol, std::uint64_t budget) {
  const std::uint64_t ns = protocol.num_states();
  std::vector<std::pair<pp::StateId, pp::StateId>> pairs;
  if (ns * ns <= budget) {
    for (std::uint64_t a = 0; a < ns; ++a) {
      for (std::uint64_t b = 0; b < ns; ++b) {
        pairs.push_back({static_cast<pp::StateId>(a),
                         static_cast<pp::StateId>(b)});
      }
    }
    return pairs;
  }
  util::Rng rng(2026);
  for (std::uint64_t i = 0; i < budget; ++i) {
    pairs.push_back({static_cast<pp::StateId>(rng.uniform_below(ns)),
                     static_cast<pp::StateId>(rng.uniform_below(ns))});
  }
  // Also the ordered pairs of input states: the region every run starts in.
  for (pp::ColorId a = 0; a < protocol.num_colors(); ++a) {
    for (pp::ColorId b = 0; b < protocol.num_colors(); ++b) {
      pairs.push_back({protocol.input(a), protocol.input(b)});
    }
  }
  return pairs;
}

void expect_kernel_matches(const pp::Protocol& protocol,
                           const kernel::CompiledProtocol& kernel,
                           const std::string& label) {
  ASSERT_EQ(kernel.num_states(), protocol.num_states()) << label;
  ASSERT_EQ(kernel.num_colors(), protocol.num_colors()) << label;
  ASSERT_EQ(kernel.num_output_symbols(), protocol.num_output_symbols())
      << label;
  for (pp::ColorId c = 0; c < protocol.num_colors(); ++c) {
    EXPECT_EQ(kernel.input(c), protocol.input(c)) << label;
  }
  for (const auto& [a, b] : pair_sample(protocol, 1 << 16)) {
    const pp::Transition expected = protocol.transition(a, b);
    const pp::Transition got = kernel.transition(a, b);
    ASSERT_EQ(got, expected) << label << " transition(" << a << ", " << b
                             << ")";
    const bool nonnull = expected.initiator != a || expected.responder != b;
    ASSERT_EQ(kernel.nonnull(a, b), nonnull) << label;
    const bool flips =
        nonnull && (protocol.output(expected.initiator) !=
                        protocol.output(a) ||
                    protocol.output(expected.responder) !=
                        protocol.output(b));
    ASSERT_EQ(kernel.output_changes(a, b), flips) << label;
    ASSERT_EQ(kernel.output(a), protocol.output(a)) << label;
    ASSERT_EQ(kernel.output(b), protocol.output(b)) << label;
  }
}

TEST(CompiledProtocolTest, MatchesEveryRegisteredProtocol) {
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol);
    const std::string label = c.name + " k=" + std::to_string(c.k) + " (" +
                              kernel::to_string(compiled.kind()) + ")";
    expect_kernel_matches(*protocol, compiled, label);
  }
}

TEST(CompiledProtocolTest, ForcedSparseMatchesEveryRegisteredProtocol) {
  // max_dense_entries = 0 forces the lazily-materialized hashed table even
  // for tiny state spaces, so the sparse path gets registry-wide coverage.
  kernel::CompileOptions sparse;
  sparse.max_dense_entries = 0;
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol, sparse);
    ASSERT_EQ(compiled.kind(), kernel::TableKind::kSparse);
    const std::string label = c.name + " k=" + std::to_string(c.k) +
                              " (forced sparse)";
    expect_kernel_matches(*protocol, compiled, label);
    // Every distinct pair the sample touched is served from the cache on
    // the second pass; the fill counter must have moved.
    EXPECT_GT(compiled.stats().sparse_filled, 0u) << label;
  }
}

TEST(CompiledProtocolTest, KindFollowsTheDenseBudget) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 3});  // 27 states
  {
    const kernel::CompiledProtocol compiled(*protocol);
    EXPECT_EQ(compiled.kind(), kernel::TableKind::kDense);
    const auto stats = compiled.stats();
    EXPECT_EQ(stats.states, 27u);
    EXPECT_EQ(stats.entries, 27u * 27u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_GT(stats.nonnull_pairs, 0u);
    EXPECT_FALSE(stats.to_string().empty());
  }
  {
    kernel::CompileOptions options;
    options.max_dense_entries = 27 * 27 - 1;  // one short: must go sparse
    const kernel::CompiledProtocol compiled(*protocol, options);
    EXPECT_EQ(compiled.kind(), kernel::TableKind::kSparse);
    EXPECT_FALSE(compiled.has_adjacency());
  }
}

TEST(CompiledProtocolTest, AdjacencyListsExactlyTheNonNullResponders) {
  const auto& registry = sim::ProtocolRegistry::global();
  for (const auto& c : registry_cases()) {
    const auto protocol = registry.create(c.name, {.k = c.k});
    const kernel::CompiledProtocol compiled(*protocol);
    if (compiled.kind() != kernel::TableKind::kDense) continue;
    ASSERT_TRUE(compiled.has_adjacency());
    std::uint64_t total = 0;
    for (std::uint64_t s = 0; s < compiled.num_states(); ++s) {
      const auto sa = static_cast<pp::StateId>(s);
      std::vector<pp::StateId> expected;
      for (std::uint64_t t = 0; t < compiled.num_states(); ++t) {
        const auto tb = static_cast<pp::StateId>(t);
        const pp::Transition tr = protocol->transition(sa, tb);
        if (tr.initiator != sa || tr.responder != tb) expected.push_back(tb);
      }
      const auto got = compiled.active_responders(sa);
      ASSERT_EQ(std::vector<pp::StateId>(got.begin(), got.end()), expected)
          << c.name << " k=" << c.k << " state " << s;
      total += expected.size();
    }
    EXPECT_EQ(compiled.stats().nonnull_pairs, total);
  }
}

TEST(CompiledProtocolTest, SparseCacheIsThreadSafe) {
  // Many threads hammer the same shared sparse kernel over random pairs;
  // every answer must match the virtual function (and under ASan/UBSan this
  // exercises the publication ordering).
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 8});
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  options.sparse_slots = 1 << 12;  // small: force collisions and overflow
  const kernel::CompiledProtocol compiled(*protocol, options);

  const std::uint64_t ns = protocol->num_states();
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < 8; ++worker) {
    threads.emplace_back([&, worker]() {
      util::Rng rng(1000 + worker);
      for (int i = 0; i < 50'000; ++i) {
        const auto a = static_cast<pp::StateId>(rng.uniform_below(ns));
        const auto b = static_cast<pp::StateId>(rng.uniform_below(ns));
        if (!(compiled.transition(a, b) == protocol->transition(a, b))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(compiled.stats().sparse_filled, 0u);
}

TEST(CompiledProtocolTest, ConfigSilentAgreesWithIsSilent) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("circles", {.k = 3});
  const kernel::CompiledProtocol compiled(*protocol);
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<pp::StateId> states;
    for (int i = 0; i < 6; ++i) {
      states.push_back(
          static_cast<pp::StateId>(rng.uniform_below(protocol->num_states())));
    }
    const pp::Population population(protocol->num_states(), states);
    EXPECT_EQ(pp::is_silent(population, compiled),
              pp::is_silent(population, *protocol));
  }
}

/// The forced-sparse lowering: every pair goes through the hashed cache, so
/// it shares no table code with the default dense kernel.
kernel::CompileOptions forced_sparse() {
  kernel::CompileOptions options;
  options.max_dense_entries = 0;
  return options;
}

/// `spec` prepared as the BatchRunner prepares it, but on the forced-sparse
/// kernel.
sim::PreparedSpec prepare_sparse(const sim::RunSpec& spec) {
  return sim::PreparedSpec(spec, sim::ProtocolRegistry::global(), nullptr,
                           nullptr, forced_sparse());
}

/// Every trial of the prepared spec (which pins its seed), with the seeds
/// run() uses.
std::vector<sim::TrialRecord> run_trials_with(
    const sim::PreparedSpec& prepared) {
  std::vector<sim::TrialRecord> records;
  for (std::uint32_t t = 0; t < prepared.spec().trials; ++t) {
    records.push_back(
        prepared.run_trial(sim::trial_seed(*prepared.spec().seed, t)));
  }
  return records;
}

/// The kernel's table kind must be invisible in the results. "On" is the
/// BatchRunner's per-spec kernel (a dense table at these sizes); "off" is
/// the forced-sparse kernel, which turns the dense table off. Same seeds,
/// same trajectories, same final configurations, on every backend.
TEST(KernelEndToEndTest, RunResultsBitwiseIdenticalWithKernelsOnAndOff) {
  for (const auto backend :
       {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
        sim::EngineKind::kDenseBatched, sim::EngineKind::kFluid}) {
    SCOPED_TRACE(sim::to_string(backend));
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = 60;
    spec.trials = 6;
    spec.seed = 99;
    spec.backend = backend;

    const auto on = sim::BatchRunner().run_one(spec);
    EXPECT_EQ(on.kernel_stats.kind, kernel::TableKind::kDense);
    const sim::PreparedSpec sparse = prepare_sparse(spec);
    ASSERT_EQ(sparse.kernel().kind(), kernel::TableKind::kSparse);
    const auto off = run_trials_with(sparse);

    ASSERT_EQ(on.trials.size(), off.size());
    for (std::size_t t = 0; t < off.size(); ++t) {
      const auto& a = on.trials[t];
      const auto& b = off[t];
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_EQ(a.workload.counts, b.workload.counts);
      EXPECT_EQ(a.outcome.run.interactions, b.outcome.run.interactions);
      EXPECT_EQ(a.outcome.run.state_changes, b.outcome.run.state_changes);
      EXPECT_EQ(a.outcome.run.last_change_step, b.outcome.run.last_change_step);
      EXPECT_EQ(a.outcome.run.silent, b.outcome.run.silent);
      EXPECT_EQ(a.outcome.run.final_outputs, b.outcome.run.final_outputs);
      EXPECT_EQ(a.outcome.correct, b.outcome.correct);
      EXPECT_EQ(a.outcome.consensus, b.outcome.consensus);
    }
  }
}

TEST(KernelEndToEndTest, ChemicalTimeBitwiseIdenticalWithKernelsOnAndOff) {
  // Dense-table vs forced-sparse kernels on a chemical-time spec: the
  // clocks (whose output-flip predicate is the kernel's per-pair flag) and
  // the embedded discrete run must match exactly.
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 30;
  spec.trials = 3;
  spec.seed = 5;
  spec.chemical_time = true;

  const auto on = sim::BatchRunner().run_one(spec);
  const auto off = run_trials_with(prepare_sparse(spec));

  ASSERT_EQ(on.trials.size(), off.size());
  for (std::size_t t = 0; t < off.size(); ++t) {
    EXPECT_EQ(on.trials[t].outcome.run.interactions,
              off[t].outcome.run.interactions);
    EXPECT_EQ(on.trials[t].outcome.run.final_outputs,
              off[t].outcome.run.final_outputs);
    EXPECT_EQ(on.trials[t].stabilization_time, off[t].stabilization_time);
    EXPECT_EQ(on.trials[t].convergence_time, off[t].convergence_time);
  }
}

TEST(KernelEndToEndTest, BatchRunnerSurfacesCompileStats) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 20;
  spec.trials = 2;
  const auto result = sim::BatchRunner().run_one(spec);
  EXPECT_EQ(result.kernel_stats.kind, kernel::TableKind::kDense);
  EXPECT_EQ(result.kernel_stats.states, 27u);
  EXPECT_EQ(result.kernel_stats.entries, 27u * 27u);
  EXPECT_GT(result.kernel_stats.bytes, 0u);
  EXPECT_GE(result.kernel_stats.build_ms, 0.0);
}

TEST(KernelEndToEndTest, EngineRunMatchesAcrossTableKinds) {
  const auto protocol =
      sim::ProtocolRegistry::global().create("tie_report", {.k = 3});
  const std::vector<pp::ColorId> colors{0, 0, 1, 1, 2, 2, 0, 1};

  const auto run_with = [&](const kernel::CompiledProtocol& kernel) {
    util::Rng rng(4242);
    pp::Population population(*protocol, colors);
    auto scheduler = pp::make_scheduler(
        pp::SchedulerKind::kUniformRandom,
        static_cast<std::uint32_t>(colors.size()), rng(), protocol.get());
    return pp::Engine().run(kernel, population, *scheduler);
  };

  const kernel::CompiledProtocol dense(*protocol);
  const kernel::CompiledProtocol sparse(*protocol, forced_sparse());
  ASSERT_EQ(dense.kind(), kernel::TableKind::kDense);
  const pp::RunResult with = run_with(dense);
  const pp::RunResult without = run_with(sparse);
  EXPECT_EQ(with.interactions, without.interactions);
  EXPECT_EQ(with.state_changes, without.state_changes);
  EXPECT_EQ(with.last_change_step, without.last_change_step);
  EXPECT_EQ(with.silent, without.silent);
  EXPECT_EQ(with.final_outputs, without.final_outputs);
}

TEST(RunSpecKernelFieldTest, KernelTokenIsAnUnknownField) {
  // Every spec runs through the compiled kernel; there is no kernel= knob.
  try {
    (void)sim::RunSpec::parse("circles(k=3) n=100 kernel=off");
    FAIL() << "expected kernel= to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown field 'kernel'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace circles
