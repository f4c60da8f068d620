#include "sim/run_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/circles_protocol.hpp"
#include "sim/batch_runner.hpp"
#include "sim/specs_from_flags.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace circles::sim {
namespace {

TEST(WorkloadSpecTest, ParseRoundTripsEveryFamily) {
  for (const char* text : {"unique", "random", "tie:3", "margin1",
                           "dominant:0.6", "zipf:1.4", "counts:5,3,2"}) {
    SCOPED_TRACE(text);
    const WorkloadSpec spec = WorkloadSpec::parse(text);
    EXPECT_EQ(spec.to_string(), text);
  }
  EXPECT_THROW(WorkloadSpec::parse("nope"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("zipf:abc"), std::invalid_argument);
  // Negative or degenerate arguments must fail at parse time, not wrap
  // through std::stoul and abort inside a worker thread later.
  EXPECT_THROW(WorkloadSpec::parse("tie:-1"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("tie:1"), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::parse("counts:5,-1"), std::invalid_argument);
}

TEST(WorkloadSpecTest, RejectsOutOfRangeFamilyParameters) {
  // A NaN zipf exponent would reach the samplers as NaN probabilities, and a
  // share outside (0, 1] trips analysis::dominant's check inside a worker;
  // both must fail at parse time (sweep exits 2) instead.
  for (const char* text :
       {"zipf:nan", "zipf:inf", "zipf:-inf", "dominant:0", "dominant:1.5",
        "dominant:-0.2", "dominant:nan", "dominant:inf"}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(WorkloadSpec::parse(text), std::invalid_argument);
  }
  EXPECT_THROW(WorkloadSpec::zipf(std::nan("")), std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::dominant(1.5), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 workload=dominant:1.5"),
               std::invalid_argument);
  EXPECT_EQ(WorkloadSpec::parse("dominant:1").share, 1.0);
  EXPECT_EQ(WorkloadSpec::parse("zipf:0").exponent, 0.0);
  EXPECT_EQ(WorkloadSpec::parse("zipf:-0.5").exponent, -0.5);
}

TEST(WorkloadSpecTest, ToStringRoundTripsEveryConstructor) {
  // The inverse direction of the test above: every factory's to_string
  // survives parse() for every family, including non-default arguments.
  const WorkloadSpec specs[] = {
      WorkloadSpec::unique_winner(),      WorkloadSpec::random_counts(),
      WorkloadSpec::exact_tie(2),         WorkloadSpec::exact_tie(5),
      WorkloadSpec::close_margin(),       WorkloadSpec::dominant(0.75),
      WorkloadSpec::dominant(0.5),        WorkloadSpec::zipf(1.0),
      WorkloadSpec::zipf(2.25),
      WorkloadSpec::explicit_counts({1}), WorkloadSpec::explicit_counts(
                                              {10, 0, 7, 3}),
  };
  for (const WorkloadSpec& spec : specs) {
    SCOPED_TRACE(spec.to_string());
    const WorkloadSpec reparsed = WorkloadSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.family, spec.family);
    EXPECT_EQ(reparsed.tied_colors, spec.tied_colors);
    EXPECT_EQ(reparsed.share, spec.share);
    EXPECT_EQ(reparsed.exponent, spec.exponent);
    EXPECT_EQ(reparsed.counts, spec.counts);
    EXPECT_EQ(reparsed.to_string(), spec.to_string());
  }
}

TEST(EngineKindTest, RoundTripsAndRejectsUnknown) {
  for (const auto kind :
       {EngineKind::kAgentArray, EngineKind::kDense,
        EngineKind::kDenseBatched, EngineKind::kFluid}) {
    EXPECT_EQ(engine_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_EQ(engine_kind_from_string("batched"), EngineKind::kDenseBatched);
  EXPECT_EQ(engine_kind_from_string("array"), EngineKind::kAgentArray);
  EXPECT_THROW(engine_kind_from_string("gpu"), std::invalid_argument);
  // The rejection names every valid backend, not just the bad token.
  try {
    (void)engine_kind_from_string("gpu");
    FAIL() << "expected engine_kind_from_string to throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'gpu'"), std::string::npos) << what;
    for (const char* token :
         {"agent", "dense", "dense_batched", "fluid", "auto"}) {
      EXPECT_NE(what.find(token), std::string::npos) << token;
    }
  }
}

TEST(RunSpecParseTest, RoundTripsEveryWorkloadFamilyAndBackend) {
  const WorkloadSpec workloads[] = {
      WorkloadSpec::unique_winner(),  WorkloadSpec::random_counts(),
      WorkloadSpec::exact_tie(3),     WorkloadSpec::close_margin(),
      WorkloadSpec::dominant(0.6),    WorkloadSpec::zipf(1.4),
      WorkloadSpec::explicit_counts({5, 3, 2}),
  };
  const EngineKind backends[] = {EngineKind::kAgentArray, EngineKind::kDense,
                                 EngineKind::kDenseBatched,
                                 EngineKind::kFluid};
  for (const WorkloadSpec& workload : workloads) {
    for (const EngineKind backend : backends) {
      RunSpec spec;
      spec.protocol = "tie_report";
      spec.params.k = 4;
      spec.n = 128;
      spec.workload = workload;
      spec.scheduler = pp::SchedulerKind::kShuffledSweep;
      spec.trials = 9;
      spec.backend = backend;
      spec.label = "cell A 3";
      SCOPED_TRACE(spec.to_string());
      const RunSpec reparsed = RunSpec::parse(spec.to_string());
      EXPECT_EQ(reparsed.protocol, spec.protocol);
      EXPECT_EQ(reparsed.params.k, spec.params.k);
      EXPECT_EQ(reparsed.effective_n(), spec.effective_n());
      EXPECT_EQ(reparsed.workload.to_string(), spec.workload.to_string());
      EXPECT_EQ(reparsed.scheduler, spec.scheduler);
      EXPECT_EQ(reparsed.trials, spec.trials);
      EXPECT_EQ(reparsed.backend, spec.backend);
      EXPECT_EQ(reparsed.label, spec.label);
      EXPECT_EQ(reparsed.to_string(), spec.to_string());
    }
  }
}

TEST(RunSpecParseTest, BackendOmittedForAgentArrayAndDefaultsOnParse) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 50;
  EXPECT_EQ(spec.to_string().find("backend="), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed.backend, EngineKind::kAgentArray);

  spec.backend = EngineKind::kDenseBatched;
  EXPECT_NE(spec.to_string().find("backend=dense_batched"),
            std::string::npos);
}

TEST(RunSpecParseTest, RunThreadsRoundTripAndDefaultOmitted) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 50;
  // The default (1, the only width validate_spec accepts) stays out of the
  // string; any other value renders, so the rejection can name it.
  EXPECT_EQ(spec.to_string().find("threads="), std::string::npos);
  spec.run_threads = 4;
  EXPECT_NE(spec.to_string().find("threads=4"), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed.run_threads, 4u);
  EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(RunSpecParseTest, RejectsMalformedSpecs) {
  EXPECT_THROW(RunSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles n=10"), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) bogus"), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) weird=1"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) backend=gpu"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) grading=best"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) clock=wall"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) faults=-3"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) n=10]"), std::invalid_argument);
  // Negative numbers must not wrap through std::stoull.
  EXPECT_THROW(RunSpec::parse("circles(k=-2) n=10"), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) n=-10"), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) trials=-1"),
               std::invalid_argument);
  // ... and trailing garbage must not be silently truncated.
  EXPECT_THROW(RunSpec::parse("circles(k=2) n=10x3"), std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) trials=5.9"),
               std::invalid_argument);
}

TEST(WorkloadSpecTest, MaterializeIsDeterministicInRng) {
  const WorkloadSpec spec = WorkloadSpec::zipf(1.3);
  util::Rng a(42), b(42);
  const auto wa = spec.materialize(a, 60, 5);
  const auto wb = spec.materialize(b, 60, 5);
  EXPECT_EQ(wa.counts, wb.counts);
  EXPECT_EQ(wa.n(), 60u);
  EXPECT_EQ(wa.k(), 5u);
}

TEST(WorkloadSpecTest, SampledFamiliesCostOrderKNotN) {
  // Per-agent sampling would run for hours at n = 10^12; ctest's timeout is
  // the complexity guard, so there is no wall-clock assertion here.
  constexpr std::uint64_t kHuge = 1'000'000'000'000;
  for (const char* text : {"unique", "random", "dominant:0.6", "zipf:1.2"}) {
    for (const std::uint32_t k : {2u, 8u}) {
      SCOPED_TRACE(std::string(text) + " k=" + std::to_string(k));
      const WorkloadSpec spec = WorkloadSpec::parse(text);
      util::Rng rng(7);
      const auto workload = spec.materialize(rng, kHuge, k);
      EXPECT_EQ(workload.k(), k);
      EXPECT_EQ(workload.n(), kHuge);
      if (spec.family != WorkloadSpec::Family::kRandomCounts) {
        EXPECT_FALSE(workload.tied()) << workload.to_string();
      }
    }
  }
}

TEST(WorkloadSpecTest, ExplicitCountsIgnoreRngAndN) {
  const WorkloadSpec spec = WorkloadSpec::explicit_counts({4, 4, 1});
  util::Rng rng(1);
  const auto workload = spec.materialize(rng, 999, 3);
  EXPECT_EQ(workload.counts, (std::vector<std::uint64_t>{4, 4, 1}));
}

TEST(RunSpecTest, EffectiveNUsesExplicitCounts) {
  RunSpec spec;
  spec.n = 100;
  EXPECT_EQ(spec.effective_n(), 100u);
  spec.workload = WorkloadSpec::explicit_counts({2, 3});
  EXPECT_EQ(spec.effective_n(), 5u);
}

TEST(SeedDerivationTest, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
  EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
  EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));

  RunSpec pinned;
  pinned.seed = 77;
  EXPECT_EQ(spec_seed(pinned, 1, 0), 77u);
  EXPECT_EQ(spec_seed(pinned, 999, 5), 77u);  // pinning wins over base/index
  RunSpec unpinned;
  EXPECT_NE(spec_seed(unpinned, 1, 0), spec_seed(unpinned, 1, 1));
}

TEST(CliListFlagTest, ParsesCommaSeparatedLists) {
  const char* argv[] = {"prog", "--n=8,32,128", "--protocol=circles,tie_report"};
  util::Cli cli(3, const_cast<char**>(argv));
  const auto ns = cli.int_list_flag("n", "64", "sizes");
  const auto protocols = cli.string_list_flag("protocol", "circles", "names");
  const auto ks = cli.int_list_flag("k", "2,4", "colors");  // default used
  cli.finish();
  EXPECT_EQ(ns, (std::vector<std::int64_t>{8, 32, 128}));
  EXPECT_EQ(protocols, (std::vector<std::string>{"circles", "tie_report"}));
  EXPECT_EQ(ks, (std::vector<std::int64_t>{2, 4}));
}

TEST(SpecsFromFlagsTest, BuildsTheCrossProductGrid) {
  const char* argv[] = {"prog", "--n=10,20", "--k=2,3", "--scheduler=uniform,round_robin",
                        "--trials=7", "--seed=9"};
  util::Cli cli(6, const_cast<char**>(argv));
  const SweepSpecs sweep = specs_from_flags(cli);
  cli.finish();
  EXPECT_EQ(sweep.base_seed, 9u);
  ASSERT_EQ(sweep.specs.size(), 8u);  // 1 protocol x 2 k x 2 n x 2 schedulers
  for (const auto& spec : sweep.specs) {
    EXPECT_EQ(spec.protocol, "circles");
    EXPECT_EQ(spec.trials, 7u);
    EXPECT_FALSE(spec.seed.has_value());
  }
  EXPECT_EQ(sweep.specs[0].params.k, 2u);
  EXPECT_EQ(sweep.specs[0].n, 10u);
  EXPECT_EQ(sweep.specs[0].scheduler, pp::SchedulerKind::kUniformRandom);
  EXPECT_EQ(sweep.specs[1].scheduler, pp::SchedulerKind::kRoundRobin);
  EXPECT_EQ(sweep.specs.back().params.k, 3u);
  EXPECT_EQ(sweep.specs.back().n, 20u);
}

TEST(SpecsFromFlagsTest, BackendAxisJoinsTheCrossProduct) {
  const char* argv[] = {"prog", "--n=10", "--backend=agent,dense_batched"};
  util::Cli cli(3, const_cast<char**>(argv));
  const SweepSpecs sweep = specs_from_flags(cli);
  cli.finish();
  ASSERT_EQ(sweep.specs.size(), 2u);
  EXPECT_EQ(sweep.specs[0].backend, EngineKind::kAgentArray);
  EXPECT_EQ(sweep.specs[1].backend, EngineKind::kDenseBatched);

  const char* bad[] = {"prog", "--backend=quantum"};
  util::Cli bad_cli(2, const_cast<char**>(bad));
  EXPECT_THROW(specs_from_flags(bad_cli), std::invalid_argument);
}

TEST(RunSpecParseTest, RoundTripsClusterAndBridgeTokens) {
  // Equal-cluster count form.
  {
    RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 3;
    spec.n = 600;
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.clusters = 4;
    spec.bridge = 0.001;
    spec.backend = EngineKind::kDenseBatched;
    SCOPED_TRACE(spec.to_string());
    EXPECT_NE(spec.to_string().find("clusters=4"), std::string::npos);
    EXPECT_NE(spec.to_string().find("bridge=0.001"), std::string::npos);
    const RunSpec reparsed = RunSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.clusters, 4u);
    EXPECT_TRUE(reparsed.cluster_sizes.empty());
    EXPECT_DOUBLE_EQ(reparsed.bridge, 0.001);
    EXPECT_EQ(reparsed.to_string(), spec.to_string());
  }
  // Explicit-sizes form, including the single-size disambiguation.
  {
    RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = 2;
    spec.n = 900;
    spec.scheduler = pp::SchedulerKind::kClustered;
    spec.cluster_sizes = {600, 200, 100};
    SCOPED_TRACE(spec.to_string());
    EXPECT_NE(spec.to_string().find("clusters=600,200,100"),
              std::string::npos);
    const RunSpec reparsed = RunSpec::parse(spec.to_string());
    EXPECT_EQ(reparsed.cluster_sizes,
              (std::vector<std::uint64_t>{600, 200, 100}));
    EXPECT_EQ(reparsed.clusters, 0u);
    EXPECT_DOUBLE_EQ(reparsed.bridge, 0.01);  // default omitted and restored
    EXPECT_EQ(reparsed.to_string(), spec.to_string());

    spec.cluster_sizes = {900};
    const RunSpec single = RunSpec::parse(spec.to_string());
    EXPECT_EQ(single.cluster_sizes, (std::vector<std::uint64_t>{900}));
    EXPECT_EQ(single.clusters, 0u);
    EXPECT_EQ(single.to_string(), spec.to_string());
  }
  // Default shape emits no tokens.
  {
    RunSpec spec;
    spec.scheduler = pp::SchedulerKind::kClustered;
    EXPECT_EQ(spec.to_string().find("clusters="), std::string::npos);
    EXPECT_EQ(spec.to_string().find("bridge="), std::string::npos);
  }
  // Malformed values.
  EXPECT_THROW(RunSpec::parse("circles(k=2) clusters=0"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) clusters=-2"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) bridge=0"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) bridge=1.5"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=2) bridge=abc"),
               std::invalid_argument);
}

TEST(RunSpecParseTest, RoundTripsAutoBackend) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 4096;
  spec.backend = EngineKind::kAuto;
  EXPECT_NE(spec.to_string().find("backend=auto"), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed.backend, EngineKind::kAuto);
  EXPECT_EQ(reparsed.to_string(), spec.to_string());
  EXPECT_EQ(engine_kind_from_string("auto"), EngineKind::kAuto);
  EXPECT_EQ(to_string(EngineKind::kAuto), "auto");
}

TEST(RunSpecParseTest, RoundTripsFluidBackendWithTolerances) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 1'000'000'000;
  spec.backend = EngineKind::kFluid;
  spec.rtol = 1e-4;
  spec.atol = 1e-8;
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("backend=fluid"), std::string::npos);
  EXPECT_NE(text.find("rtol=0.0001"), std::string::npos);
  EXPECT_NE(text.find("atol=1e-08"), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(text);
  EXPECT_EQ(reparsed.backend, EngineKind::kFluid);
  EXPECT_EQ(reparsed.n, spec.n);
  EXPECT_DOUBLE_EQ(reparsed.rtol, spec.rtol);
  EXPECT_DOUBLE_EQ(reparsed.atol, spec.atol);
  EXPECT_EQ(reparsed.to_string(), text);

  // Default tolerances render no tokens at all.
  RunSpec plain;
  plain.protocol = "circles";
  plain.params.k = 3;
  plain.n = 64;
  plain.backend = EngineKind::kFluid;
  EXPECT_EQ(plain.to_string().find("rtol="), std::string::npos);
  EXPECT_EQ(plain.to_string().find("atol="), std::string::npos);

  // Tolerances must be positive numbers.
  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 rtol=0"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 rtol=-1e-4"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 atol=huge"),
               std::invalid_argument);
}

TEST(RunSpecParseTest, RoundTripsBudgetToken) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 100;
  // The default budget emits no token; REPRO lines rely on non-default
  // budgets surviving the round trip so budget_exhausted failures replay.
  EXPECT_EQ(spec.to_string().find("budget="), std::string::npos);
  spec.engine.max_interactions = 5'000;
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("budget=5000"), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(text);
  EXPECT_EQ(reparsed.engine.max_interactions, 5'000u);
  EXPECT_EQ(reparsed.to_string(), text);

  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 budget=0"),
               std::invalid_argument);
  EXPECT_THROW(RunSpec::parse("circles(k=3) n=10 budget=-5"),
               std::invalid_argument);
}

TEST(RunSpecParseTest, RoundTripsSpansTokenAndDisambiguatesFromTrace) {
  RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 100;
  EXPECT_EQ(spec.to_string().find("spans="), std::string::npos);
  spec.spans_out = "/tmp/cell0.trace.json";
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("spans=/tmp/cell0.trace.json"), std::string::npos);
  const RunSpec reparsed = RunSpec::parse(text);
  EXPECT_EQ(reparsed.spans_out, spec.spans_out);
  EXPECT_EQ(reparsed.to_string(), text);

  // The two trace-ish tokens disambiguate each other: a bad spans= names
  // trace= (obs count probes) and a bad trace= names spans= (Chrome-trace
  // span timelines), so users land on the right knob either way.
  try {
    (void)RunSpec::parse("circles(k=3) n=10 spans=");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spans="), std::string::npos) << what;
    EXPECT_NE(what.find("trace="), std::string::npos) << what;
  }
  try {
    (void)RunSpec::parse("circles(k=3) n=10 trace=bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace="), std::string::npos) << what;
    EXPECT_NE(what.find("spans="), std::string::npos) << what;
  }
}

TEST(SpecsFromFlagsTest, FluidBackendAndTolerancesFlowFromFlags) {
  const char* argv[] = {"prog",
                        "--n=1000000",
                        "--backend=fluid,agent",
                        "--rtol=1e-4",
                        "--atol=1e-7"};
  util::Cli cli(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const SweepSpecs sweep = specs_from_flags(cli);
  ASSERT_EQ(sweep.specs.size(), 2u);
  const RunSpec& fluid = sweep.specs[0];
  EXPECT_EQ(fluid.backend, EngineKind::kFluid);
  EXPECT_DOUBLE_EQ(fluid.rtol, 1e-4);
  EXPECT_DOUBLE_EQ(fluid.atol, 1e-7);
  // The tolerances are fluid-only: the agent cell of the same sweep must
  // not inherit them (the BatchRunner would reject it).
  const RunSpec& agent = sweep.specs[1];
  EXPECT_EQ(agent.backend, EngineKind::kAgentArray);
  EXPECT_DOUBLE_EQ(agent.rtol, 0.0);
  EXPECT_DOUBLE_EQ(agent.atol, 0.0);
}

TEST(SpecsFromFlagsTest, ClusteredDenseCellsAreKeptAndShaped) {
  // Clustered is lumpable, so dense x clustered cells survive the grid;
  // --clusters/--bridge shape only the clustered cells.
  const char* argv[] = {"prog", "--n=64",
                        "--scheduler=uniform,clustered,round_robin",
                        "--backend=dense,auto", "--clusters=4",
                        "--bridge=0.002"};
  util::Cli cli(6, const_cast<char**>(argv));
  const SweepSpecs sweep = specs_from_flags(cli);
  cli.finish();
  // dense x {uniform, clustered}, auto x {uniform, clustered, round_robin}.
  ASSERT_EQ(sweep.specs.size(), 5u);
  for (const auto& spec : sweep.specs) {
    if (spec.scheduler == pp::SchedulerKind::kClustered) {
      EXPECT_EQ(spec.clusters, 4u);
      EXPECT_DOUBLE_EQ(spec.bridge, 0.002);
    } else {
      EXPECT_EQ(spec.clusters, 0u);
      EXPECT_TRUE(spec.backend == EngineKind::kAuto ||
                  spec.scheduler == pp::SchedulerKind::kUniformRandom);
    }
  }

  // Several --clusters values become explicit sizes.
  const char* sized[] = {"prog", "--n=60", "--scheduler=clustered",
                         "--clusters=40,20"};
  util::Cli sized_cli(4, const_cast<char**>(sized));
  const SweepSpecs sized_sweep = specs_from_flags(sized_cli);
  sized_cli.finish();
  ASSERT_EQ(sized_sweep.specs.size(), 1u);
  EXPECT_EQ(sized_sweep.specs[0].cluster_sizes,
            (std::vector<std::uint64_t>{40, 20}));
}

TEST(SchedulerLumpingTest, ReflectsSpecSchedulerAndShape) {
  RunSpec spec;
  spec.n = 100;
  spec.scheduler = pp::SchedulerKind::kClustered;
  spec.clusters = 4;
  spec.bridge = 0.2;
  const auto lumping = scheduler_lumping(spec);
  ASSERT_TRUE(lumping.has_value());
  EXPECT_EQ(lumping->sizes, (std::vector<std::uint64_t>{25, 25, 25, 25}));
  EXPECT_NEAR(lumping->rate(0, 0), 0.8 / 4, 1e-12);
  EXPECT_NEAR(lumping->rate(0, 1), 0.2 / 12, 1e-12);

  spec.scheduler = pp::SchedulerKind::kUniformRandom;
  const auto uniform = scheduler_lumping(spec);
  ASSERT_TRUE(uniform.has_value());
  EXPECT_EQ(uniform->sizes, (std::vector<std::uint64_t>{100}));

  spec.scheduler = pp::SchedulerKind::kRoundRobin;
  EXPECT_FALSE(scheduler_lumping(spec).has_value());

  spec.scheduler = pp::SchedulerKind::kUniformRandom;
  spec.scheduler_factory = [](std::uint32_t n, std::uint64_t seed) {
    return pp::make_scheduler(pp::SchedulerKind::kUniformRandom, n, seed);
  };
  EXPECT_FALSE(scheduler_lumping(spec).has_value());
}

TEST(SchedulerLumpingTest, MatchesTheSchedulerInstanceHook) {
  // scheduler_lumping answers from the kind alone; the instance hook
  // (pp::Scheduler::lumping) stays the reference it must agree with,
  // including on shapes both reject.
  const core::CirclesProtocol protocol(3);
  for (const std::uint64_t n : {2u, 17u, 1000u}) {
    std::vector<RunSpec> cases;
    for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
      RunSpec spec;
      spec.n = n;
      spec.scheduler = kind;
      cases.push_back(spec);
    }
    RunSpec three = cases.back();
    three.scheduler = pp::SchedulerKind::kClustered;
    three.clusters = 3;
    three.bridge = 0.1;
    cases.push_back(three);
    RunSpec sized = three;
    sized.cluster_sizes = {n / 4, n - n / 4};
    cases.push_back(sized);
    for (const RunSpec& spec : cases) {
      SCOPED_TRACE(spec.to_string());
      const pp::ClusteredOptions clustered = spec.clustered_options();
      std::optional<pp::UrnLumping> expected;
      bool rejected = false;
      try {
        expected = pp::make_scheduler(spec.scheduler,
                                      static_cast<std::uint32_t>(n),
                                      /*seed=*/0, &protocol, &clustered)
                       ->lumping();
      } catch (const std::invalid_argument&) {
        rejected = true;
      }
      if (rejected) {
        EXPECT_THROW((void)scheduler_lumping(spec), std::invalid_argument);
        continue;
      }
      const std::optional<pp::UrnLumping> lumping = scheduler_lumping(spec);
      ASSERT_EQ(lumping.has_value(), expected.has_value());
      if (!expected.has_value()) continue;
      EXPECT_EQ(lumping->sizes, expected->sizes);
      EXPECT_EQ(lumping->rates, expected->rates);
    }
  }
}

TEST(SpecsFromFlagsTest, DenseNonUniformCornersAreSkippedNotFatal) {
  // Dense backends only simulate the uniform scheduler; the invalid corner
  // of a multi-valued cross product is dropped, the rest of the grid runs.
  const char* argv[] = {"prog", "--scheduler=uniform,adversarial",
                        "--backend=agent,dense"};
  util::Cli cli(3, const_cast<char**>(argv));
  const SweepSpecs sweep = specs_from_flags(cli);
  cli.finish();
  ASSERT_EQ(sweep.specs.size(), 3u);  // agent x {uniform, adversarial},
                                      // dense x uniform
  for (const auto& spec : sweep.specs) {
    EXPECT_TRUE(spec.backend == EngineKind::kAgentArray ||
                spec.scheduler == pp::SchedulerKind::kUniformRandom);
  }

  // A grid with nothing but invalid combinations errors out loudly.
  const char* empty[] = {"prog", "--scheduler=adversarial",
                         "--backend=dense"};
  util::Cli empty_cli(3, const_cast<char**>(empty));
  EXPECT_THROW(specs_from_flags(empty_cli), std::invalid_argument);
}

// --- deterministic fuzzing ---------------------------------------------------

/// A random spec string over every token RunSpec renders, in random token
/// order (parse is order-independent). Real values carry all their digits.
std::string random_spec_text(util::Rng& rng) {
  const auto pick = [&rng](std::initializer_list<const char*> options) {
    return std::string(options.begin()[rng.uniform_below(options.size())]);
  };
  const auto coin = [&rng](double p) { return rng.uniform01() < p; };
  const auto uint = [&rng](std::uint64_t lo, std::uint64_t span) {
    return std::to_string(lo + rng.uniform_below(span));
  };
  // A real in [lo, lo + span), rendered exactly.
  const auto real = [&rng](double lo, double span) {
    return util::format_double(lo + span * rng.uniform01());
  };
  const auto tolerance = [&rng]() {
    return util::format_double(std::pow(10.0, -12.0 * rng.uniform01()));
  };

  std::vector<std::string> tokens;
  tokens.push_back("n=" + uint(2, 1'000'000'000));
  switch (rng.uniform_below(7)) {
    case 0: tokens.push_back("workload=unique"); break;
    case 1: tokens.push_back("workload=random"); break;
    case 2: tokens.push_back("workload=tie:" + uint(2, 8)); break;
    case 3: tokens.push_back("workload=margin1"); break;
    case 4: tokens.push_back("workload=dominant:" + real(0.01, 0.99)); break;
    case 5: tokens.push_back("workload=zipf:" + real(0.0, 3.0)); break;
    default: {
      std::string counts = "workload=counts:" + uint(0, 1000);
      for (std::uint64_t c = rng.uniform_below(5); c > 0; --c) {
        counts += "," + uint(0, 1000);
      }
      tokens.push_back(counts);
    }
  }
  tokens.push_back(
      "scheduler=" +
      pp::to_string(static_cast<pp::SchedulerKind>(rng.uniform_below(5))));
  if (coin(0.3)) {
    tokens.push_back("clusters=" + uint(1, 16));
  } else if (coin(0.3)) {
    // One explicit size keeps its trailing comma.
    std::string sizes = "clusters=" + uint(1, 5000) + ",";
    for (std::uint64_t c = rng.uniform_below(4); c > 0; --c) {
      sizes += uint(1, 5000) + ",";
    }
    if (std::count(sizes.begin(), sizes.end(), ',') > 1) sizes.pop_back();
    tokens.push_back(sizes);
  }
  if (coin(0.3)) tokens.push_back("bridge=" + real(1e-6, 0.99));
  tokens.push_back("trials=" + uint(1, 100));
  tokens.push_back(
      "backend=" +
      sim::to_string(static_cast<EngineKind>(rng.uniform_below(5))));
  if (coin(0.2)) tokens.push_back("threads=" + uint(0, 9));
  if (coin(0.3)) tokens.push_back("rtol=" + tolerance());
  if (coin(0.3)) tokens.push_back("atol=" + tolerance());
  if (coin(0.3)) tokens.push_back("budget=" + uint(1, 1'000'000'000'000));
  if (coin(0.5)) {
    tokens.push_back("grading=" + pick({"plurality", "tie_aware"}));
  }
  if (coin(0.3)) tokens.push_back("faults=" + uint(0, 50));
  if (coin(0.3)) tokens.push_back("burst_min=" + uint(0, 100000));
  if (coin(0.3)) tokens.push_back("burst_span=" + uint(0, 100000));
  if (coin(0.5)) {
    tokens.push_back("clock=" + pick({"interactions", "chemical"}));
  }
  for (std::uint64_t t = rng.uniform_below(3); t > 0; --t) {
    const std::string grid =
        coin(0.3) ? "frac:" + real(1e-3, 0.5) + "," + real(0.5, 0.5)
                  : pick({"log:", "linear:"}) + uint(1, 4096);
    tokens.push_back(
        "trace=" +
        pick({"counts", "states", "energy", "active", "convergence"}) + "@" +
        grid);
  }
  if (coin(0.2)) tokens.push_back("metrics=out/m" + uint(0, 9) + ".jsonl");
  if (coin(0.2)) tokens.push_back("spans=out/s" + uint(0, 9) + ".json");
  rng.shuffle(std::span<std::string>(tokens));

  std::string text =
      pick({"circles", "tie_report", "approx_majority_3state"}) +
      "(k=" + uint(1, 12) + ")";
  for (const std::string& token : tokens) text += " " + token;
  if (coin(0.2)) text += " [label " + uint(0, 100) + "]";
  return text;
}

/// `text` with one token dropped, duplicated or garbled.
std::string mutate(const std::string& text, util::Rng& rng) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto space = text.find(' ', pos);
    const auto end = space == std::string::npos ? text.size() : space;
    tokens.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  const std::size_t i = rng.uniform_below(tokens.size());
  switch (rng.uniform_below(3)) {
    case 0:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(
                                         rng.uniform_below(tokens.size() + 1)),
                    tokens[i]);
      break;
    default: {
      static const std::string kChars = "=,:@()[]-.+e0123456789knx ";
      std::string& token = tokens[i];
      const std::size_t at = rng.uniform_below(token.size() + 1);
      const char c = kChars[rng.uniform_below(kChars.size())];
      switch (rng.uniform_below(4)) {
        case 0: token.insert(at, 1, c); break;
        case 1: if (at < token.size()) token[at] = c; break;
        case 2: if (at < token.size()) token.erase(at, 1); break;
        default: token.resize(at); break;
      }
    }
  }
  std::string out;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    if (t) out += " ";
    out += tokens[t];
  }
  return out;
}

/// parse(to_string(s)) equals s in every rendered field and renders s
/// again: the invariant REPRO lines and manifests rely on.
void expect_round_trip(const RunSpec& spec, const std::string& source) {
  const std::string rendered = spec.to_string();
  SCOPED_TRACE("from '" + source + "' via '" + rendered + "'");
  RunSpec r;
  try {
    r = RunSpec::parse(rendered);
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "rendering does not parse: " << e.what();
    return;
  }
  EXPECT_EQ(r.to_string(), rendered);
  EXPECT_EQ(r.protocol, spec.protocol);
  EXPECT_EQ(r.params.k, spec.params.k);
  EXPECT_EQ(r.effective_n(), spec.effective_n());
  EXPECT_EQ(r.workload.to_string(), spec.workload.to_string());
  EXPECT_EQ(r.scheduler, spec.scheduler);
  EXPECT_EQ(r.clusters, spec.clusters);
  EXPECT_EQ(r.cluster_sizes, spec.cluster_sizes);
  EXPECT_EQ(r.bridge, spec.bridge);
  EXPECT_EQ(r.trials, spec.trials);
  EXPECT_EQ(r.backend, spec.backend);
  EXPECT_EQ(r.run_threads, spec.run_threads);
  EXPECT_EQ(r.rtol, spec.rtol);
  EXPECT_EQ(r.atol, spec.atol);
  EXPECT_EQ(r.engine.max_interactions, spec.engine.max_interactions);
  EXPECT_EQ(r.grading, spec.grading);
  EXPECT_EQ(r.reboot_faults, spec.reboot_faults);
  EXPECT_EQ(r.fault_burst_min, spec.fault_burst_min);
  EXPECT_EQ(r.fault_burst_span, spec.fault_burst_span);
  EXPECT_EQ(r.chemical_time, spec.chemical_time);
  EXPECT_EQ(r.probes, spec.probes);
  EXPECT_EQ(r.metrics_out, spec.metrics_out);
  EXPECT_EQ(r.spans_out, spec.spans_out);
  EXPECT_EQ(r.label, spec.label);
}

TEST(RunSpecFuzzTest, RandomSpecsRoundTrip) {
  util::Rng rng(0xF022);
  for (int i = 0; i < 2000; ++i) {
    const std::string text = random_spec_text(rng);
    RunSpec spec;
    try {
      spec = RunSpec::parse(text);
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "generated spec rejected: '" << text
                    << "': " << e.what();
      continue;
    }
    expect_round_trip(spec, text);
  }
}

TEST(RunSpecFuzzTest, MutatedSpecsParseOrThrowInvalidArgument) {
  util::Rng rng(0xF023);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = random_spec_text(rng);
    for (std::uint64_t m = 1 + rng.uniform_below(3); m > 0; --m) {
      text = mutate(text, rng);
    }
    try {
      const RunSpec spec = RunSpec::parse(text);
      ++parsed;
      expect_round_trip(spec, text);
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw a non-invalid_argument: "
                    << e.what();
    }
  }
  // Both outcomes occur, so the mutations neither all miss nor all break.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

TEST(ValidateSpecFuzzTest, RandomSpecsRunOneTrialOrThrowNamingTheSpec) {
  // Random specs, mostly backend=auto, shrunk to k <= 4, n <= 2000 and
  // small budgets: each must either pass every check and run one trial, or
  // throw std::invalid_argument naming the spec. An abort fails the whole
  // binary; under ASan, so does an out-of-bounds access.
  util::Rng rng(0xF024);
  int ran = 0, rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    RunSpec spec = RunSpec::parse(random_spec_text(rng));
    if (rng.uniform01() < 0.6) spec.backend = EngineKind::kAuto;
    spec.params.k = 1 + static_cast<std::uint32_t>(rng.uniform_below(4));
    spec.n = 2 + rng.uniform_below(1999);
    for (auto& count : spec.workload.counts) count %= 400;
    spec.engine.max_interactions = 1 + rng.uniform_below(10'000);
    // Fault bursts run outside the budget.
    spec.fault_burst_min %= 1000;
    spec.fault_burst_span %= 1000;
    const std::string text = spec.to_string();
    try {
      const TrialRecord record =
          BatchRunner::execute_trial(spec, rng());
      EXPECT_LE(record.outcome.run.interactions,
                spec.engine.max_interactions)
          << text;
      ++ran;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
          << "'" << e.what() << "' does not name '" << text << "'";
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw a non-invalid_argument: "
                    << e.what();
    }
  }
  // Both outcomes occur, so the generator neither all passes nor all fails.
  EXPECT_GT(ran, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace circles::sim
