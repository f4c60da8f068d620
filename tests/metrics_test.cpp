// Telemetry layer: registry semantics, null-safe disabled path, manifest
// provenance, file sinks, and — the load-bearing contract — bitwise
// identical simulation results with metrics on vs off on every backend.
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "metrics/manifest.hpp"
#include "sim/sim.hpp"

namespace circles {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- registry primitives ---------------------------------------------------

TEST(MetricsTest, CounterAccumulates) {
  metrics::MetricsRegistry registry;
  metrics::Counter& c = registry.counter("engine.runs");
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(MetricsTest, HandlesAreStableAndShared) {
  metrics::MetricsRegistry registry;
  metrics::Counter& a = registry.counter("x");
  // Registering more names must not invalidate earlier handles.
  for (int i = 0; i < 100; ++i) {
    registry.counter("name" + std::to_string(i));
  }
  metrics::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  metrics::MetricsRegistry registry;
  metrics::Gauge& g = registry.gauge("batch.threads");
  g.set(4.0);
  g.set(8.0);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
}

TEST(MetricsTest, TimerAccumulatesAndCounts) {
  metrics::MetricsRegistry registry;
  metrics::Timer& t = registry.timer("batch.trial");
  t.record_ms(1.5);
  t.record_ms(2.5);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_NEAR(t.total_ms(), 4.0, 1e-9);
}

TEST(MetricsTest, ScopedTimerRecordsElapsed) {
  metrics::MetricsRegistry registry;
  metrics::Timer& t = registry.timer("span");
  {
    metrics::ScopedTimer span(&t);
  }
  EXPECT_EQ(t.count(), 1u);
  EXPECT_GE(t.total_ms(), 0.0);
}

TEST(MetricsTest, NullHandlesAreNoOps) {
  // The disabled path everywhere in the engines: null registry, null
  // handles. None of these may crash or allocate a registry.
  EXPECT_EQ(metrics::counter(nullptr, "engine.runs"), nullptr);
  EXPECT_EQ(metrics::timer(nullptr, "engine.monitor"), nullptr);
  metrics::add(static_cast<metrics::Counter*>(nullptr), 7);
  metrics::add(nullptr, "engine.runs", 7);
  metrics::set_gauge(nullptr, "batch.threads", 1.0);
  metrics::record_ms(nullptr, "batch.trial", 1.0);
  metrics::ScopedTimer span(nullptr);
  span.stop();
}

TEST(MetricsTest, ThreadSafeAccumulation) {
  metrics::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&registry] {
      // counter() races with other registrants; add() races with adds.
      metrics::Counter& c = registry.counter("shared");
      for (int j = 0; j < kAddsPerThread; ++j) c.add(1);
      registry.timer("shared.timer").record_ms(0.25);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(registry.timer("shared.timer").count(),
            static_cast<std::uint64_t>(kThreads));
}

// --- snapshot and sinks ----------------------------------------------------

TEST(MetricsTest, SnapshotIsSortedByName) {
  metrics::MetricsRegistry registry;
  registry.counter("zeta").add(1);
  registry.gauge("alpha").set(2.0);
  registry.timer("mid").record_ms(3.0);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[0].kind, "gauge");
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[1].kind, "timer");
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[2].kind, "counter");
}

TEST(MetricsTest, JsonlSchema) {
  metrics::MetricsRegistry registry;
  registry.counter("engine.runs").add(3);
  EXPECT_EQ(registry.to_jsonl(),
            "{\"name\":\"engine.runs\",\"kind\":\"counter\",\"value\":3,"
            "\"count\":3}\n");
}

TEST(MetricsTest, CsvSchema) {
  metrics::MetricsRegistry registry;
  registry.counter("engine.runs").add(3);
  registry.gauge("batch.threads").set(2.0);
  EXPECT_EQ(registry.to_csv(),
            "name,kind,value,count\n"
            "batch.threads,gauge,2,1\n"
            "engine.runs,counter,3,3\n");
}

TEST(MetricsTest, WritePicksFormatByExtension) {
  metrics::MetricsRegistry registry;
  registry.counter("c").add(1);
  const std::string jsonl = testing::TempDir() + "/metrics_test.jsonl";
  const std::string csv = testing::TempDir() + "/metrics_test.csv";
  registry.write(jsonl);
  registry.write(csv);
  EXPECT_EQ(slurp(jsonl), registry.to_jsonl());
  EXPECT_EQ(slurp(csv), registry.to_csv());
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
}

TEST(MetricsTest, JsonHelpers) {
  EXPECT_EQ(metrics::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(metrics::json_number(2.0), "2");
  EXPECT_EQ(metrics::json_number(0.5), "0.5");
  // Non-finite values have no JSON literal; null keeps parsers happy.
  EXPECT_EQ(metrics::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(metrics::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

// --- manifest --------------------------------------------------------------

TEST(ManifestTest, CollectFillsEnvironment) {
  const metrics::RunManifest manifest = metrics::RunManifest::collect();
  EXPECT_FALSE(manifest.git_describe.empty());
  EXPECT_FALSE(manifest.build_type.empty());
  EXPECT_FALSE(manifest.compiler.empty());
  EXPECT_FALSE(manifest.hostname.empty());
  // ISO-8601 UTC: "2026-08-08T12:34:56Z".
  ASSERT_EQ(manifest.started_utc.size(), 20u);
  EXPECT_EQ(manifest.started_utc[10], 'T');
  EXPECT_EQ(manifest.started_utc.back(), 'Z');
}

// Parses "2026-08-08T12:34:56Z" to Unix seconds; -1 on malformed input.
std::int64_t utc_seconds(const std::string& ts) {
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
  char z = 0;
  if (std::sscanf(ts.c_str(), "%4d-%2d-%2dT%2d:%2d:%2d%c", &y, &mo, &d, &h,
                  &mi, &s, &z) != 7 ||
      z != 'Z') {
    return -1;
  }
  using namespace std::chrono;
  const auto day = sys_days(year{y} / mo / d);
  return duration_cast<seconds>(
             (day + hours{h} + minutes{mi} + seconds{s}).time_since_epoch())
      .count();
}

TEST(ManifestTest, BatchTimestampsAreParseableAndConsistent) {
  // One worker thread so wall_ms (the summed per-trial busy time) cannot
  // exceed the started->finished window.
  sim::BatchOptions options;
  options.threads = 1;
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 200;
  spec.trials = 3;
  spec.seed = 7;
  const auto result = sim::BatchRunner(options).run_one(spec);
  const metrics::RunManifest& m = result.manifest;

  ASSERT_EQ(m.started_utc.size(), 20u) << m.started_utc;
  ASSERT_EQ(m.finished_utc.size(), 20u) << m.finished_utc;
  const std::int64_t start = utc_seconds(m.started_utc);
  const std::int64_t finish = utc_seconds(m.finished_utc);
  ASSERT_GE(start, 0) << m.started_utc;
  ASSERT_GE(finish, 0) << m.finished_utc;
  EXPECT_GE(finish, start);

  // wall_ms must agree with the timestamp pair: non-negative, and within
  // the window plus 2s of slack for the timestamps' 1-second resolution.
  EXPECT_GE(m.wall_ms, 0.0);
  EXPECT_LE(m.wall_ms / 1000.0, static_cast<double>(finish - start) + 2.0);
}

TEST(ManifestTest, ToJsonRoundTrip) {
  metrics::RunManifest manifest = metrics::RunManifest::collect();
  manifest.spec = "circles(k=3) n=100 \"quoted\"";
  manifest.backend = "dense";
  manifest.kernel = "dense";
  manifest.seed = 42;
  manifest.trials = 5;
  manifest.threads = 2;
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"spec\":\"circles(k=3) n=100 \\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"backend\":\"dense\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":5"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\":"), std::string::npos);
  EXPECT_NE(json.find("\"hostname\":"), std::string::npos);

  const std::string path = testing::TempDir() + "/manifest_test.json";
  manifest.write(path);
  EXPECT_EQ(slurp(path), json + "\n");
  std::remove(path.c_str());
}

// --- RunSpec token ---------------------------------------------------------

TEST(MetricsSpecTest, MetricsTokenRoundTrips) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = 100;
  spec.metrics_out = "/tmp/cell0.jsonl";
  const std::string text = spec.to_string();
  EXPECT_NE(text.find("metrics=/tmp/cell0.jsonl"), std::string::npos);
  const sim::RunSpec parsed = sim::RunSpec::parse(text);
  EXPECT_EQ(parsed.metrics_out, spec.metrics_out);
  EXPECT_EQ(parsed.to_string(), text);
}

// --- batch integration -----------------------------------------------------

sim::RunSpec small_spec(sim::EngineKind backend, std::uint64_t n) {
  sim::RunSpec spec;
  spec.protocol = "circles";
  spec.params.k = 3;
  spec.n = n;
  spec.trials = 3;
  spec.seed = 7;
  spec.backend = backend;
  return spec;
}

TEST(MetricsBatchTest, ResultsBitwiseIdenticalWithMetricsOnEveryBackend) {
  for (const auto backend :
       {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
        sim::EngineKind::kDenseBatched, sim::EngineKind::kFluid}) {
    const std::uint64_t n =
        backend == sim::EngineKind::kFluid ? 100'000 : 300;
    const sim::RunSpec spec = small_spec(backend, n);

    const auto off = sim::BatchRunner(sim::BatchOptions{}).run_one(spec);

    metrics::MetricsRegistry registry;
    sim::BatchOptions with;
    with.metrics = &registry;
    const auto on = sim::BatchRunner(with).run_one(spec);

    ASSERT_EQ(off.trials.size(), on.trials.size());
    for (std::size_t t = 0; t < on.trials.size(); ++t) {
      EXPECT_EQ(off.trials[t].seed, on.trials[t].seed);
      EXPECT_EQ(off.trials[t].outcome.run.interactions,
                on.trials[t].outcome.run.interactions);
      EXPECT_EQ(off.trials[t].outcome.run.state_changes,
                on.trials[t].outcome.run.state_changes);
      EXPECT_EQ(off.trials[t].outcome.run.final_outputs,
                on.trials[t].outcome.run.final_outputs);
    }
    // And the registry actually saw the work.
    EXPECT_GT(registry.counter("batch.trials").value(), 0u)
        << sim::to_string(backend);
  }
}

TEST(MetricsBatchTest, EngineCountersMatchAggregates) {
  metrics::MetricsRegistry registry;
  sim::BatchOptions options;
  options.metrics = &registry;
  const auto result =
      sim::BatchRunner(options).run_one(
          small_spec(sim::EngineKind::kAgentArray, 200));

  EXPECT_EQ(registry.counter("engine.runs").value(), result.trial_count);
  const double total_interactions =
      result.interactions.mean * result.trial_count;
  EXPECT_EQ(registry.counter("engine.interactions").value(),
            static_cast<std::uint64_t>(total_interactions));
  // Batch phase instrumentation.
  EXPECT_EQ(registry.counter("batch.specs").value(), 1u);
  EXPECT_EQ(registry.counter("batch.trials").value(), result.trial_count);
  EXPECT_EQ(registry.timer("batch.trial").count(), result.trial_count);
  EXPECT_GT(registry.timer("batch.wall").total_ms(), 0.0);
  // Kernel compile stats routed through the registry.
  EXPECT_EQ(registry.timer("kernel.build").count(), 1u);
  EXPECT_GT(registry.counter("kernel.entries").value(), 0u);
}

TEST(MetricsBatchTest, DenseCountersFlow) {
  metrics::MetricsRegistry registry;
  sim::BatchOptions options;
  options.metrics = &registry;
  (void)sim::BatchRunner(options).run_one(
      small_spec(sim::EngineKind::kDenseBatched, 20'000));
  EXPECT_EQ(registry.counter("dense.runs").value(), 3u);
  EXPECT_GT(registry.counter("dense.interactions").value(), 0u);
  EXPECT_GT(registry.counter("dense.epochs").value(), 0u);
  EXPECT_GT(registry.counter("dense.mvhg_draws").value(), 0u);
  // This spec mixes both epoch samplers.
  EXPECT_GT(registry.counter("dense.agent_epochs").value(), 0u);
  EXPECT_LT(registry.counter("dense.agent_epochs").value(),
            registry.counter("dense.epochs").value());
}

TEST(MetricsBatchTest, FluidCountersFlow) {
  metrics::MetricsRegistry registry;
  sim::BatchOptions options;
  options.metrics = &registry;
  (void)sim::BatchRunner(options).run_one(
      small_spec(sim::EngineKind::kFluid, 100'000));
  EXPECT_EQ(registry.counter("fluid.runs").value(), 3u);
  EXPECT_GT(registry.counter("fluid.ode_steps_accepted").value(), 0u);
}

TEST(MetricsBatchTest, TrialLatencySummaryFilled) {
  const auto result =
      sim::BatchRunner(sim::BatchOptions{}).run_one(small_spec(sim::EngineKind::kDense, 200));
  EXPECT_EQ(result.trial_ms.count, result.trial_count);
  EXPECT_GE(result.trial_ms.p90, result.trial_ms.p50);
  EXPECT_GE(result.trial_ms.p50, 0.0);
  for (const auto& trial : result.trials) {
    EXPECT_GE(trial.wall_ms, 0.0);
  }
  // Provenance is always collected, sink or not.
  EXPECT_EQ(result.manifest.backend, "dense");
  EXPECT_EQ(result.manifest.trials, result.trial_count);
  EXPECT_FALSE(result.manifest.finished_utc.empty());
}

TEST(MetricsBatchTest, MetricsOutWritesSinkAndManifest) {
  const std::string sink = testing::TempDir() + "/cell_metrics.jsonl";
  const std::string manifest = testing::TempDir() + "/cell_metrics.manifest.json";
  sim::RunSpec spec = small_spec(sim::EngineKind::kAgentArray, 150);
  spec.metrics_out = sink;
  const auto result = sim::BatchRunner(sim::BatchOptions{}).run_one(spec);

  const std::string sink_text = slurp(sink);
  EXPECT_NE(sink_text.find("\"name\":\"engine.runs\""), std::string::npos);
  EXPECT_NE(sink_text.find("\"name\":\"batch.trial\""), std::string::npos);
  EXPECT_NE(sink_text.find("\"name\":\"kernel.build\""), std::string::npos);

  const std::string manifest_text = slurp(manifest);
  EXPECT_NE(manifest_text.find("\"backend\":\"agent\""), std::string::npos);
  EXPECT_NE(manifest_text.find("\"trials\":3"), std::string::npos);
  EXPECT_EQ(manifest_text, result.manifest.to_json() + "\n");

  std::remove(sink.c_str());
  std::remove(manifest.c_str());
}

TEST(MetricsBatchTest, ProgressCallbackFires) {
  sim::BatchOptions options;
  std::vector<sim::BatchProgress> snapshots;
  options.progress = [&snapshots](const sim::BatchProgress& p) {
    snapshots.push_back(p);
  };
  options.progress_interval_s = 1e9;  // only the guaranteed final call
  const auto result =
      sim::BatchRunner(options).run_one(
          small_spec(sim::EngineKind::kAgentArray, 150));
  ASSERT_GE(snapshots.size(), 1u);
  const sim::BatchProgress& last = snapshots.back();
  EXPECT_EQ(last.trials_done, result.trial_count);
  EXPECT_EQ(last.trials_total, result.trial_count);
  EXPECT_EQ(last.specs_done, 1u);
  EXPECT_EQ(last.specs_total, 1u);
  EXPECT_GT(last.interactions, 0u);
  EXPECT_GT(last.interactions_per_s(), 0.0);
}

TEST(MetricsBatchTest, SessionBuilderWiring) {
  metrics::MetricsRegistry registry;
  const auto result = sim::SessionBuilder()
                          .protocol("circles")
                          .k(3)
                          .n(150)
                          .trials(2)
                          .seed(11)
                          .metrics(&registry)
                          .run();
  EXPECT_EQ(result.trial_count, 2u);
  EXPECT_EQ(registry.counter("engine.runs").value(), 2u);
}

}  // namespace
}  // namespace circles
