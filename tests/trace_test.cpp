// Span tracing + flight recorder: ring semantics, thread registration,
// Chrome-trace export with B/E repair, failure dumps with greppable REPRO
// lines — and the load-bearing contract that spans-on vs spans-off runs are
// bitwise identical on every backend.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/sim.hpp"

namespace circles {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- buffer primitives -----------------------------------------------------

TEST(TraceBufferTest, DrainPreservesEmissionOrderAndPayload) {
  trace::Tracer tracer;
  trace::TraceBuffer* tb = tracer.thread_buffer();
  ASSERT_NE(tb, nullptr);
  EXPECT_EQ(tb->thread_name(), "main");
  EXPECT_NE(tb->tid(), 0u);

  tb->begin("outer");
  tb->instant("tick", "epoch", 7);
  tb->end("outer");

  const auto events = tracer.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].ph, 'B');
  EXPECT_STREQ(events[1].name, "tick");
  EXPECT_EQ(events[1].ph, 'i');
  ASSERT_NE(events[1].arg_name, nullptr);
  EXPECT_STREQ(events[1].arg_name, "epoch");
  EXPECT_EQ(events[1].arg, 7u);
  EXPECT_EQ(events[2].ph, 'E');
  // Monotone timestamps within one thread.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  for (const trace::Event& e : events) {
    EXPECT_EQ(e.tid, tb->tid());
    ASSERT_NE(e.thread_name, nullptr);
    EXPECT_STREQ(e.thread_name, "main");
  }
}

TEST(TraceBufferTest, RingOverwritesKeepingTheMostRecentWindow) {
  trace::TracerOptions options;
  options.buffer_capacity = 8;  // the floor: smaller requests round up to 8
  trace::Tracer tracer(options);
  trace::TraceBuffer* tb = tracer.thread_buffer();
  for (std::uint64_t i = 0; i < 12; ++i) {
    tb->instant("tick", "i", i);
  }
  EXPECT_EQ(tb->dropped(), 4u);
  EXPECT_EQ(tracer.events_dropped(), 4u);
  const auto events = tracer.drain();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first drain of the surviving lap: 4, 5, ..., 11.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].arg, 4 + i);
  }
}

TEST(TracerTest, RegistersWorkerThreadsWithHintedNames) {
  trace::Tracer tracer;
  constexpr int kWorkers = 3;
  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&tracer] {
      trace::TraceBuffer* tb = tracer.thread_buffer("worker");
      ASSERT_NE(tb, nullptr);
      tb->instant("work");
      // Re-resolution without a hint finds the same buffer lock-free.
      EXPECT_EQ(tracer.thread_buffer(), tb);
    });
  }
  for (auto& w : workers) w.join();

  std::set<std::uint64_t> tids;
  std::set<std::string> names;
  for (const trace::Event& e : tracer.drain()) {
    tids.insert(e.tid);
    names.insert(e.thread_name);
  }
  EXPECT_EQ(tids.size(), kWorkers);
  for (const std::string& name : names) {
    EXPECT_EQ(name.rfind("worker-", 0), 0u) << name;
  }
}

// --- null-safe disabled path -----------------------------------------------

TEST(TracerTest, NullTracerPathIsInert) {
  EXPECT_EQ(trace::buffer(nullptr), nullptr);
  EXPECT_EQ(trace::buffer(nullptr, "worker"), nullptr);
  trace::ScopedSpan plain(nullptr, "never");
  trace::ScopedSpan with_arg(nullptr, "never", "n", 1);
}

// --- Chrome-trace export ---------------------------------------------------

TEST(TracerTest, ChromeTraceJsonHasMetadataAndMatchedPairs) {
  trace::Tracer tracer;
  trace::TraceBuffer* tb = tracer.thread_buffer();
  tb->begin("phase", "tasks", 2);
  tb->instant("tick");
  tb->end("phase");

  const std::string json = tracer.chrome_trace_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after the array
  // Thread metadata labels the track.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  // The span and its args object.
  EXPECT_NE(json.find("\"name\":\"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"tasks\":2}"), std::string::npos);
  // Instants carry thread scope.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Required keys on every event; 'M' metadata carries no timestamp.
  const std::size_t events = count_occurrences(json, "\"ph\":");
  const std::size_t metadata = count_occurrences(json, "\"ph\":\"M\"");
  EXPECT_EQ(count_occurrences(json, "\"pid\":"), events);
  EXPECT_EQ(count_occurrences(json, "\"tid\":"), events);
  EXPECT_EQ(count_occurrences(json, "\"ts\":"), events - metadata);
  // B and E match.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(TracerTest, ExportRepairsOrphanedBeginsAndEnds) {
  trace::Tracer tracer;
  trace::TraceBuffer* tb = tracer.thread_buffer();
  // An 'E' whose 'B' fell off the ring, and a 'B' that never closed: the
  // export must drop the former and synthesize a close for the latter.
  tb->end("evicted");
  tb->begin("unclosed");
  tb->instant("tick");

  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.find("\"name\":\"evicted\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unclosed\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 1u);
}

TEST(TracerTest, WriteChromeTraceWritesTheJsonFile) {
  trace::Tracer tracer;
  tracer.thread_buffer()->instant("tick");
  const std::string path = testing::TempDir() + "/trace_test.trace.json";
  tracer.write_chrome_trace(path);
  EXPECT_EQ(slurp(path), tracer.chrome_trace_json());
  std::remove(path.c_str());
}

// --- flight recorder -------------------------------------------------------

TEST(TracerTest, DumpFailureEmitsContextEventsAndReproLine) {
  trace::Tracer tracer;
  trace::TraceBuffer* tb = tracer.thread_buffer();
  tb->instant("dense.epochs", "epoch", 512);

  trace::FailureContext ctx;
  ctx.spec = "circles(k=3) n=300 trials=1 budget=200";
  ctx.backend = "dense_batched";
  ctx.trial_index = 2;
  ctx.trial_seed = 18446744073709551615ull;  // full uint64 survives
  ctx.reason = "grader fail";
  ctx.verdict = "correct=0 silent=1 budget_exhausted=0 interactions=900 "
                "state_changes=120";
  ctx.final_outputs = "100 100 100";

  const std::string path = testing::TempDir() + "/trace_test.dump.txt";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  tracer.dump_failure(ctx, out);
  std::fclose(out);
  const std::string dump = slurp(path);
  std::remove(path.c_str());

  EXPECT_NE(dump.find("=== trial failure: grader fail ==="),
            std::string::npos);
  EXPECT_NE(dump.find("spec: circles(k=3) n=300 trials=1 budget=200"),
            std::string::npos);
  EXPECT_NE(dump.find("backend: dense_batched"), std::string::npos);
  EXPECT_NE(dump.find("seed: 18446744073709551615"), std::string::npos);
  EXPECT_NE(dump.find("verdict: correct=0 silent=1"), std::string::npos);
  EXPECT_NE(dump.find("final outputs: 100 100 100"), std::string::npos);
  EXPECT_NE(dump.find("dense.epochs"), std::string::npos);
  EXPECT_NE(dump.find("REPRO: sweep --spec='circles(k=3) n=300 trials=1 "
                      "budget=200' --trial-seed=18446744073709551615"),
            std::string::npos);
  EXPECT_NE(dump.find("=== end trial failure ==="), std::string::npos);
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

TEST(TraceBatchTest, ResultsBitwiseIdenticalWithSpansOnEveryBackend) {
  for (const auto backend :
       {sim::EngineKind::kAgentArray, sim::EngineKind::kDense,
        sim::EngineKind::kDenseBatched, sim::EngineKind::kFluid}) {
    SCOPED_TRACE(sim::to_string(backend));
    const std::uint64_t n =
        backend == sim::EngineKind::kFluid ? 100'000 : 300;
    const sim::RunSpec spec = small_spec(backend, n);

    const auto off = sim::BatchRunner(sim::BatchOptions{}).run_one(spec);

    trace::Tracer tracer;
    sim::BatchOptions with;
    with.tracer = &tracer;
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
    // And the tracer actually saw the work: phase spans plus one span per
    // trial.
    std::size_t trial_begins = 0;
    bool saw_run_phase = false;
    for (const trace::Event& e : tracer.drain()) {
      if (e.ph == 'B' && std::string(e.name) == "batch.trial") ++trial_begins;
      if (std::string(e.name) == "batch.run") saw_run_phase = true;
    }
    EXPECT_EQ(trial_begins, on.trials.size());
    EXPECT_TRUE(saw_run_phase);
  }
}

TEST(TraceBatchTest, SpansOutWritesPerSpecTimeline) {
  const std::string path = testing::TempDir() + "/trace_batch.trace.json";
  sim::RunSpec spec = small_spec(sim::EngineKind::kDenseBatched, 300);
  spec.spans_out = path;
  (void)sim::BatchRunner(sim::BatchOptions{}).run_one(spec);
  const std::string json = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"batch.trial\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel.compile\""), std::string::npos);
  EXPECT_NE(json.find("dense.run_batched"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(TraceBatchTest, FailingTrialDumpsReproLineThatReplaysIdentically) {
  // A budget too small to reach silence: budget_exhausted on every trial.
  sim::RunSpec spec = small_spec(sim::EngineKind::kAgentArray, 300);
  spec.trials = 1;
  spec.engine.max_interactions = 200;

  trace::Tracer tracer;
  sim::BatchOptions options;
  options.tracer = &tracer;
  options.threads = 1;
  testing::internal::CaptureStderr();
  const auto result = sim::BatchRunner(options).run_one(spec);
  const std::string dump = testing::internal::GetCapturedStderr();
  ASSERT_EQ(result.trials.size(), 1u);
  const sim::TrialRecord& rec = result.trials[0];
  ASSERT_TRUE(rec.outcome.run.budget_exhausted);

  // The dump names the reason and carries the greppable REPRO line.
  EXPECT_NE(dump.find("=== trial failure: budget_exhausted ==="),
            std::string::npos)
      << dump;
  const std::size_t repro_at = dump.find("REPRO: sweep --spec='");
  ASSERT_NE(repro_at, std::string::npos) << dump;
  const std::size_t spec_from = repro_at + std::string("REPRO: sweep --spec='").size();
  const std::size_t spec_to = dump.find('\'', spec_from);
  ASSERT_NE(spec_to, std::string::npos);
  const std::string repro_spec = dump.substr(spec_from, spec_to - spec_from);
  const std::string seed_key = "--trial-seed=";
  const std::size_t seed_from = dump.find(seed_key, spec_to) + seed_key.size();
  std::uint64_t repro_seed = 0;
  std::sscanf(dump.c_str() + seed_from, "%" SCNu64, &repro_seed);
  EXPECT_EQ(repro_seed, rec.seed);

  // The REPRO spec bakes in the resolved backend and the tiny budget, and
  // drops the sink paths (forensics hygiene).
  const sim::RunSpec parsed = sim::RunSpec::parse(repro_spec);
  EXPECT_EQ(parsed.backend, sim::EngineKind::kAgentArray);
  EXPECT_EQ(parsed.engine.max_interactions, 200u);
  EXPECT_TRUE(parsed.spans_out.empty());
  EXPECT_TRUE(parsed.metrics_out.empty());

  // Seed-exact standalone replay: identical failure, identical counts.
  const sim::TrialRecord replay =
      sim::BatchRunner::execute_trial(parsed, repro_seed);
  EXPECT_EQ(replay.outcome.run.budget_exhausted,
            rec.outcome.run.budget_exhausted);
  EXPECT_EQ(replay.outcome.correct, rec.outcome.correct);
  EXPECT_EQ(replay.outcome.run.interactions, rec.outcome.run.interactions);
  EXPECT_EQ(replay.outcome.run.state_changes, rec.outcome.run.state_changes);
  EXPECT_EQ(replay.outcome.run.final_outputs, rec.outcome.run.final_outputs);
}

TEST(TraceBatchTest, NoTracerMeansNoFailureDump) {
  sim::RunSpec spec = small_spec(sim::EngineKind::kAgentArray, 300);
  spec.trials = 1;
  spec.engine.max_interactions = 200;
  sim::BatchOptions options;
  options.threads = 1;
  testing::internal::CaptureStderr();
  (void)sim::BatchRunner(options).run_one(spec);
  const std::string dump = testing::internal::GetCapturedStderr();
  EXPECT_EQ(dump.find("REPRO:"), std::string::npos) << dump;
}

}  // namespace
}  // namespace circles
