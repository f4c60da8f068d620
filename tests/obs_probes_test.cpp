// Unit tests for the obs core: TraceTable sinks, Recorder cadence
// semantics, and each built-in probe against hand-computed expectations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "baselines/exact_majority_4state.hpp"
#include "core/circles_protocol.hpp"
#include "obs/obs.hpp"

namespace circles::obs {
namespace {

// --- TraceTable ------------------------------------------------------------

TEST(TraceTableTest, RowsAndColumns) {
  TraceTable table({"x", "y"});
  table.add_row({1.0, 2.0});
  table.add_row({3.0, 4.0});
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.at(1, 0), 3.0);
  EXPECT_EQ(table.column_index("y"), 1u);
  EXPECT_THROW(table.column_index("z"), std::invalid_argument);
  EXPECT_EQ(table.column(1), (std::vector<double>{2.0, 4.0}));
}

TEST(TraceTableTest, CsvAndJsonlRendering) {
  TraceTable table({"x", "y"});
  table.add_row({0.0, 1.5});
  table.add_row({2.0, -3.0});
  EXPECT_EQ(table.to_csv(), "x,y\n0,1.5\n2,-3\n");
  EXPECT_EQ(table.to_jsonl(),
            "{\"x\":0,\"y\":1.5}\n{\"x\":2,\"y\":-3}\n");
}

TEST(TraceTableTest, FileSinksRoundTrip) {
  TraceTable table({"x"});
  table.add_row({42.0});
  const std::string csv = testing::TempDir() + "/obs_trace_test.csv";
  const std::string jsonl = testing::TempDir() + "/obs_trace_test.jsonl";
  table.write_csv(csv);
  table.write_jsonl(jsonl);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  EXPECT_EQ(slurp(csv), table.to_csv());
  EXPECT_EQ(slurp(jsonl), table.to_jsonl());
  std::remove(csv.c_str());
  std::remove(jsonl.c_str());
}

// --- Recorder cadence ------------------------------------------------------

/// Captures the x positions of every sample it receives.
class SpyProbe final : public Probe {
 public:
  void on_sample(const Snapshot& snapshot) override {
    samples.push_back(snapshot.interactions);
    rows.emplace_back(snapshot.chemical_time,
                      std::vector<std::uint64_t>(snapshot.counts.begin(),
                                                 snapshot.counts.end()));
  }
  void on_finish(const Snapshot&) override { finishes += 1; }
  std::vector<std::uint64_t> samples;
  std::vector<std::pair<double, std::vector<std::uint64_t>>> rows;
  int finishes = 0;
};

TEST(RecorderTest, SamplesInitialDuePointsAndFinal) {
  core::CirclesProtocol protocol(2);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 3;
  counts[protocol.input(1)] = 2;

  RecorderOptions options;
  options.interaction_horizon = 100;
  Recorder recorder(options);
  SpyProbe spy;
  GridSpec grid;
  grid.spacing = GridSpec::Spacing::kLinear;
  grid.points = 10;  // due at 10, 20, ..., 100
  recorder.add(&spy, grid);

  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 5;
  recorder.begin(ctx, counts);
  recorder.advance(4, 0.0, counts);   // before first due point: no sample
  recorder.advance(10, 0.0, counts);  // exactly due
  recorder.advance(12, 0.0, counts);  // next due is 20
  recorder.advance(35, 0.0, counts);  // passes 20 and 30: ONE collapsed sample
  recorder.finish(47, 0.0, counts);   // final position past the last sample

  EXPECT_EQ(spy.samples, (std::vector<std::uint64_t>{0, 10, 35, 47}));
  EXPECT_EQ(spy.finishes, 1);
}

TEST(RecorderTest, FinishNeverEmitsNonMonotoneRow) {
  core::CirclesProtocol protocol(2);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 2;
  counts[protocol.input(1)] = 2;
  RecorderOptions options;
  options.interaction_horizon = 100;
  Recorder recorder(options);
  SpyProbe spy;
  recorder.add(&spy, GridSpec::parse("linear:10"));
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 4;
  recorder.begin(ctx, counts);
  recorder.advance(50, 0.0, counts);
  // A batched engine can rewind its reported index to the exact silence
  // point; the already-emitted row at 50 must stay the last sample.
  recorder.finish(31, 0.0, counts);
  EXPECT_EQ(spy.samples, (std::vector<std::uint64_t>{0, 50}));
  EXPECT_EQ(spy.finishes, 1);
}

/// advance() is due() followed by sample(): two recorders on the same grid,
/// one driven each way over the same positions, emit the same rows, on
/// interaction and on chemical-time clocks.
TEST(RecorderTest, AdvanceIsDueThenSample) {
  core::CirclesProtocol protocol(2);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 3;
  counts[protocol.input(1)] = 2;
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 5;
  for (const auto clock : {RecorderOptions::Clock::kInteractions,
                           RecorderOptions::Clock::kChemical}) {
    for (const char* grid : {"linear:10", "log:16", "linear:3"}) {
      SCOPED_TRACE(grid);
      RecorderOptions options;
      options.clock = clock;
      options.interaction_horizon = 1000;
      options.chemical_horizon = 200.0;
      Recorder advanced(options), gated(options);
      SpyProbe a, g;
      advanced.add(&a, GridSpec::parse(grid));
      gated.add(&g, GridSpec::parse(grid));
      advanced.begin(ctx, counts);
      gated.begin(ctx, counts);
      std::size_t due_calls = 0;
      for (std::uint64_t x = 1; x <= 1000; x += 1 + x / 7) {
        const double t = static_cast<double>(x) / 5.0;
        counts[protocol.input(0)] = x % 4;  // rows must carry these counts
        advanced.advance(x, t, counts);
        if (gated.due(x, t)) {
          gated.sample(x, t, counts);
          due_calls += 1;
        }
      }
      advanced.finish(1000, 200.0, counts);
      gated.finish(1000, 200.0, counts);
      EXPECT_EQ(a.samples, g.samples);
      EXPECT_EQ(a.rows, g.rows);
      EXPECT_GT(due_calls, 0u);
      EXPECT_LT(due_calls, a.samples.size());  // x = 0 and finish are extra
    }
  }
}

TEST(RecorderTest, BeginIsIdempotent) {
  core::CirclesProtocol protocol(2);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 2;
  RecorderOptions options;
  options.interaction_horizon = 10;
  Recorder recorder(options);
  SpyProbe spy;
  recorder.add(&spy, GridSpec::parse("linear:1"));
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 2;
  recorder.begin(ctx, counts);
  recorder.begin(ctx, counts);  // engine re-entry: no duplicate x=0 row
  EXPECT_EQ(spy.samples, (std::vector<std::uint64_t>{0}));
}

// --- EnergyTrace -----------------------------------------------------------

TEST(EnergyTraceTest, WeightsMatchBraKetDefinition) {
  core::CirclesProtocol protocol(4);
  const EnergyTrace trace = EnergyTrace::for_circles(protocol);
  ASSERT_EQ(trace.weights().size(), protocol.num_states());
  for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
    EXPECT_EQ(trace.weights()[s],
              core::weight(protocol.decode(s).braket, protocol.k()))
        << "state " << s;
  }
}

TEST(EnergyTraceTest, HandComputedEnergyRow) {
  core::CirclesProtocol protocol(3);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  // 4 diagonal agents <0|0> (weight 3 each) and 2 agents <0|1> (weight 1).
  counts[protocol.encode({0, 0}, 0)] = 4;
  counts[protocol.encode({0, 1}, 0)] = 2;

  RecorderOptions options;
  options.interaction_horizon = 10;
  Recorder recorder(options);
  EnergyTrace energy = EnergyTrace::for_circles(protocol);
  recorder.add(&energy, GridSpec::parse("linear:1"));
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 6;
  recorder.begin(ctx, counts);

  const TraceTable& table = *energy.table();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("total_energy")),
                   4 * 3 + 2 * 1);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("min_weight")), 1.0);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("diagonal_agents")), 4.0);
}

// --- CountsTrace -----------------------------------------------------------

TEST(CountsTraceTest, OutputProjectionSumsToPopulation) {
  core::CirclesProtocol protocol(3);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 5;
  counts[protocol.input(2)] = 3;

  RecorderOptions options;
  options.interaction_horizon = 10;
  Recorder recorder(options);
  CountsTrace trace;
  recorder.add(&trace, GridSpec::parse("linear:1"));
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 8;
  recorder.begin(ctx, counts);

  const TraceTable& table = *trace.table();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("out_0")), 5.0);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("out_1")), 0.0);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("out_2")), 3.0);
}

TEST(CountsTraceTest, StateProjectionRefusesHugeProtocols) {
  core::CirclesProtocol protocol(17);  // 17^3 = 4913 > kMaxStateColumns
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 2;
  Recorder recorder;
  CountsTrace trace(CountsTrace::Projection::kStates);
  recorder.add(&trace);
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 2;
  EXPECT_THROW(recorder.begin(ctx, counts), std::invalid_argument);
}

// --- ActivePairsTrace ------------------------------------------------------

TEST(ActivePairsTraceTest, MatchesBruteForceCount) {
  core::CirclesProtocol protocol(3);
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 3;
  counts[protocol.input(1)] = 2;
  counts[protocol.encode({0, 1}, 0)] = 1;

  // Brute force over all ordered state pairs.
  std::uint64_t expected = 0;
  for (pp::StateId a = 0; a < protocol.num_states(); ++a) {
    for (pp::StateId b = 0; b < protocol.num_states(); ++b) {
      if (counts[a] == 0 || counts[b] == 0) continue;
      const pp::Transition tr = protocol.transition(a, b);
      if (tr.initiator == a && tr.responder == b) continue;
      expected += counts[a] * (counts[b] - (a == b ? 1 : 0));
    }
  }

  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 6;
  EXPECT_EQ(active_pairs_from_counts(ctx, counts), expected);

  // Through the recorder (which computes it on demand for the probe).
  RecorderOptions options;
  options.interaction_horizon = 10;
  Recorder recorder(options);
  ActivePairsTrace trace;
  recorder.add(&trace, GridSpec::parse("linear:1"));
  recorder.begin(ctx, counts);
  const TraceTable& table = *trace.table();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("active_pairs")),
                   static_cast<double>(expected));
  EXPECT_DOUBLE_EQ(table.at(0, table.column_index("active_fraction")),
                   static_cast<double>(expected) / (6.0 * 5.0));
}

// --- ConvergenceProbe ------------------------------------------------------

TEST(ConvergenceProbeTest, TracksFirstCorrectAndStaysCorrect) {
  core::CirclesProtocol protocol(2);
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 4;

  std::vector<std::uint64_t> leading(protocol.num_states(), 0);
  leading[protocol.input(1)] = 3;
  leading[protocol.input(0)] = 1;
  std::vector<std::uint64_t> trailing(protocol.num_states(), 0);
  trailing[protocol.input(1)] = 1;
  trailing[protocol.input(0)] = 3;

  ConvergenceProbe probe(pp::OutputSymbol{1});
  probe.on_begin(ctx);
  const auto feed = [&](std::uint64_t x, const std::vector<std::uint64_t>& c) {
    Snapshot snapshot;
    snapshot.interactions = x;
    snapshot.counts = c;
    snapshot.ctx = &ctx;
    probe.on_sample(snapshot);
    return snapshot;
  };
  feed(0, trailing);            // wrong leader
  feed(10, leading);            // correct — candidate at 10
  feed(20, trailing);           // flips back: candidate reset
  feed(30, leading);            // correct again — candidate at 30
  const auto last = feed(40, leading);
  probe.on_finish(last);

  EXPECT_TRUE(probe.converged());
  EXPECT_EQ(probe.first_correct_interactions(), 30u);
  ASSERT_EQ(probe.table()->num_rows(), 5u);
  EXPECT_DOUBLE_EQ(
      probe.table()->at(0, probe.table()->column_index("leader_ok")), 0.0);
}

TEST(ConvergenceProbeTest, NoExpectedSymbolNeverConverges) {
  core::CirclesProtocol protocol(2);
  ProbeContext ctx;
  ctx.protocol = &protocol;
  ctx.n = 2;
  std::vector<std::uint64_t> counts(protocol.num_states(), 0);
  counts[protocol.input(0)] = 2;
  // nullopt, and the TIE symbol k that tie-aware grading expects of a tied
  // input, which plain circles cannot output.
  for (const auto expected :
       {std::optional<pp::OutputSymbol>{}, std::optional<pp::OutputSymbol>{2}}) {
    ConvergenceProbe probe(expected);
    probe.on_begin(ctx);
    Snapshot snapshot;
    snapshot.counts = counts;
    snapshot.ctx = &ctx;
    probe.on_sample(snapshot);
    probe.on_finish(snapshot);
    EXPECT_FALSE(probe.converged());
  }
}

// --- make_probe ------------------------------------------------------------

TEST(MakeProbeTest, EnergyRequiresCircles) {
  baselines::ExactMajority4State majority;
  EXPECT_THROW(make_probe(ProbeSpec::parse("energy"), majority),
               std::invalid_argument);
  core::CirclesProtocol circles(3);
  EXPECT_NE(make_probe(ProbeSpec::parse("energy"), circles), nullptr);
}

TEST(MakeProbeTest, BuildsEveryKind) {
  core::CirclesProtocol circles(3);
  for (const std::string text :
       {"counts", "states", "energy", "active", "convergence"}) {
    EXPECT_NE(make_probe(ProbeSpec::parse(text), circles, 0), nullptr)
        << text;
  }
}

}  // namespace
}  // namespace circles::obs
