// E15 — chemical kinetics: Circles in continuous time. A chemical-time run
// is a RunSpec with chemical_time set: the ordinary agent trial with an
// exponential clock that stamps every interaction with an Exp(n−1) wait
// from its own stream. Under the uniform scheduler used here that is
// exactly Gillespie kinetics, whose embedded jump chain is the uniform
// scheduler, so every discrete result equals the same spec's without the
// clock (checked below); the clock adds the physical time axis the CRN
// framing implies. Expected shape: stabilization time in chemical units
// tracks interactions/n (the PP literature's "parallel time"), i.e. the
// protocol converges in O(polylog)-ish parallel time on random schedules
// while total interactions grow ~n·polylog(n).
#include <vector>

#include "exp_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace circles;
  util::Cli cli(argc, argv);
  const auto trials = static_cast<std::uint32_t>(
      cli.int_flag("trials", 5, "trials per n"));
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 14, "rng seed"));
  const auto batch = bench::batch_options(cli, seed);
  cli.finish();

  bench::print_header("E15",
                      "chemical kinetics — Circles in continuous time "
                      "(Gillespie); parallel vs chemical clocks");

  const std::uint32_t k = 5;
  std::vector<sim::RunSpec> specs;
  for (const std::uint64_t n : {16ull, 32ull, 64ull, 128ull, 256ull, 512ull}) {
    sim::RunSpec spec;
    spec.protocol = "circles";
    spec.params.k = k;
    spec.n = n;
    spec.trials = trials;
    spec.chemical_time = true;
    specs.push_back(std::move(spec));
  }

  const auto results = sim::BatchRunner(batch).run(specs);
  // The same specs without the clock, at the same indices and so the same
  // trial seeds.
  std::vector<sim::RunSpec> discrete_specs = specs;
  for (sim::RunSpec& spec : discrete_specs) spec.chemical_time = false;
  const auto discrete = sim::BatchRunner(batch).run(discrete_specs);

  util::Table table({"n", "mean interactions", "parallel time (inter/n)",
                     "chemical stabilization time", "chemical convergence time",
                     "chem/parallel"});
  bool all_silent = true;
  bool discrete_match = true;
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::SpecResult& r = results[i];
    all_silent = all_silent && r.all_silent();
    discrete_match = discrete_match &&
                     r.interactions.mean == discrete[i].interactions.mean &&
                     r.state_changes.mean == discrete[i].state_changes.mean &&
                     r.correct == discrete[i].correct;
    const double parallel =
        r.interactions.mean / static_cast<double>(r.spec.n);
    xs.push_back(static_cast<double>(r.spec.n));
    ys.push_back(r.stabilization_time.mean > 0 ? r.stabilization_time.mean
                                               : 0.01);
    table.add_row({util::Table::num(r.spec.n),
                   util::Table::num(r.interactions.mean, 0),
                   util::Table::num(parallel, 2),
                   util::Table::num(r.stabilization_time.mean, 2),
                   util::Table::num(r.convergence_time.mean, 2),
                   util::Table::num(
                       parallel > 0 ? r.stabilization_time.mean / parallel : 0,
                       2)});
  }
  table.print("continuous-time convergence (k=5, uniform kinetics)");
  std::printf("\nlog-log slope of chemical stabilization time vs n: %.2f\n",
              util::loglog_slope(xs, ys));
  std::printf("discrete results equal the runs without the clock: %s\n",
              discrete_match ? "yes" : "NO");
  const bool pass = all_silent && discrete_match;
  return bench::verdict(pass,
                        pass ? "chemical and discrete semantics agree; the "
                               "chemical clock tracks interactions/n"
                             : (all_silent ? "the clock moved a discrete result"
                                           : "a chemical-time run failed to "
                                             "stabilize"));
}
