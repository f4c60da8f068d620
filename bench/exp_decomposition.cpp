// E3 — Lemma 3.6: after stabilization the bra-ket multiset equals
// ∪_p f(G_p), the greedy-set circles — for every schedule. The stable
// configuration is therefore a pure function of the input counts. This
// experiment verifies exact multiset equality across schedulers, color
// counts and workload shapes, including tied inputs (the lemma does not
// need a unique winner).
#include <vector>

#include "exp_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace circles;
  util::Cli cli(argc, argv);
  const auto trials = static_cast<std::uint32_t>(
      cli.int_flag("trials", 8, "trials per cell"));
  const auto seed =
      static_cast<std::uint64_t>(cli.int_flag("seed", 3, "rng seed"));
  const auto batch = bench::batch_options(cli, seed);
  cli.finish();

  bench::print_header("E3",
                      "Lemma 3.6 — the stable bra-ket multiset equals the "
                      "greedy-set circles, schedule-independently");

  const std::vector<std::pair<const char*, sim::WorkloadSpec>> shapes{
      {"random", sim::WorkloadSpec::unique_winner()},
      {"tied", sim::WorkloadSpec::exact_tie(2)},
      {"zipf", sim::WorkloadSpec::zipf(1.4)},
  };

  std::vector<sim::RunSpec> specs;
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    const std::uint64_t n =
        kind == pp::SchedulerKind::kAdversarialDelay ? 14 : 48;
    for (const std::uint32_t k : {3u, 6u, 12u}) {
      for (const auto& [label, workload] : shapes) {
        sim::RunSpec spec;
        spec.protocol = "circles";
        spec.params.k = k;
        spec.n = n;
        spec.workload = workload;
        spec.scheduler = kind;
        spec.trials = trials;
        spec.circles_stats = true;
        spec.label = label;
        specs.push_back(std::move(spec));
      }
    }
  }

  const auto results = sim::BatchRunner(batch).run(specs);

  util::Table table({"scheduler", "k", "workload", "trials", "exact matches"});
  std::uint64_t mismatches = 0;
  for (const sim::SpecResult& r : results) {
    std::uint32_t matches = 0;
    for (const auto& rec : r.trials) {
      const bool matched =
          rec.circles.decomposition_matches && rec.outcome.run.silent;
      matches += matched ? 1 : 0;
    }
    mismatches += r.trial_count - matches;
    table.add_row({pp::to_string(r.spec.scheduler),
                   util::Table::num(std::uint64_t{r.spec.params.k}),
                   r.spec.label,
                   util::Table::num(std::uint64_t{r.trial_count}),
                   util::Table::percent(double(matches) / r.trial_count, 0)});
  }
  table.print("decomposition verification (expected: 100% everywhere)");
  return bench::verdict(
      mismatches == 0,
      mismatches == 0
          ? "every stable configuration matched predict_stable_brakets() "
            "bit-exactly"
          : std::to_string(mismatches) + " mismatches");
}
