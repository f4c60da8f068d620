// Sensor-network scenario (the model's original motivation: Angluin et al.'s
// passively mobile finite-state sensors): 200 sensors each observed one of 5
// failure codes and must agree on the most frequent code, using 125 states
// of memory each — no ids, no routing, just chance pairwise radio contacts.
//
// Two deployments are compared:
//  * well-mixed: any two sensors may meet (uniform scheduler);
//  * two-room:  sensors are split across two rooms; only 1% of contacts
//               cross the corridor (clustered scheduler). Information mixes
//               slowly, but weak fairness still holds, so Circles still
//               converges to the right answer — it just takes longer.
// Both deployments are RunSpecs on the same explicit workload.
#include <cstdio>

#include "sim/sim.hpp"
#include "util/table.hpp"

int main() {
  using namespace circles;

  const std::uint32_t k = 5;
  const std::uint64_t n = 200;

  util::Rng rng(2025);
  const analysis::Workload readings = analysis::zipf(rng, n, k, 1.1);
  std::printf("failure-code histogram: %s\n", readings.to_string().c_str());
  std::printf("ground-truth plurality code: %u\n", *readings.winner());
  std::printf("per-sensor memory: %llu states (= k^3)\n\n",
              static_cast<unsigned long long>(std::uint64_t{k} * k * k));

  std::vector<sim::RunSpec> specs;
  for (const auto kind : {pp::SchedulerKind::kUniformRandom,
                          pp::SchedulerKind::kClustered}) {
    specs.push_back(sim::SessionBuilder()
                        .protocol("circles")
                        .counts(readings.counts)
                        .scheduler(kind)
                        .seed(rng())
                        .circles_stats()
                        .build());
  }
  const auto results = sim::BatchRunner().run(specs);

  util::Table table({"deployment", "correct", "interactions to silence",
                     "ket exchanges"});
  for (const sim::SpecResult& r : results) {
    const auto& rec = r.trials.front();
    table.add_row({r.spec.scheduler == pp::SchedulerKind::kUniformRandom
                       ? "well-mixed"
                       : "two-room",
                   r.all_correct() ? "yes" : "NO",
                   util::Table::num(rec.outcome.run.interactions),
                   util::Table::num(rec.circles.ket_exchanges)});
    if (!r.all_correct()) return 1;
  }
  table.print("sensor-network plurality consensus");
  std::printf("\nNote: Lemma 3.6 fixes the stable configuration regardless of "
              "topology;\nthe deployment only changes how long the scheduler "
              "takes to find the\nproductive meetings (and along which path "
              "the kets travel there).\n");
  return 0;
}
