// "All possible sequences of interactions": Circles' correctness claim
// quantifies over every weakly fair schedule. This example runs the same
// election under all five schedulers in the zoo — including an adversary
// that actively delays progress — and shows that
//   (a) every run converges to the same winner, and
//   (b) every run stabilizes to the *identical* bra-ket multiset
//       (Lemma 3.6: the stable configuration depends only on the counts).
// The sweep is one RunSpec per scheduler through the BatchRunner.
#include <cstdio>
#include <vector>

#include "core/decomposition.hpp"
#include "core/greedy_sets.hpp"
#include "sim/sim.hpp"
#include "util/table.hpp"

int main() {
  using namespace circles;

  const std::vector<std::uint64_t> counts{7, 5, 6, 2};  // winner: color 0
  std::printf("counts=(7,5,6,2); predicted stable bra-kets: %s\n\n",
              core::predict_stable_brakets(counts).to_string().c_str());

  std::vector<sim::RunSpec> specs;
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    specs.push_back(sim::SessionBuilder()
                        .protocol("circles")
                        .counts(counts)
                        .scheduler(kind)
                        .seed(4242)
                        .circles_stats()
                        .build());
  }
  const auto results = sim::BatchRunner().run(specs);

  util::Table table({"scheduler", "winner", "interactions", "ket exchanges",
                     "decomposition"});
  bool all_ok = true;
  for (const sim::SpecResult& r : results) {
    const auto& rec = r.trials.front();
    all_ok = all_ok && r.all_correct() && rec.circles.decomposition_matches;
    table.add_row(
        {pp::to_string(r.spec.scheduler),
         rec.outcome.consensus.has_value()
             ? "c" + std::to_string(*rec.outcome.consensus)
             : "<none>",
         util::Table::num(rec.outcome.run.interactions),
         util::Table::num(rec.circles.ket_exchanges),
         rec.circles.decomposition_matches ? "exact" : "MISMATCH"});
  }
  table.print("one election, five schedulers");
  std::printf("\nThe adversarial scheduler prefers null interactions and only "
              "honors weak\nfairness through forced round-robin steps — "
              "Circles still cannot be fooled.\n");
  return all_ok ? 0 : 1;
}
