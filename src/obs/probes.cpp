#include "obs/probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernel/compiled_protocol.hpp"
#include "pp/protocol.hpp"
#include "util/check.hpp"

namespace circles::obs {

namespace {

/// Visits every (state, count > 0) of a snapshot, honouring the present
/// hint (which may contain stale zero-count entries) when available.
template <typename Fn>
void for_each_present(const Snapshot& snapshot, Fn&& fn) {
  if (!snapshot.present.empty()) {
    for (const pp::StateId s : snapshot.present) {
      if (snapshot.counts[s] > 0) fn(s, snapshot.counts[s]);
    }
    return;
  }
  for (std::size_t s = 0; s < snapshot.counts.size(); ++s) {
    if (snapshot.counts[s] > 0) fn(static_cast<pp::StateId>(s),
                                   snapshot.counts[s]);
  }
}

pp::OutputSymbol output_of(const Snapshot& snapshot, pp::StateId state) {
  if (snapshot.ctx->kernel != nullptr) return snapshot.ctx->kernel->output(state);
  return snapshot.ctx->protocol->output(state);
}

}  // namespace

void TraceProbe::start_table(std::vector<std::string> value_columns) {
  std::vector<std::string> columns{"interactions", "chemical_time"};
  columns.insert(columns.end(), value_columns.begin(), value_columns.end());
  table_ = TraceTable(std::move(columns));
}

void TraceProbe::add_sample_row(const Snapshot& snapshot,
                                std::span<const double> values) {
  row_scratch_.clear();
  row_scratch_.push_back(static_cast<double>(snapshot.interactions));
  row_scratch_.push_back(snapshot.chemical_time);
  row_scratch_.insert(row_scratch_.end(), values.begin(), values.end());
  table_.add_row(row_scratch_);
}

// --- CountsTrace -----------------------------------------------------------

void CountsTrace::on_begin(const ProbeContext& ctx) {
  std::vector<std::string> columns;
  if (projection_ == Projection::kOutputs) {
    const std::uint32_t symbols = ctx.protocol->num_output_symbols();
    for (std::uint32_t s = 0; s < symbols; ++s) {
      columns.push_back("out_" + std::to_string(s));
    }
  } else {
    const std::uint64_t states = ctx.protocol->num_states();
    if (states > kMaxStateColumns) {
      throw std::invalid_argument(
          "CountsTrace state projection over " + std::to_string(states) +
          " states (cap " + std::to_string(kMaxStateColumns) +
          "); use the output projection");
    }
    for (std::uint64_t s = 0; s < states; ++s) {
      columns.push_back("state_" + std::to_string(s));
    }
  }
  scratch_.assign(columns.size(), 0.0);
  start_table(std::move(columns));
}

void CountsTrace::on_sample(const Snapshot& snapshot) {
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  if (projection_ == Projection::kOutputs) {
    for_each_present(snapshot, [&](pp::StateId s, std::uint64_t c) {
      scratch_[output_of(snapshot, s)] += static_cast<double>(c);
    });
  } else {
    for_each_present(snapshot, [&](pp::StateId s, std::uint64_t c) {
      scratch_[s] = static_cast<double>(c);
    });
  }
  add_sample_row(snapshot, scratch_);
}

// --- EnergyTrace -----------------------------------------------------------

EnergyTrace::EnergyTrace(std::vector<std::uint32_t> weights, std::uint32_t k)
    : weights_(std::move(weights)), k_(k) {
  CIRCLES_CHECK_MSG(!weights_.empty(), "EnergyTrace needs state weights");
}

EnergyTrace EnergyTrace::for_circles(const core::CirclesProtocol& protocol) {
  std::vector<std::uint32_t> weights(protocol.num_states());
  for (std::uint64_t s = 0; s < weights.size(); ++s) {
    weights[s] = core::weight(
        protocol.decode(static_cast<pp::StateId>(s)).braket, protocol.k());
  }
  return EnergyTrace(std::move(weights), protocol.k());
}

void EnergyTrace::on_begin(const ProbeContext& ctx) {
  CIRCLES_CHECK_MSG(ctx.protocol->num_states() == weights_.size(),
                    "EnergyTrace weights do not match the protocol");
  start_table({"total_energy", "min_weight", "diagonal_agents"});
}

void EnergyTrace::on_sample(const Snapshot& snapshot) {
  std::uint64_t total = 0;
  std::uint32_t min_weight = k_;
  std::uint64_t diagonal = 0;
  for_each_present(snapshot, [&](pp::StateId s, std::uint64_t c) {
    const std::uint32_t w = weights_[s];
    total += c * w;
    min_weight = std::min(min_weight, w);
    if (w == k_) diagonal += c;
  });
  const double row[] = {static_cast<double>(total),
                        static_cast<double>(min_weight),
                        static_cast<double>(diagonal)};
  add_sample_row(snapshot, row);
}

// --- ActivePairsTrace ------------------------------------------------------

void ActivePairsTrace::on_begin(const ProbeContext& ctx) {
  (void)ctx;
  start_table({"active_pairs", "active_fraction"});
}

void ActivePairsTrace::on_sample(const Snapshot& snapshot) {
  CIRCLES_CHECK_MSG(snapshot.active_pairs != kUnknownActive,
                    "ActivePairsTrace needs an active-pair count");
  const double n = static_cast<double>(snapshot.ctx->n);
  const double pairs = n * (n - 1.0);
  const double row[] = {
      static_cast<double>(snapshot.active_pairs),
      pairs > 0.0 ? static_cast<double>(snapshot.active_pairs) / pairs : 0.0};
  add_sample_row(snapshot, row);
}

// --- ConvergenceProbe ------------------------------------------------------

void ConvergenceProbe::on_begin(const ProbeContext& ctx) {
  histogram_.assign(ctx.protocol->num_output_symbols(), 0);
  candidate_ = false;
  converged_ = false;
  start_table({"leader_ok"});
}

bool ConvergenceProbe::leader_ok(const Snapshot& snapshot) {
  // A symbol the protocol cannot output (tie-aware grading of a tied input
  // on a protocol without a TIE symbol) never leads.
  if (!expected_.has_value() || *expected_ >= histogram_.size()) return false;
  std::fill(histogram_.begin(), histogram_.end(), 0);
  for_each_present(snapshot, [&](pp::StateId s, std::uint64_t c) {
    histogram_[output_of(snapshot, s)] += c;
  });
  const std::uint64_t own = histogram_[*expected_];
  if (own == 0) return false;
  for (pp::OutputSymbol s = 0; s < histogram_.size(); ++s) {
    if (s != *expected_ && histogram_[s] >= own) return false;
  }
  return true;
}

void ConvergenceProbe::on_sample(const Snapshot& snapshot) {
  const bool ok = leader_ok(snapshot);
  if (ok && !candidate_) {
    candidate_ = true;
    first_correct_interactions_ = snapshot.interactions;
    first_correct_chemical_ = snapshot.chemical_time;
  } else if (!ok) {
    candidate_ = false;
  }
  const double row[] = {ok ? 1.0 : 0.0};
  add_sample_row(snapshot, row);
}

void ConvergenceProbe::on_finish(const Snapshot& snapshot) {
  (void)snapshot;
  converged_ = candidate_;
}

}  // namespace circles::obs
