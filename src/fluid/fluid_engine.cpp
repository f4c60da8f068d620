#include "fluid/fluid_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "kernel/compiled_protocol.hpp"
#include "metrics/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/recorder.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace circles::fluid {

namespace {

double inf_norm(std::span<const double> v) {
  double norm = 0.0;
  for (const double value : v) norm = std::max(norm, std::fabs(value));
  return norm;
}

/// Span decimation for the integrator loop (same policy as the dense
/// engine): full instants for the first kTraceFullSteps accepted steps,
/// then one per kTraceStride. Rejections are rare enough to emit
/// unconditionally.
constexpr std::uint64_t kTraceFullSteps = 512;
constexpr std::uint64_t kTraceStride = 256;

}  // namespace

FluidEngine::FluidEngine(const pp::Protocol& protocol, pp::EngineOptions engine,
                         FluidOptions options, pp::UrnLumping lumping)
    : FluidEngine(std::make_shared<const kernel::CompiledProtocol>(protocol),
                  engine, options, std::move(lumping)) {}

FluidEngine::FluidEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
                         pp::EngineOptions engine, FluidOptions options,
                         pp::UrnLumping lumping)
    : kernel_(std::move(kernel)),
      engine_(engine),
      options_(options),
      lumping_(std::move(lumping)),
      drift_(*kernel_, options.max_pair_lookups) {
  init_blocks();
}

void FluidEngine::init_blocks() {
  if (lumping_.sizes.empty()) {
    num_urns_ = 1;
    rates_ = {1.0};
    scale_ = {1.0};
    return;
  }
  lumping_.validate();
  num_urns_ = lumping_.num_urns();
  rates_ = lumping_.rates;
  scale_.resize(num_urns_);
  const double n = static_cast<double>(lumping_.n());
  for (std::size_t u = 0; u < num_urns_; ++u) {
    scale_[u] = n / static_cast<double>(lumping_.sizes[u]);
  }
}

double FluidEngine::drift_and_rate(std::span<const double> x,
                                   std::span<double> dxdt) const {
  const std::size_t m = drift_.num_species();
  const std::size_t U = num_urns_;
  CIRCLES_CHECK_MSG(x.size() == U * m && dxdt.size() == U * m,
                    "fluid drift: vector shape must be num_urns x "
                    "num_species");
  std::fill(dxdt.begin(), dxdt.end(), 0.0);
  double weight = 0.0;  // probability one interaction is non-null
  const std::span<const DriftTerm> terms = drift_.terms();
  const std::span<const std::uint32_t> rows = drift_.row_offsets();
  for (std::size_t u = 0; u < U; ++u) {
    for (std::size_t v = 0; v < U; ++v) {
      const double r = rates_[u * U + v];
      if (r <= 0.0) continue;
      const double* xu = x.data() + u * m;
      const double* xv = x.data() + v * m;
      double* du = dxdt.data() + u * m;
      double* dv = dxdt.data() + v * m;
      // One initiator row at a time: its loss accumulates in a register and
      // lands in du[a] once, so consecutive terms do not wait on each
      // other's store to du[a]. A row whose initiator holds no mass
      // contributes nothing and is skipped whole.
      for (std::size_t a = 0; a < m; ++a) {
        const double ra = r * xu[a];
        if (ra == 0.0) continue;
        double row = 0.0;
        for (std::uint32_t t = rows[a]; t < rows[a + 1]; ++t) {
          const DriftTerm& term = terms[t];
          const double w = ra * xv[term.b];
          row += w;
          dv[term.b] -= w;
          du[term.a2] += w;
          dv[term.b2] += w;
        }
        du[a] -= row;
        weight += row;
      }
    }
  }
  // dxdt currently holds expected count deltas per interaction; interactions
  // arrive at rate n per unit chemical time, and urn u's fractions divide by
  // its own size: d x^u / dt = (n / n_u) * dc_u.
  for (std::size_t u = 0; u < U; ++u) {
    double* du = dxdt.data() + u * m;
    for (std::size_t s = 0; s < m; ++s) du[s] *= scale_[u];
  }
  return weight;
}

void FluidEngine::eval_drift(std::span<const double> x,
                             std::span<double> dxdt) const {
  (void)drift_and_rate(x, dxdt);
}

/// Integration state of one run.
struct FluidEngine::Sim {
  std::size_t U = 1;
  std::size_t m = 0;
  double n = 0.0;                   // total population
  std::vector<double> urn_n;        // per-urn sizes
  std::vector<std::uint64_t> sizes; // same, integer (ProbeContext::urn_sizes)

  std::vector<double> x;        // fractions, U x m
  std::vector<std::uint64_t> c; // counts, U x m (x rounded after a step)

  double t = 0.0;
  double horizon = 0.0;
  double drift_tol = 0.0;
  double changes = 0.0;  // expected state changes
  bool silent = false;
  bool budget = false;

  obs::Recorder* recorder = nullptr;
  trace::TraceBuffer* trace = nullptr;  // run thread's span buffer (or null)
  std::vector<std::uint64_t> aggregate;               // full num_states
  std::vector<std::vector<std::uint64_t>> full_urns;  // U > 1 only
  std::vector<std::span<const std::uint64_t>> urn_spans;

  // Telemetry scratch, flushed into EngineOptions::metrics by run_counts.
  std::uint64_t m_ode_accepted = 0;  // BS3(2) steps accepted
  std::uint64_t m_ode_rejected = 0;  // steps whose error estimate failed

  std::uint64_t interactions_at(double time, std::uint64_t cap) const {
    const double v = std::min(time, horizon) * n;
    if (v >= static_cast<double>(cap)) return cap;
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
  }

  /// Rounds fractions to integer counts, preserving each urn's total.
  void round_counts() {
    for (std::size_t u = 0; u < U; ++u) {
      const double nu = urn_n[u];
      std::uint64_t sum = 0;
      std::size_t argmax = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const double v = x[u * m + i] * nu;
        const std::uint64_t count =
            v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
        c[u * m + i] = count;
        sum += count;
        if (count > c[u * m + argmax]) argmax = i;
      }
      const std::int64_t diff = static_cast<std::int64_t>(sizes[u]) -
                                static_cast<std::int64_t>(sum);
      const std::int64_t adjusted =
          static_cast<std::int64_t>(c[u * m + argmax]) + diff;
      c[u * m + argmax] =
          adjusted > 0 ? static_cast<std::uint64_t>(adjusted) : 0;
    }
  }

  /// Publishes compact counts into the full-StateId arrays the probe
  /// pipeline reads. Only closure entries are ever nonzero, so no re-zeroing
  /// of the (possibly much larger) full vectors is needed.
  void publish_counts(std::span<const pp::StateId> species) {
    for (std::size_t i = 0; i < m; ++i) aggregate[species[i]] = 0;
    for (std::size_t u = 0; u < U; ++u) {
      for (std::size_t i = 0; i < m; ++i) {
        aggregate[species[i]] += c[u * m + i];
        if (!full_urns.empty()) full_urns[u][species[i]] = c[u * m + i];
      }
    }
  }
};

namespace {

/// Exact silence of integer compact counts: no positive-rate block holds an
/// ordered pair with a non-null transition.
bool counts_silent(const std::vector<std::uint64_t>& c, std::size_t U,
                   const std::vector<double>& rates, const DriftTable& drift) {
  const std::size_t m = drift.num_species();
  const std::span<const DriftTerm> terms = drift.terms();
  const std::span<const std::uint32_t> rows = drift.row_offsets();
  for (std::size_t u = 0; u < U; ++u) {
    for (std::size_t v = 0; v < U; ++v) {
      if (rates[u * U + v] <= 0.0) continue;
      for (std::size_t a = 0; a < m; ++a) {
        const std::uint64_t ca = c[u * m + a];
        if (ca == 0) continue;
        for (std::uint32_t t = rows[a]; t < rows[a + 1]; ++t) {
          const std::size_t b = terms[t].b;
          if (c[v * m + b] == 0) continue;
          if (u == v && a == b && ca < 2) continue;
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

void FluidEngine::run_ode(Sim& sim) const {
  const std::size_t dim = sim.U * sim.m;
  std::vector<double> k1(dim), k2(dim), k3(dim), k4(dim), xtmp(dim), xn(dim);
  double w1 = drift_and_rate(sim.x, k1);
  // Initial step: small relative to the drift scale; the controller settles
  // within a few steps either way.
  double h = std::min(sim.horizon, 0.25 / (1.0 + inf_norm(k1)));
  std::uint64_t steps = 0;

  while (sim.t < sim.horizon) {
    if (++steps > options_.max_steps) {
      sim.budget = true;
      return;
    }
    const double step = std::min(h, sim.horizon - sim.t);

    // Bogacki–Shampine 3(2), FSAL: k1 is f at the current point.
    for (std::size_t i = 0; i < dim; ++i) {
      xtmp[i] = sim.x[i] + step * 0.5 * k1[i];
    }
    (void)drift_and_rate(xtmp, k2);
    for (std::size_t i = 0; i < dim; ++i) {
      xtmp[i] = sim.x[i] + step * 0.75 * k2[i];
    }
    (void)drift_and_rate(xtmp, k3);
    for (std::size_t i = 0; i < dim; ++i) {
      const double v = sim.x[i] + step * (2.0 / 9.0 * k1[i] +
                                          1.0 / 3.0 * k2[i] +
                                          4.0 / 9.0 * k3[i]);
      // Fractions: clamp the tiny negative excursions of decaying species
      // before they feed back into quadratic rates.
      xn[i] = v > 0.0 ? v : 0.0;
    }
    const double w4 = drift_and_rate(xn, k4);

    double err2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double e = step * (-5.0 / 72.0 * k1[i] + 1.0 / 12.0 * k2[i] +
                               1.0 / 9.0 * k3[i] - 1.0 / 8.0 * k4[i]);
      const double scale =
          options_.atol +
          options_.rtol * std::max(std::fabs(sim.x[i]), std::fabs(xn[i]));
      const double q = e / scale;
      err2 += q * q;
    }
    const double errnorm = std::sqrt(err2 / static_cast<double>(dim));

    if (errnorm <= 1.0) {
      sim.m_ode_accepted += 1;
      if (sim.trace != nullptr && (sim.m_ode_accepted <= kTraceFullSteps ||
                                   sim.m_ode_accepted % kTraceStride == 0)) {
        sim.trace->instant("fluid.ode_accepted", "step", sim.m_ode_accepted);
      }
      // Accept. State changes accrue at rate n * P(non-null interaction);
      // trapezoid over the step using the already-evaluated endpoints.
      sim.changes += step * sim.n * 0.5 * (w1 + w4);
      sim.x.swap(xn);
      k1.swap(k4);
      w1 = w4;
      sim.t += step;

      bool projected = false;
      if (sim.recorder != nullptr) {
        sim.round_counts();
        sim.publish_counts(drift_.species());
        projected = true;
        sim.recorder->advance(
            sim.interactions_at(sim.t, engine_.max_interactions), sim.t,
            sim.aggregate, obs::kUnknownActive, drift_.species(),
            sim.urn_spans);
      }
      if (engine_.stop_when_silent && inf_norm(k1) < sim.drift_tol) {
        if (!projected) sim.round_counts();
        if (counts_silent(sim.c, sim.U, rates_, drift_)) {
          sim.silent = true;
          return;
        }
      }
    } else {
      sim.m_ode_rejected += 1;
      if (sim.trace != nullptr) {
        sim.trace->instant("fluid.ode_rejected", "step", sim.m_ode_rejected);
      }
    }

    const double factor =
        errnorm > 0.0 ? 0.9 * std::pow(errnorm, -1.0 / 3.0) : 5.0;
    h = step * std::clamp(factor, 0.2, 5.0);
    if (!(h > sim.horizon * 1e-14)) {
      // The controller collapsed the step (stiff corner of the tolerance
      // settings): report an exhausted budget rather than spinning.
      sim.budget = true;
      return;
    }
  }
}

pp::RunResult FluidEngine::run_counts(
    std::vector<std::vector<std::uint64_t>>& urns,
    obs::Recorder* recorder) const {
  const std::size_t num_states =
      static_cast<std::size_t>(protocol().num_states());
  CIRCLES_CHECK_MSG(urns.size() == num_urns_,
                    "fluid engine: configuration urn count does not match "
                    "the engine's lumping");

  Sim sim;
  sim.U = urns.size();
  sim.m = drift_.num_species();
  sim.recorder = recorder;
  sim.urn_n.resize(sim.U);
  sim.sizes.resize(sim.U);
  sim.c.assign(sim.U * sim.m, 0);
  std::uint64_t n = 0;
  for (std::size_t u = 0; u < sim.U; ++u) {
    CIRCLES_CHECK_MSG(urns[u].size() == num_states,
                      "fluid engine: count vector size does not match the "
                      "protocol's state count");
    std::uint64_t urn_total = 0;
    for (std::size_t s = 0; s < num_states; ++s) {
      const std::uint64_t count = urns[u][s];
      if (count == 0) continue;
      urn_total += count;
      const std::int32_t idx = drift_.index_of(static_cast<pp::StateId>(s));
      if (idx < 0) {
        throw std::invalid_argument(
            "fluid engine: state '" +
            protocol().state_name(static_cast<pp::StateId>(s)) +
            "' holds agents but is outside the protocol's input-state "
            "closure; the mean-field drift table only covers configurations "
            "reachable from inputs");
      }
      sim.c[u * sim.m + static_cast<std::size_t>(idx)] = count;
    }
    CIRCLES_CHECK_MSG(lumping_.sizes.empty() ||
                          urn_total == lumping_.sizes[u],
                      "fluid engine: urn size does not match the lumping");
    sim.urn_n[u] = static_cast<double>(urn_total);
    sim.sizes[u] = urn_total;
    n += urn_total;
  }
  CIRCLES_CHECK_MSG(n >= 2, "fluid runs need at least two agents");
  sim.n = static_cast<double>(n);
  // One span per run; accepted/rejected steps nest as (decimated)
  // instants. Null tracer: every site is a pointer test.
  sim.trace = trace::buffer(engine_.tracer);
  const trace::ScopedSpan run_span(sim.trace, "fluid.run_ode", "n", n);
  sim.horizon = static_cast<double>(engine_.max_interactions) / sim.n;
  sim.drift_tol =
      options_.drift_tol > 0.0 ? options_.drift_tol : 0.5 / sim.n;

  sim.aggregate.assign(num_states, 0);
  if (sim.U > 1) {
    sim.full_urns.assign(sim.U, std::vector<std::uint64_t>(num_states, 0));
    sim.urn_spans.reserve(sim.U);
    for (const auto& full : sim.full_urns) sim.urn_spans.emplace_back(full);
  }
  sim.publish_counts(drift_.species());

  if (recorder != nullptr) {
    obs::ProbeContext ctx;
    ctx.protocol = &protocol();
    ctx.kernel = kernel_.get();
    ctx.n = n;
    if (sim.U > 1) ctx.urn_sizes = sim.sizes;
    recorder->begin(ctx, sim.aggregate, obs::kUnknownActive, drift_.species(),
                    sim.urn_spans);
  }

  sim.x.assign(sim.U * sim.m, 0.0);
  for (std::size_t u = 0; u < sim.U; ++u) {
    for (std::size_t i = 0; i < sim.m; ++i) {
      sim.x[u * sim.m + i] =
          static_cast<double>(sim.c[u * sim.m + i]) / sim.urn_n[u];
    }
  }
  run_ode(sim);
  sim.round_counts();
  sim.publish_counts(drift_.species());

  // The final silence verdict always comes from the final configuration
  // (the converged rounding satisfies it; runs under stop_when_silent=false
  // get graded here too).
  sim.silent = counts_silent(sim.c, sim.U, rates_, drift_);

  // Write the final configuration back.
  for (std::size_t u = 0; u < sim.U; ++u) {
    std::fill(urns[u].begin(), urns[u].end(), 0);
    const std::span<const pp::StateId> species = drift_.species();
    for (std::size_t i = 0; i < sim.m; ++i) {
      urns[u][species[i]] = sim.c[u * sim.m + i];
    }
  }

  pp::RunResult result;
  result.interactions = sim.interactions_at(sim.t, engine_.max_interactions);
  const double changes = std::max(0.0, sim.changes);
  result.state_changes =
      changes >= static_cast<double>(result.interactions)
          ? result.interactions
          : static_cast<std::uint64_t>(std::llround(changes));
  result.last_change_step = result.state_changes > 0 ? result.interactions : 0;
  result.silent = sim.silent;
  result.budget_exhausted =
      !sim.silent && (sim.budget || sim.t >= sim.horizon);
  dense::DenseConfig final_config;
  final_config.counts = sim.aggregate;
  result.final_outputs = final_config.output_histogram(protocol());

  if (recorder != nullptr) {
    recorder->finish(result.interactions, sim.t, sim.aggregate,
                     obs::kUnknownActive, drift_.species(), sim.urn_spans);
  }

  if (engine_.metrics != nullptr) {
    auto& m = *engine_.metrics;
    m.counter("fluid.runs").add(1);
    m.counter("fluid.ode_steps_accepted").add(sim.m_ode_accepted);
    m.counter("fluid.ode_steps_rejected").add(sim.m_ode_rejected);
  }
  return result;
}

pp::RunResult FluidEngine::run(dense::DenseConfig& config,
                               std::uint64_t /*seed*/,
                               obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(num_urns_ == 1,
                    "fluid engine built with a multi-urn lumping runs "
                    "UrnConfigs, not single count vectors");
  std::vector<std::vector<std::uint64_t>> urns;
  urns.push_back(std::move(config.counts));
  const pp::RunResult result = run_counts(urns, recorder);
  config.counts = std::move(urns[0]);
  return result;
}

pp::RunResult FluidEngine::run(dense::UrnConfig& config,
                               std::uint64_t /*seed*/,
                               obs::Recorder* recorder) const {
  return run_counts(config.urns, recorder);
}

}  // namespace circles::fluid
