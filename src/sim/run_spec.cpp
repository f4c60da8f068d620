#include "sim/run_spec.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "pp/schedulers/clustered.hpp"

namespace circles::sim {

EngineKind engine_kind_from_string(const std::string& text) {
  if (text == "agent" || text == "agent_array" || text == "array") {
    return EngineKind::kAgentArray;
  }
  if (text == "dense") return EngineKind::kDense;
  if (text == "dense_batched" || text == "batched") {
    return EngineKind::kDenseBatched;
  }
  if (text == "fluid") return EngineKind::kFluid;
  if (text == "auto") return EngineKind::kAuto;
  throw std::invalid_argument("unknown backend '" + text +
                              "' (expected agent, dense, dense_batched, "
                              "fluid, auto)");
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAgentArray:
      return "agent";
    case EngineKind::kDense:
      return "dense";
    case EngineKind::kDenseBatched:
      return "dense_batched";
    case EngineKind::kFluid:
      return "fluid";
    case EngineKind::kAuto:
      return "auto";
  }
  return "?";
}

WorkloadSpec WorkloadSpec::unique_winner() { return {}; }

WorkloadSpec WorkloadSpec::random_counts() {
  WorkloadSpec spec;
  spec.family = Family::kRandomCounts;
  return spec;
}

WorkloadSpec WorkloadSpec::exact_tie(std::uint32_t tied_colors) {
  WorkloadSpec spec;
  spec.family = Family::kExactTie;
  spec.tied_colors = tied_colors;
  return spec;
}

WorkloadSpec WorkloadSpec::close_margin() {
  WorkloadSpec spec;
  spec.family = Family::kCloseMargin;
  return spec;
}

WorkloadSpec WorkloadSpec::dominant(double share) {
  // Written so NaN fails too.
  if (!(share > 0.0 && share <= 1.0)) {
    throw std::invalid_argument("dominant share must be in (0, 1]");
  }
  WorkloadSpec spec;
  spec.family = Family::kDominant;
  spec.share = share;
  return spec;
}

WorkloadSpec WorkloadSpec::zipf(double exponent) {
  if (!std::isfinite(exponent)) {
    throw std::invalid_argument("zipf exponent must be finite");
  }
  WorkloadSpec spec;
  spec.family = Family::kZipf;
  spec.exponent = exponent;
  return spec;
}

WorkloadSpec WorkloadSpec::explicit_counts(std::vector<std::uint64_t> counts) {
  WorkloadSpec spec;
  spec.family = Family::kExplicit;
  spec.counts = std::move(counts);
  return spec;
}

analysis::Workload WorkloadSpec::materialize(util::Rng& rng, std::uint64_t n,
                                             std::uint32_t k) const {
  switch (family) {
    case Family::kUniqueWinner:
      return analysis::random_unique_winner(rng, n, k);
    case Family::kRandomCounts:
      return analysis::random_counts(rng, n, k);
    case Family::kExactTie:
      return analysis::exact_tie(rng, n, k, tied_colors);
    case Family::kCloseMargin:
      return analysis::close_margin(rng, n, k);
    case Family::kDominant:
      return analysis::dominant(rng, n, k, share);
    case Family::kZipf:
      return analysis::zipf(rng, n, k, exponent);
    case Family::kExplicit: {
      analysis::Workload workload;
      workload.counts = counts;
      return workload;
    }
  }
  throw std::logic_error("unknown workload family");
}

std::string WorkloadSpec::to_string() const {
  switch (family) {
    case Family::kUniqueWinner:
      return "unique";
    case Family::kRandomCounts:
      return "random";
    case Family::kExactTie:
      return "tie:" + std::to_string(tied_colors);
    case Family::kCloseMargin:
      return "margin1";
    case Family::kDominant: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "dominant:%g", share);
      return buffer;
    }
    case Family::kZipf: {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "zipf:%g", exponent);
      return buffer;
    }
    case Family::kExplicit: {
      std::string out = "counts:";
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(counts[i]);
      }
      return out;
    }
  }
  return "?";
}

WorkloadSpec WorkloadSpec::parse(const std::string& text) {
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  // std::stoul silently wraps negative inputs; reject them up front so
  // "tie:-1" fails here instead of deep inside a worker thread.
  const bool negative_arg = !arg.empty() && arg[0] == '-';
  try {
    if (head == "unique") return unique_winner();
    if (head == "random") return random_counts();
    if (head == "margin1") return close_margin();
    if (head == "tie" && !negative_arg) {
      const std::uint32_t tied =
          arg.empty() ? 2u : static_cast<std::uint32_t>(std::stoul(arg));
      if (tied < 2) throw std::invalid_argument("tie needs >= 2 colors");
      return exact_tie(tied);
    }
    if (head == "dominant") return dominant(std::stod(arg));
    if (head == "zipf") return zipf(std::stod(arg));
    if (head == "counts" && arg.find('-') == std::string::npos) {
      std::vector<std::uint64_t> counts;
      std::size_t pos = 0;
      while (pos < arg.size()) {
        std::size_t used = 0;
        counts.push_back(std::stoull(arg.substr(pos), &used));
        pos += used;
        if (pos < arg.size() && arg[pos] == ',') ++pos;
      }
      if (counts.empty()) throw std::invalid_argument("empty counts");
      return explicit_counts(std::move(counts));
    }
  } catch (const std::invalid_argument&) {
    // fall through to the unified error below
  } catch (const std::out_of_range&) {
  }
  throw std::invalid_argument(
      "invalid workload spec '" + text +
      "' (expected unique, random, tie:<t>, margin1, dominant:<share in "
      "(0,1]>, zipf:<finite s>, counts:<c0,c1,...>)");
}

std::uint64_t RunSpec::effective_n() const {
  if (workload.family == WorkloadSpec::Family::kExplicit) {
    return std::accumulate(workload.counts.begin(), workload.counts.end(),
                           std::uint64_t{0});
  }
  return n;
}

pp::ClusteredOptions RunSpec::clustered_options() const {
  pp::ClusteredOptions options;
  options.sizes = cluster_sizes;
  options.num_clusters = clusters != 0 ? clusters : 2;
  options.bridge_probability = bridge;
  return options;
}

std::string RunSpec::to_string() const {
  std::string out = protocol + "(k=" + std::to_string(params.k) + ")";
  out += " n=" + std::to_string(effective_n());
  out += " workload=" + workload.to_string();
  out += " scheduler=" + pp::to_string(scheduler);
  if (!cluster_sizes.empty()) {
    // A comma marks explicit sizes; a single explicit size keeps a trailing
    // comma so parse() cannot mistake it for a cluster *count*.
    out += " clusters=";
    for (std::size_t i = 0; i < cluster_sizes.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(cluster_sizes[i]);
    }
    if (cluster_sizes.size() == 1) out += ",";
  } else if (clusters != 0) {
    out += " clusters=" + std::to_string(clusters);
  }
  if (bridge != 0.01) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " bridge=%g", bridge);
    out += buffer;
  }
  out += " trials=" + std::to_string(trials);
  if (backend != EngineKind::kAgentArray) {
    out += " backend=" + sim::to_string(backend);
  }
  if (run_threads != 0) out += " threads=" + std::to_string(run_threads);
  if (rtol != 0.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " rtol=%g", rtol);
    out += buffer;
  }
  if (atol != 0.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), " atol=%g", atol);
    out += buffer;
  }
  if (engine.max_interactions != pp::EngineOptions{}.max_interactions) {
    out += " budget=" + std::to_string(engine.max_interactions);
  }
  if (!use_kernel) out += " kernel=off";
  for (const obs::ProbeSpec& probe : probes) {
    out += " trace=" + probe.to_string();
  }
  if (!metrics_out.empty()) out += " metrics=" + metrics_out;
  if (!spans_out.empty()) out += " spans=" + spans_out;
  if (!label.empty()) out += " [" + label + "]";
  return out;
}

RunSpec RunSpec::parse(const std::string& text) {
  RunSpec spec;
  std::string body = text;

  // Trailing " [label]" (labels may contain spaces, never brackets).
  if (!body.empty() && body.back() == ']') {
    const auto open = body.rfind(" [");
    if (open == std::string::npos) {
      throw std::invalid_argument("RunSpec parse: unmatched ']' in '" + text +
                                  "'");
    }
    spec.label = body.substr(open + 2, body.size() - open - 3);
    body = body.substr(0, open);
  }

  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const auto space = body.find(' ', pos);
    const auto end = space == std::string::npos ? body.size() : space;
    if (end > pos) tokens.push_back(body.substr(pos, end - pos));
    pos = end + 1;
  }
  if (tokens.empty()) {
    throw std::invalid_argument("RunSpec parse: empty spec '" + text + "'");
  }

  // std::stoull silently wraps negative inputs and stops at the first
  // non-digit (same pitfalls WorkloadSpec::parse guards); reject both.
  const auto parse_unsigned = [&text](const std::string& value) {
    std::size_t used = 0;
    std::uint64_t parsed = 0;
    if (!value.empty() && value[0] != '-') {
      parsed = std::stoull(value, &used);
    }
    if (used != value.size() || value.empty()) {
      throw std::invalid_argument("RunSpec parse: expected a non-negative "
                                  "number in '" + text + "'");
    }
    return parsed;
  };

  // Leading "protocol(k=K)".
  const std::string& head = tokens.front();
  const auto paren = head.find("(k=");
  if (paren == std::string::npos || head.back() != ')') {
    throw std::invalid_argument("RunSpec parse: expected 'protocol(k=K)', got '" +
                                head + "'");
  }
  try {
    spec.protocol = head.substr(0, paren);
    spec.params.k = static_cast<std::uint32_t>(parse_unsigned(
        head.substr(paren + 3, head.size() - paren - 4)));

    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("RunSpec parse: expected key=value, got '" +
                                    tokens[i] + "'");
      }
      const std::string key = tokens[i].substr(0, eq);
      const std::string value = tokens[i].substr(eq + 1);
      if (key == "n") {
        spec.n = parse_unsigned(value);
      } else if (key == "workload") {
        spec.workload = WorkloadSpec::parse(value);
      } else if (key == "scheduler") {
        spec.scheduler = pp::scheduler_kind_from_string(value);
      } else if (key == "clusters") {
        if (value.find(',') != std::string::npos) {
          spec.cluster_sizes.clear();
          std::size_t vpos = 0;
          while (vpos < value.size()) {
            const auto comma = value.find(',', vpos);
            const auto vend = comma == std::string::npos ? value.size() : comma;
            if (vend > vpos) {
              spec.cluster_sizes.push_back(
                  parse_unsigned(value.substr(vpos, vend - vpos)));
            }
            vpos = vend + 1;
          }
          if (spec.cluster_sizes.empty()) {
            throw std::invalid_argument(
                "RunSpec parse: clusters needs at least one size in '" +
                text + "'");
          }
        } else {
          spec.clusters = static_cast<std::uint32_t>(parse_unsigned(value));
          if (spec.clusters == 0) {
            throw std::invalid_argument(
                "RunSpec parse: clusters must be >= 1 in '" + text + "'");
          }
        }
      } else if (key == "bridge") {
        std::size_t used = 0;
        spec.bridge = std::stod(value, &used);
        if (used != value.size() || !(spec.bridge > 0.0) ||
            spec.bridge > 1.0) {
          throw std::invalid_argument(
              "RunSpec parse: bridge must be a probability in (0, 1], got '" +
              value + "'");
        }
      } else if (key == "trials") {
        spec.trials = static_cast<std::uint32_t>(parse_unsigned(value));
      } else if (key == "backend") {
        spec.backend = engine_kind_from_string(value);
      } else if (key == "threads") {
        spec.run_threads = static_cast<std::uint32_t>(parse_unsigned(value));
      } else if (key == "rtol" || key == "atol") {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size() || !(parsed > 0.0)) {
          throw std::invalid_argument("RunSpec parse: " + key +
                                      " must be a positive number, got '" +
                                      value + "'");
        }
        (key == "rtol" ? spec.rtol : spec.atol) = parsed;
      } else if (key == "kernel") {
        if (value != "on" && value != "off") {
          throw std::invalid_argument(
              "RunSpec parse: kernel must be 'on' or 'off', got '" + value +
              "'");
        }
        spec.use_kernel = value == "on";
      } else if (key == "budget") {
        spec.engine.max_interactions = parse_unsigned(value);
        if (spec.engine.max_interactions == 0) {
          throw std::invalid_argument(
              "RunSpec parse: budget must be >= 1 interaction in '" + text +
              "'");
        }
      } else if (key == "trace") {
        try {
          spec.probes.push_back(obs::ProbeSpec::parse(value));
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument(
              std::string(e.what()) +
              " (trace= attaches obs count-trajectory probes, e.g. "
              "trace=energy@log:256; for Chrome-trace span timelines use "
              "spans=PATH instead)");
        }
      } else if (key == "metrics") {
        if (value.empty()) {
          throw std::invalid_argument(
              "RunSpec parse: metrics= needs a sink path (.jsonl or .csv)");
        }
        spec.metrics_out = value;
      } else if (key == "spans") {
        if (value.empty()) {
          throw std::invalid_argument(
              "RunSpec parse: spans= needs an output path for the "
              "Chrome-trace span timeline JSON (spans= records span "
              "timelines; for obs count-trajectory probes use "
              "trace=<kind>@<grid>)");
        }
        spec.spans_out = value;
      } else {
        throw std::invalid_argument("RunSpec parse: unknown field '" + key +
                                    "' in '" + text + "'");
      }
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {
    throw std::invalid_argument("RunSpec parse: malformed number in '" + text +
                                "'");
  }
  return spec;
}

std::optional<pp::UrnLumping> scheduler_lumping(const RunSpec& spec,
                                                const pp::Protocol* protocol) {
  if (spec.scheduler_factory) return std::nullopt;
  const std::uint64_t n = spec.effective_n();
  if (n < 2) return std::nullopt;
  // Probe instances of the lumpable kinds are O(U^2) to build; the other
  // kinds answer nullopt but can be expensive to construct (a shuffled
  // sweep materializes n(n-1) pairs — its header caps comfort at n ~ 1024),
  // so the hook is only consulted on instances that are cheap to make.
  const bool cheap = spec.scheduler == pp::SchedulerKind::kUniformRandom ||
                     spec.scheduler == pp::SchedulerKind::kClustered;
  if (!cheap && (n > 1024 || (protocol == nullptr &&
                              spec.scheduler ==
                                  pp::SchedulerKind::kAdversarialDelay))) {
    return std::nullopt;
  }
  const pp::ClusteredOptions clustered = spec.clustered_options();
  if (n <= std::numeric_limits<std::uint32_t>::max()) {
    const auto probe =
        pp::make_scheduler(spec.scheduler, static_cast<std::uint32_t>(n),
                           /*seed=*/0, protocol, &clustered);
    return probe->lumping();
  }
  // Beyond the agent-id range no probe instance can exist; the lumpable
  // kinds' contracts are closed-form, everything else is agent-bound.
  if (spec.scheduler == pp::SchedulerKind::kUniformRandom) {
    return pp::UrnLumping::uniform(n);
  }
  if (spec.scheduler == pp::SchedulerKind::kClustered) {
    pp::UrnLumping lumping = pp::clustered_lumping(n, clustered);
    lumping.validate();
    return lumping;
  }
  return std::nullopt;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (0x9e3779b97f4a7c15ULL * (b + 1));
  const std::uint64_t first = util::splitmix64(state);
  return first ^ util::splitmix64(state);
}

std::uint64_t spec_seed(const RunSpec& spec, std::uint64_t base_seed,
                        std::size_t spec_index) {
  if (spec.seed.has_value()) return *spec.seed;
  return mix_seed(base_seed, static_cast<std::uint64_t>(spec_index));
}

std::uint64_t trial_seed(std::uint64_t spec_seed, std::uint32_t trial_index) {
  return mix_seed(spec_seed, trial_index);
}

}  // namespace circles::sim
