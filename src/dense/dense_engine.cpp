#include "dense/dense_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "dense/sampling.hpp"
#include "metrics/metrics.hpp"
#include "obs/recorder.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace circles::dense {

namespace {

/// Sentinel "no state excluded" for the categorical walks below.
constexpr std::uint64_t kNoExclude = ~std::uint64_t{0};

/// Span decimation: the first kTraceFullEpochs epochs (and fast-forward
/// jumps) get full begin/end spans — enough to see the run's structure in
/// a timeline — after which epochs collapse to one instant every
/// kTraceStride so a billion-interaction run stays under the <2%
/// tracing-overhead budget and inside the ring window.
constexpr std::uint64_t kTraceFullEpochs = 512;
constexpr std::uint64_t kTraceStride = 256;

/// Epoch sampler switch, decided before the epoch from its expected length
/// E[L]: the epoch is sampled interaction by interaction by agent identity
/// when 2 E[L] <= kPerAgentSwitch * sum_u w_u^2 (w_u = urn u's present
/// states), and by multivariate hypergeometric deals and contingency pairing
/// otherwise. The per-agent path costs O(L) plus an O(w_u) renumbering of
/// each urn whose counts moved; the contingency pairing costs O(P_i * P_r)
/// per block. Both are exact samplers of the same epoch, so the constant
/// only moves time. Calibrated on margin-1 and 8-urn clustered circles cells
/// (EXPERIMENTS.md).
constexpr double kPerAgentSwitch = 2.0;

/// Where the most recent state change happened. Single changes and
/// per-agent epochs know its step; a contingency epoch knows only how many
/// of each block's slots changed state, so the step inside it is sampled
/// once, at the end of the run, for the epoch that turned out to contain the
/// final change. A single urn is block 0 with an empty block sequence.
struct LastChangeMark {
  bool valid = false;
  bool exact = false;       // index is the step of the change
  std::uint64_t index = 0;  // else: the epoch's start step
  std::vector<std::uint32_t> seq;              // block id per slot, multi-urn
  std::vector<std::uint64_t> block_len;        // per-block slot counts
  std::vector<std::uint64_t> block_productive; // per-block state changes
};

}  // namespace

DenseEngine::DenseEngine(const pp::Protocol& protocol,
                         pp::EngineOptions options, DenseMode mode,
                         pp::UrnLumping lumping)
    : DenseEngine(std::make_shared<const kernel::CompiledProtocol>(protocol),
                  options, mode, std::move(lumping)) {}

DenseEngine::DenseEngine(std::shared_ptr<const kernel::CompiledProtocol> kernel,
                         pp::EngineOptions options, DenseMode mode,
                         pp::UrnLumping lumping)
    : kernel_(std::move(kernel)),
      options_(options),
      mode_(mode),
      num_states_(kernel_->num_states()),
      lumping_(std::move(lumping)) {
  CIRCLES_CHECK_MSG(num_states_ >= 1, "protocol needs at least one state");
  if (!lumping_.sizes.empty()) lumping_.validate();
}

/// Run-local state shared by both modes. The per-urn count/presence/used
/// fields live in a few contiguous (urn, state)-indexed arena slabs so the
/// epoch hot loops walk adjacent memory; the caller's count storage is
/// copied in once here and copied back by sync_out() when the run ends.
struct DenseEngine::Sim {
  /// One urn (cluster): a count-vector view plus its presence bookkeeping.
  /// `present` contains every state with count > 0, possibly plus stale
  /// zero-count entries; compact() drops the latter. The categorical walks
  /// skip zero counts naturally.
  struct Urn {
    std::span<std::uint64_t> counts;  // arena slab row, num_states wide
    std::span<std::uint64_t> out;     // the caller's storage (copy-back)
    std::uint64_t n = 0;  // fixed urn size (counts always sum to this)
    std::vector<pp::StateId> present;
    std::span<std::uint8_t> in_present;  // arena slab row
    // Set by add_count when a count reaches zero: only then can `present`
    // hold a stale entry, so compact() of an unflagged urn is skipped.
    bool has_zero = false;
    // Set by add_count on any count change: the per-agent numbering of the
    // urn's agents (agent_urns) must be rebuilt before its next use.
    bool index_stale = true;
    // Epoch scratch: post-transition state histogram of this epoch's
    // participants, reset via `touched`.
    std::span<std::uint64_t> used;  // arena slab row
    std::vector<pp::StateId> touched;
    std::uint64_t used_total = 0;
  };

  const DenseEngine& engine;
  util::Rng& rng;
  obs::Recorder* recorder;  // null: no probes
  util::Arena arena;  // backs every flat slab below; append-only, run-local
  std::vector<Urn> urns;
  std::size_t num_urns = 0;
  std::uint64_t n = 0;  // total population

  // Block structure: row-major num_urns x num_urns. rates sums to 1;
  // pair_capacity[b] is the number of ordered agent pairs block b can
  // schedule (n_u * n_v off-diagonal, n_u * (n_u - 1) on it). block_draw
  // draws a block by rate, for every caller.
  std::vector<double> rates;
  std::vector<double> pair_capacity;
  const BlockDraw block_draw;

  // Number of ordered agent pairs per block whose interaction would change
  // a state; live_active sums the blocks with positive rate. live_active is
  // zero iff the configuration is silent under the lumped scheduler (the
  // exact certificate). With A the kernel's non-null indicator,
  //   active[(u, v)] = sum_s c_u[s] * resp_mass[s, v] - [u == v] sum_s
  //                    A[s][s] c_u[s],
  // kept exact by add_count() one count delta at a time (uint64 arithmetic
  // wraps mod 2^64, and the true values fit).
  std::span<std::uint64_t> active;
  std::uint64_t live_active = 0;
  // Per-(state, urn) partner masses, state-major (index s * num_urns + u):
  // resp_mass[s, v] = sum_{t : A[s][t]} c_v[t] is the responder mass urn v
  // offers initiator state s; init_mass[t, u] = sum_{s : A[s][t]} c_u[s] is
  // the initiator mass urn u offers responder state t. Live for reached
  // states only.
  std::span<std::uint64_t> resp_mass;
  std::span<std::uint64_t> init_mass;
  // The states that have held agents in some urn this run, and their
  // non-null partners among them: responders[s] lists t with A[s][t],
  // initiators[t] lists s with A[s][t]. A state joins in reach(), so the
  // lists cost nonnull lookups over the reached set only, whatever the
  // kernel's table kind.
  std::vector<pp::StateId> reached;
  std::span<std::uint8_t> in_reached;
  std::span<std::uint8_t> self_active;  // A[s][s], for reached s
  std::vector<std::vector<pp::StateId>> responders;
  std::vector<std::vector<pp::StateId>> initiators;
  // Epoch count deltas, staged per (urn, state) and applied once by
  // flush_staged() (two's complement; `staged_list` may repeat an index).
  std::span<std::uint64_t> staged;
  std::vector<std::size_t> staged_list;

  // This run's span buffer (the run thread's; null = tracing off).
  trace::TraceBuffer* trace = nullptr;

  // Telemetry scratch: plain locals bumped on the hot path, flushed once
  // into EngineOptions::metrics by run_impl.
  std::uint64_t m_epochs = 0;       // batched epochs executed
  std::uint64_t m_ff_jumps = 0;     // sparse-activity fast-forward jumps
  std::uint64_t m_ff_skipped = 0;   // null interactions skipped by them
  std::uint64_t m_mvhg_draws = 0;   // multivariate hypergeometric deals
  std::uint64_t m_agent_epochs = 0; // epochs sampled agent by agent

  // Recorder views: single-urn runs show urn 0; multi-urn runs sum the urns
  // into `aggregate` when a probe is due (sum_aggregate).
  std::vector<std::uint64_t> aggregate;
  std::vector<std::uint64_t> urn_sizes;
  std::vector<std::span<const std::uint64_t>> urn_spans;

  // Per-agent epoch scratch (agent_epoch): per urn, its agents numbered
  // over the present list and the indices the epoch has taken. Sized by
  // run_batched before the first per-agent epoch.
  std::vector<AgentUrn> agent_urns;

  Sim(const DenseEngine& engine, std::span<std::span<std::uint64_t>> counts,
      std::span<const double> rate_matrix, util::Rng& rng,
      obs::Recorder* recorder)
      : engine(engine),
        rng(rng),
        recorder(recorder),
        rates(rate_matrix.begin(), rate_matrix.end()),
        block_draw(rate_matrix) {
    num_urns = counts.size();
    const std::size_t states = engine.num_states_;
    const std::size_t num_blocks = num_urns * num_urns;

    const std::span<std::uint64_t> counts_flat =
        arena.alloc<std::uint64_t>(num_urns * states);
    const std::span<std::uint8_t> in_present_flat =
        arena.alloc<std::uint8_t>(num_urns * states);
    const std::span<std::uint64_t> used_flat =
        arena.alloc<std::uint64_t>(num_urns * states);
    active = arena.alloc<std::uint64_t>(num_blocks);
    resp_mass = arena.alloc<std::uint64_t>(states * num_urns);
    init_mass = arena.alloc<std::uint64_t>(states * num_urns);
    in_reached = arena.alloc<std::uint8_t>(states);
    self_active = arena.alloc<std::uint8_t>(states);
    responders.resize(states);
    initiators.resize(states);
    staged = arena.alloc<std::uint64_t>(num_urns * states);

    urns.resize(num_urns);
    for (std::size_t u = 0; u < num_urns; ++u) {
      Urn& urn = urns[u];
      CIRCLES_DCHECK(counts[u].size() == states);
      urn.out = counts[u];
      urn.counts = counts_flat.subspan(u * states, states);
      urn.in_present = in_present_flat.subspan(u * states, states);
      urn.used = used_flat.subspan(u * states, states);
    }
    // The working counts start at zero and every initial count enters as a
    // delta, so the active-pair bookkeeping has exactly one update path.
    for (std::size_t u = 0; u < num_urns; ++u) {
      Urn& urn = urns[u];
      for (std::size_t s = 0; s < states; ++s) {
        const std::uint64_t c = urn.out[s];
        if (c == 0) continue;
        urn.n += c;
        note_state(urn, static_cast<pp::StateId>(s));
        add_count(u, static_cast<pp::StateId>(s), c);
      }
      n += urn.n;
      urn_sizes.push_back(urn.n);
      urn_spans.push_back(urn.counts);
    }
    pair_capacity.resize(num_urns * num_urns);
    for (std::size_t u = 0; u < num_urns; ++u) {
      for (std::size_t v = 0; v < num_urns; ++v) {
        const double nu = static_cast<double>(urns[u].n);
        const double nv = static_cast<double>(urns[v].n);
        pair_capacity[u * num_urns + v] = u == v ? nu * (nv - 1.0) : nu * nv;
      }
    }
    check_active();
  }

  /// Copies the working counts back into the caller's storage. run_impl
  /// calls this once, after the run loop; everything in between mutates
  /// only the arena slabs.
  void sync_out() {
    for (Urn& urn : urns) {
      std::copy(urn.counts.begin(), urn.counts.end(), urn.out.begin());
    }
  }

  void note_state(Urn& urn, pp::StateId s) {
    if (!urn.in_present[s]) {
      urn.in_present[s] = 1;
      urn.present.push_back(s);
    }
  }

  void compact(Urn& urn) {
    if (!urn.has_zero) return;
    urn.has_zero = false;
    std::size_t w = 0;
    for (const pp::StateId s : urn.present) {
      if (urn.counts[s] > 0) {
        urn.present[w++] = s;
      } else {
        urn.in_present[s] = 0;
      }
    }
    urn.present.resize(w);
  }

  /// Adds active-pair mass d to block b (and to live_active if b is live).
  void bump(std::size_t b, std::uint64_t d) {
    active[b] += d;
    if (rates[b] > 0.0) live_active += d;
  }

  /// Admits state x to the reached set: links it into the partner lists
  /// and fills its masses. x holds no agents in any urn yet, so no other
  /// state's mass moves.
  void reach(pp::StateId x) {
    in_reached[x] = 1;
    self_active[x] = engine.nonnull(x, x) ? 1 : 0;
    reached.push_back(x);
    for (const pp::StateId p : reached) {
      if (engine.nonnull(x, p)) {
        responders[x].push_back(p);
        if (p != x) initiators[p].push_back(x);
      }
      if (engine.nonnull(p, x)) {
        initiators[x].push_back(p);
        if (p != x) responders[p].push_back(x);
      }
    }
    for (std::size_t v = 0; v < num_urns; ++v) {
      std::uint64_t r = 0;
      for (const pp::StateId t : responders[x]) r += urns[v].counts[t];
      std::uint64_t q = 0;
      for (const pp::StateId p : initiators[x]) q += urns[v].counts[p];
      resp_mass[x * num_urns + v] = r;
      init_mass[x * num_urns + v] = q;
    }
  }

  /// Moves c_w[x] by delta (two's complement for removals) and every
  /// active-pair count and partner mass with it, in O(U + deg(x)):
  ///   1. blocks (u, w) gain delta * init_mass[x, u] (x as responder);
  ///   2. initiators s of x gain delta responder mass in urn w;
  ///   3. blocks (w, v) gain delta * resp_mass[x, v] (x as initiator; for
  ///      v = w this reads the mass step 2 just updated, which supplies
  ///      the delta^2 term of the diagonal block);
  ///   4. responders t of x gain delta initiator mass in urn w;
  ///   5. the own-agent pair leaves block (w, w) if (x, x) is non-null.
  void add_count(std::size_t w, pp::StateId x, std::uint64_t delta) {
    if (!in_reached[x]) reach(x);
    const std::size_t u_count = num_urns;
    const std::uint64_t* q = init_mass.data() + x * u_count;
    for (std::size_t u = 0; u < u_count; ++u) {
      bump(u * u_count + w, delta * q[u]);
    }
    for (const pp::StateId s : initiators[x]) {
      resp_mass[s * u_count + w] += delta;
    }
    const std::uint64_t* r = resp_mass.data() + x * u_count;
    for (std::size_t v = 0; v < u_count; ++v) {
      bump(w * u_count + v, delta * r[v]);
    }
    for (const pp::StateId t : responders[x]) {
      init_mass[t * u_count + w] += delta;
    }
    if (self_active[x]) bump(w * u_count + w, 0 - delta);
    Urn& urn = urns[w];
    urn.counts[x] += delta;
    if (urn.counts[x] == 0) urn.has_zero = true;
    urn.index_stale = true;
  }

  /// Stages an epoch count delta; flush_staged() applies the net per
  /// (urn, state), so a state that many groups touch costs one update.
  void stage(std::size_t u, pp::StateId x, std::uint64_t delta) {
    const std::size_t i = u * engine.num_states_ + x;
    if (staged[i] == 0) staged_list.push_back(i);
    staged[i] += delta;
  }

  void flush_staged() {
    const std::size_t states = engine.num_states_;
    for (const std::size_t i : staged_list) {
      const std::uint64_t delta = staged[i];
      if (delta == 0) continue;  // cancelled, or an index listed twice
      staged[i] = 0;
      add_count(i / states, static_cast<pp::StateId>(i % states), delta);
    }
    staged_list.clear();
  }

  /// Debug cross-check: every block's incremental active count equals a
  /// from-scratch recount over the present lists, and live_active their
  /// live sum. Compiled out under NDEBUG.
  void check_active() const {
#ifndef NDEBUG
    std::uint64_t live = 0;
    for (std::size_t b = 0; b < num_urns * num_urns; ++b) {
      const Urn& urn_i = urns[b / num_urns];
      const Urn& urn_r = urns[b % num_urns];
      const bool diag = b / num_urns == b % num_urns;
      std::uint64_t sum = 0;
      for (const pp::StateId s : urn_i.present) {
        for (const pp::StateId t : urn_r.present) {
          if (!engine.nonnull(s, t)) continue;
          sum += urn_i.counts[s] * (urn_r.counts[t] - (diag && s == t ? 1 : 0));
        }
      }
      CIRCLES_DCHECK(active[b] == sum);
      if (rates[b] > 0.0) live += sum;
    }
    CIRCLES_DCHECK(live == live_active);
#endif
  }

  /// Closes a single state change in blocks (bu, bv): compacts the two
  /// urns it touched (every other urn is already compact) and cross-checks
  /// the bookkeeping.
  void settle(std::size_t bu, std::size_t bv) {
    compact(urns[bu]);
    if (bv != bu) compact(urns[bv]);
    check_active();
  }

  /// Closes a productive epoch, which may have touched every urn.
  void settle_all() {
    for (Urn& urn : urns) compact(urn);
    check_active();
  }

  /// Weighted draw of one of `states`, state s weighing weight(s); the state
  /// `exclude` (or kNoExclude) weighs one less — the "responder cannot be
  /// the initiator" correction on diagonal blocks. `total` must equal the
  /// walked mass.
  template <typename Weight>
  pp::StateId pick(std::span<const pp::StateId> states, std::uint64_t total,
                   std::uint64_t exclude, Weight&& weight) {
    std::uint64_t r = rng.uniform_below(total);
    for (const pp::StateId s : states) {
      std::uint64_t c = weight(s);
      if (s == exclude) c -= 1;
      if (r < c) return s;
      r -= c;
    }
    CIRCLES_CHECK_MSG(false, "dense state draw walked past its mass");
    return states.back();
  }

  /// A uniform ordered agent pair of block (bu, bv), by state: the
  /// initiator from urn bu's counts, the responder from urn bv's less the
  /// initiator on a diagonal block.
  void pick_pair(std::size_t bu, std::size_t bv, pp::StateId& si,
                 pp::StateId& sr) {
    const Urn& urn_i = urns[bu];
    const Urn& urn_r = urns[bv];
    const std::uint64_t own = bu == bv ? 1 : 0;
    si = pick(urn_i.present, urn_i.n, kNoExclude,
              [&](pp::StateId s) { return urn_i.counts[s]; });
    sr = pick(urn_r.present, urn_r.n - own, own ? si : kNoExclude,
              [&](pp::StateId s) { return urn_r.counts[s]; });
  }

  /// Applies one non-null transition of the (si, sr) pair in block
  /// (bu, bv); the caller settles the two urns afterwards.
  void apply(std::size_t bu, std::size_t bv, pp::StateId si, pp::StateId sr,
             const pp::Transition& tr) {
    if (tr.initiator != si) {
      add_count(bu, si, 0 - std::uint64_t{1});
      add_count(bu, tr.initiator, 1);
    }
    if (tr.responder != sr) {
      add_count(bv, sr, 0 - std::uint64_t{1});
      add_count(bv, tr.responder, 1);
    }
    note_state(urns[bu], tr.initiator);
    note_state(urns[bv], tr.responder);
  }

  /// Draw the block containing the next state change: weights
  /// rate_b * active_b / capacity_b, whose sum `total` the caller computed.
  std::size_t pick_block_by_activity(double total) {
    double r = rng.uniform01() * total;
    std::size_t last = 0;
    for (std::size_t b = 0; b < rates.size(); ++b) {
      if (rates[b] <= 0.0 || active[b] == 0) continue;
      last = b;
      const double w =
          rates[b] * (static_cast<double>(active[b]) / pair_capacity[b]);
      if (r < w) return b;
      r -= w;
    }
    return last;
  }

  /// Draw the ordered active state pair within block (bu, bv), conditioned
  /// on being active (weights c_u[s] * (c_v[t] - [diag][s == t])). Each
  /// initiator row's mass is c_u[s] * resp_mass[s, v], less the own-agent
  /// pair on diagonal blocks, so whole rows are skipped in O(1) and only
  /// the selected row rewalks its responders — the same pair a full (s, t)
  /// walk lands on, because each row's mass equals its walked prefix.
  void pick_active_pair(std::size_t bu, std::size_t bv, pp::StateId& si,
                        pp::StateId& sr) {
    const Urn& urn_i = urns[bu];
    const Urn& urn_r = urns[bv];
    const bool diag = bu == bv;
    std::uint64_t r = rng.uniform_below(active[bu * num_urns + bv]);
    for (const pp::StateId s : urn_i.present) {
      const std::uint64_t c = urn_i.counts[s];
      std::uint64_t row = c * resp_mass[s * num_urns + bv];
      if (diag && self_active[s]) row -= c;
      if (r >= row) {
        r -= row;
        continue;
      }
      for (const pp::StateId t : urn_r.present) {
        if (!engine.nonnull(s, t)) continue;
        const std::uint64_t w =
            urn_i.counts[s] * (urn_r.counts[t] - (diag && s == t ? 1 : 0));
        if (r < w) {
          si = s;
          sr = t;
          return;
        }
        r -= w;
      }
      break;  // unreachable: the row walk covers exactly the row's mass
    }
    CIRCLES_CHECK_MSG(false, "active-pair draw walked past the count");
  }

  void touch_used(Urn& urn, pp::StateId s, std::uint64_t m) {
    if (urn.used[s] == 0) urn.touched.push_back(s);
    urn.used[s] += m;
    urn.used_total += m;
  }

  void reset_used() {
    for (Urn& urn : urns) {
      for (const pp::StateId s : urn.touched) urn.used[s] = 0;
      urn.touched.clear();
      urn.used_total = 0;
    }
  }

  /// The interaction that ended an epoch in block (bu, bv): a uniform
  /// ordered pair of the block conditioned on at least one participant
  /// being used this epoch, drawn from the urns' used and fresh masses (on
  /// a diagonal block the responder is not the initiator).
  void pick_colliding_pair(std::size_t bu, std::size_t bv, pp::StateId& si,
                           pp::StateId& sr) {
    const Urn& urn_i = urns[bu];
    const Urn& urn_r = urns[bv];
    const std::uint64_t own = bu == bv ? 1 : 0;
    const std::uint64_t mu = urn_i.used_total;
    const std::uint64_t mv = urn_r.used_total;
    const std::uint64_t fu = urn_i.n - mu;
    const std::uint64_t fv = urn_r.n - mv;
    const std::uint64_t w_both = mu * (mv - own);
    const std::uint64_t w_used_fresh = mu * fv;
    const std::uint64_t w_fresh_used = fu * mv;
    const auto used = [&](const Urn& urn, std::uint64_t total,
                          std::uint64_t exclude) {
      return pick(urn.touched, total, exclude,
                  [&](pp::StateId s) { return urn.used[s]; });
    };
    const auto fresh = [&](const Urn& urn, std::uint64_t total) {
      return pick(urn.present, total, kNoExclude,
                  [&](pp::StateId s) { return urn.counts[s] - urn.used[s]; });
    };
    const std::uint64_t r =
        rng.uniform_below(w_both + w_used_fresh + w_fresh_used);
    if (r < w_both) {
      si = used(urn_i, mu, kNoExclude);
      sr = used(urn_r, mv - own, own ? si : kNoExclude);
    } else if (r < w_both + w_used_fresh) {
      si = used(urn_i, mu, kNoExclude);
      sr = fresh(urn_r, fv);
    } else {
      si = fresh(urn_i, fu);
      sr = used(urn_r, mv, kNoExclude);
    }
  }

  /// Applies m epoch interactions of the (s, t) pair in block (bu, bv):
  /// marks the participants used and, unless the pair is null, stages its
  /// count deltas. Returns whether the pair changes state.
  bool apply_group(std::size_t bu, std::size_t bv, pp::StateId s,
                   pp::StateId t, std::uint64_t m) {
    Urn& urn_i = urns[bu];
    Urn& urn_r = urns[bv];
    const pp::Transition tr = engine.transition(s, t);
    touch_used(urn_i, tr.initiator, m);
    touch_used(urn_r, tr.responder, m);
    if (tr.initiator == s && tr.responder == t) return false;
    stage(bu, s, 0 - m);
    stage(bv, t, 0 - m);
    stage(bu, tr.initiator, m);
    stage(bv, tr.responder, m);
    note_state(urn_i, tr.initiator);
    note_state(urn_r, tr.responder);
    return true;
  }

  /// One per-agent epoch (sample_agent_epoch) over the urns' pre-epoch
  /// agent numbering, rebuilt for urns whose counts moved. Each interaction
  /// is applied as a group of one as it is drawn; `productive` counts the
  /// state changes and `last_change` is the epoch step of the final one.
  AgentEpochEnd agent_epoch(std::uint64_t budget, std::uint64_t& productive,
                            std::uint64_t& last_change) {
    m_agent_epochs += 1;
    for (std::size_t u = 0; u < num_urns; ++u) {
      Urn& urn = urns[u];
      if (!urn.index_stale) continue;
      agent_urns[u].index.build(urn.present, urn.counts);
      urn.index_stale = false;
    }
    reset_used();
    // Present lists only grow while the epoch stages its deltas, so the
    // categories stay valid indices into them.
    return sample_agent_epoch(
        rng, num_urns == 1 ? nullptr : &block_draw,
        std::span<AgentUrn>(agent_urns), budget,
        [&](std::uint64_t step, std::size_t b, std::uint32_t ci,
            std::uint32_t cr) {
          const std::size_t bu = b / num_urns;
          const std::size_t bv = b % num_urns;
          if (apply_group(bu, bv, urns[bu].present[ci], urns[bv].present[cr],
                          1)) {
            productive += 1;
            last_change = step;
          }
        });
  }

  // --- recorder views ------------------------------------------------------

  /// Sums the urns into `aggregate` over the reached states (no other state
  /// holds an agent anywhere). Single-urn runs show urn 0 directly.
  void sum_aggregate() {
    if (num_urns == 1) return;
    aggregate.resize(engine.num_states_, 0);
    for (const pp::StateId s : reached) {
      std::uint64_t c = 0;
      for (const Urn& urn : urns) c += urn.counts[s];
      aggregate[s] = c;
    }
  }

  /// Offers the configuration after `interactions` to the recorder, if a
  /// probe is due there.
  void observe(std::uint64_t interactions) {
    if (recorder == nullptr || !recorder->due(interactions, 0.0)) return;
    sum_aggregate();
    recorder->sample(interactions, 0.0, rec_counts(), live_active,
                     rec_present(), rec_urns());
  }

  std::span<const std::uint64_t> rec_counts() const {
    if (num_urns == 1) return urns[0].counts;
    return aggregate;
  }
  /// The present-state hint: a superset of the states holding agents.
  std::span<const pp::StateId> rec_present() const {
    return num_urns == 1 ? urns[0].present : reached;
  }
  std::span<const std::span<const std::uint64_t>> rec_urns() const {
    if (num_urns == 1) return {};
    return urn_spans;
  }

  std::vector<std::uint64_t> output_histogram() const {
    std::vector<std::uint64_t> histogram(
        engine.protocol().num_output_symbols(), 0);
    for (const Urn& urn : urns) {
      for (std::size_t s = 0; s < urn.counts.size(); ++s) {
        if (urn.counts[s] > 0) {
          histogram[engine.protocol().output(static_cast<pp::StateId>(s))] +=
              urn.counts[s];
        }
      }
    }
    return histogram;
  }
};

pp::RunResult DenseEngine::run(DenseConfig& config, std::uint64_t seed,
                               obs::Recorder* recorder) const {
  util::Rng rng(seed);
  return run(config, rng, recorder);
}

pp::RunResult DenseEngine::run(DenseConfig& config, util::Rng& rng,
                               obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(config.num_states() == num_states_,
                    "configuration does not match the engine's protocol");
  CIRCLES_CHECK_MSG(lumping_.sizes.size() <= 1,
                    "engine was built for a multi-urn lumping; pass an "
                    "UrnConfig partitioned to match");
  std::span<std::uint64_t> span(config.counts);
  Sim sim(*this, std::span<std::span<std::uint64_t>>(&span, 1),
          std::span<const double>(&kUniformRate, 1), rng, recorder);
  if (!lumping_.sizes.empty()) {
    CIRCLES_CHECK_MSG(sim.n == lumping_.sizes[0],
                      "configuration does not match the engine's urn sizes");
  }
  return run_impl(sim);
}

pp::RunResult DenseEngine::run(UrnConfig& config, std::uint64_t seed,
                               obs::Recorder* recorder) const {
  util::Rng rng(seed);
  return run(config, rng, recorder);
}

pp::RunResult DenseEngine::run(UrnConfig& config, util::Rng& rng,
                               obs::Recorder* recorder) const {
  CIRCLES_CHECK_MSG(config.num_urns() >= 1, "urn config needs >= 1 urn");
  CIRCLES_CHECK_MSG(config.num_states() == num_states_,
                    "configuration does not match the engine's protocol");
  std::vector<std::span<std::uint64_t>> spans;
  spans.reserve(config.num_urns());
  for (auto& urn : config.urns) spans.push_back(std::span<std::uint64_t>(urn));

  if (lumping_.sizes.empty()) {
    CIRCLES_CHECK_MSG(config.num_urns() == 1,
                      "multi-urn configuration on a single-urn engine; "
                      "construct the DenseEngine with the scheduler's "
                      "UrnLumping");
    Sim sim(*this, spans, std::span<const double>(&kUniformRate, 1), rng,
            recorder);
    return run_impl(sim);
  }
  CIRCLES_CHECK_MSG(config.num_urns() == lumping_.num_urns(),
                    "configuration urn count does not match the engine's "
                    "lumping");
  Sim sim(*this, spans, lumping_.rates, rng, recorder);
  for (std::size_t u = 0; u < sim.num_urns; ++u) {
    CIRCLES_CHECK_MSG(sim.urns[u].n == lumping_.sizes[u],
                      "urn population does not match the engine's lumping");
  }
  return run_impl(sim);
}

const double DenseEngine::kUniformRate = 1.0;

pp::RunResult DenseEngine::run_impl(Sim& sim) const {
  CIRCLES_CHECK_MSG(sim.n >= 2, "dense engine requires at least two agents");
  // The active-pair count is bounded by n(n-1), which must fit in uint64;
  // beyond 2^32 agents the arithmetic would silently wrap.
  CIRCLES_CHECK_MSG(sim.n <= (1ull << 32),
                    "dense engine supports at most 2^32 agents");

  pp::RunResult result;
  if (options_.stop_when_silent && sim.live_active == 0) result.silent = true;

  // One span per run on the calling thread; epochs and jumps nest inside
  // (decimated — see kTraceFullEpochs). Null tracer: sim.trace stays null
  // and every emission site below is a pointer test.
  sim.trace = trace::buffer(options_.tracer);
  const trace::ScopedSpan run_span(sim.trace,
                                   mode_ == DenseMode::kBatched
                                       ? "dense.run_batched"
                                       : "dense.run_per_step",
                                   "n", sim.n);

  obs::Recorder* recorder = sim.recorder;
  if (recorder != nullptr) {
    obs::ProbeContext ctx;
    ctx.protocol = &protocol();
    ctx.kernel = kernel_.get();
    ctx.n = sim.n;
    if (sim.num_urns > 1) ctx.urn_sizes = sim.urn_sizes;
    sim.sum_aggregate();
    recorder->begin(ctx, sim.rec_counts(), sim.live_active, sim.rec_present(),
                    sim.rec_urns());
  }

  if (mode_ == DenseMode::kPerStep) {
    run_per_step(sim, result);
  } else {
    run_batched(sim, result);
  }
  sim.sync_out();

  if (!result.silent && result.interactions >= options_.max_interactions) {
    result.budget_exhausted = true;
    result.silent = sim.live_active == 0;
  } else if (result.silent) {
    // The run stopped on the exact silence certificate: the minimal stopping
    // time is the step after the final change (the epoch tail processed
    // past it contains only null interactions).
    result.interactions =
        result.state_changes == 0 ? 0 : result.last_change_step + 1;
  }

  result.final_outputs = sim.output_histogram();
  if (recorder != nullptr) {
    sim.sum_aggregate();
    recorder->finish(result.interactions, 0.0, sim.rec_counts(),
                     sim.live_active, sim.rec_present(), sim.rec_urns());
  }

  if (options_.metrics != nullptr) {
    auto& m = *options_.metrics;
    m.counter("dense.runs").add(1);
    m.counter("dense.interactions").add(result.interactions);
    m.counter("dense.state_changes").add(result.state_changes);
    m.counter("dense.epochs").add(sim.m_epochs);
    m.counter("dense.fast_forward_jumps").add(sim.m_ff_jumps);
    m.counter("dense.fast_forward_interactions").add(sim.m_ff_skipped);
    m.counter("dense.mvhg_draws").add(sim.m_mvhg_draws);
    m.counter("dense.agent_epochs").add(sim.m_agent_epochs);
  }
  return result;
}

void DenseEngine::run_per_step(Sim& sim, pp::RunResult& result) const {
  const std::size_t u_count = sim.num_urns;
  while (!result.silent && result.interactions < options_.max_interactions) {
    std::size_t block = 0;
    if (u_count > 1) block = sim.block_draw.pick(sim.rng.uniform01());
    const std::size_t bu = block / u_count;
    const std::size_t bv = block % u_count;
    pp::StateId si, sr;
    sim.pick_pair(bu, bv, si, sr);
    const pp::Transition tr = transition(si, sr);
    if (tr.initiator != si || tr.responder != sr) {
      sim.apply(bu, bv, si, sr, tr);
      result.state_changes += 1;
      result.last_change_step = result.interactions;
      sim.settle(bu, bv);
    }
    result.interactions += 1;
    if (options_.stop_when_silent && sim.live_active == 0) {
      result.silent = true;
    }
    // Per-step interactions are far too hot for per-event spans; one instant
    // every 64Ki steps keeps the timeline alive at zero measurable cost.
    if (sim.trace != nullptr && (result.interactions & 0xFFFF) == 0) {
      sim.trace->instant("dense.steps", "interactions", result.interactions);
    }
    sim.observe(result.interactions);
  }
}

void DenseEngine::run_batched(Sim& sim, pp::RunResult& result) const {
  auto& rng = sim.rng;
  const std::size_t u_count = sim.num_urns;
  const std::size_t num_blocks = u_count * u_count;
  const bool single = u_count == 1;

  // Contingency epochs on a single urn sample their length from the
  // precomputed survival table (one uniform draw). Multi-urn epochs have no
  // closed-form length distribution (the collision hazard depends on the
  // drawn block sequence), so they sample the exact sequential chain
  // instead; per-agent epochs find their collision themselves.
  std::optional<CollisionFreeRunLength> run_length;
  if (single) run_length.emplace(sim.n);

  // Agents urn u gives up per interaction on average (2 for a single urn),
  // and the expected epoch length, for the fast-forward threshold, the
  // sampler switch and the per-agent scratch sizes only (any value yields
  // an exact sampler; these are purely performance knobs). Multi-urn:
  // birthday heuristic — collisions appear once sum_u (drawn_u^2 / n_u) ~ 2.
  std::vector<double> urn_draws(u_count, 0.0);
  double inv = 0.0;
  for (std::size_t u = 0; u < u_count; ++u) {
    for (std::size_t v = 0; v < u_count; ++v) {
      urn_draws[u] += sim.rates[u * u_count + v] + sim.rates[v * u_count + u];
    }
    inv += urn_draws[u] * urn_draws[u] / static_cast<double>(sim.urns[u].n);
  }
  const double epoch_mean = single ? run_length->mean_length()
                                   : 0.886 * std::sqrt(2.0 / inv);
  const BlockDraw& block_draw = sim.block_draw;

  LastChangeMark mark;

  // Per-epoch scratch, carved from the run's arena once: stride-S rows per
  // block for the role deals, per-urn rows for the participant draws. Only
  // `seq` keeps a dynamic vector (its length varies per epoch); it reuses
  // its capacity across epochs.
  const std::size_t states = num_states_;
  std::vector<std::uint32_t> seq;                  // multi-urn block sequence
  const std::span<std::uint64_t> block_len =
      sim.arena.alloc<std::uint64_t>(num_blocks);
  const std::span<std::uint64_t> block_productive =
      sim.arena.alloc<std::uint64_t>(num_blocks);
  const std::span<std::uint64_t> phase1_used =
      sim.arena.alloc<std::uint64_t>(u_count);
  const std::span<std::size_t> width = sim.arena.alloc<std::size_t>(u_count);
  const std::span<std::uint64_t> init_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> resp_flat =
      sim.arena.alloc<std::uint64_t>(num_blocks * states);
  const std::span<std::uint64_t> pool_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);
  const std::span<std::uint64_t> drawn_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);
  const std::span<std::uint64_t> rem_flat =
      sim.arena.alloc<std::uint64_t>(u_count * states);

  while (!result.silent && result.interactions < options_.max_interactions) {
    const std::uint64_t remaining =
        options_.max_interactions - result.interactions;

    // Sparse-activity fast-forward: an epoch costs its deal and pairing
    // (O(min(present^2, L + present))) regardless of how many of its
    // interactions change state, while the geometric path pays
    // O(U^2 + present + deg) per *change* (block and pair draws plus the
    // delta update; the null run in between is one log). The ~3 expected
    // changes per epoch crossover was tuned when every change rebuilt all
    // U^2 blocks' active counts, so it likely sits low now; moving it
    // changes which sampler consumes the stream, so retuning it is a
    // separate, non-bitwise change. Either path is an exact sampler: the
    // threshold is purely a performance knob.
    double p_change = 0.0;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (sim.rates[b] <= 0.0) continue;
      p_change += sim.rates[b] *
                  (static_cast<double>(sim.active[b]) / sim.pair_capacity[b]);
    }
    if (p_change * epoch_mean < 3.0) {
      std::uint64_t nulls = remaining;
      if (p_change > 0.0) {
        const double g = std::floor(std::log1p(-rng.uniform01()) /
                                    std::log1p(-p_change));
        if (g < static_cast<double>(remaining)) {
          nulls = static_cast<std::uint64_t>(g);
        }
      }
      sim.m_ff_jumps += 1;
      const std::uint64_t skipped = nulls < remaining ? nulls : remaining;
      sim.m_ff_skipped += skipped;
      // Jumps are instants (the skipped null run has no internal structure),
      // decimated like epochs so silence tails stay cheap.
      if (sim.trace != nullptr &&
          (sim.m_ff_jumps <= kTraceFullEpochs ||
           sim.m_ff_jumps % kTraceStride == 0)) {
        sim.trace->instant("dense.fast_forward", "skipped", skipped);
      }
      if (nulls >= remaining) {
        result.interactions = options_.max_interactions;
        break;  // the budget ran out inside a null run
      }
      result.interactions += nulls;
      // The next interaction is a state change: draw its block (weights
      // rate_b * active_b / capacity_b), then the ordered pair conditioned
      // on being active.
      std::size_t block = 0;
      if (!single) block = sim.pick_block_by_activity(p_change);
      const std::size_t bu = block / u_count;
      const std::size_t bv = block % u_count;
      pp::StateId si = 0, sr = 0;
      sim.pick_active_pair(bu, bv, si, sr);
      sim.apply(bu, bv, si, sr, transition(si, sr));
      result.state_changes += 1;
      result.last_change_step = result.interactions;
      mark.valid = true;
      mark.exact = true;
      mark.index = result.interactions;
      result.interactions += 1;
      sim.settle(bu, bv);
      if (options_.stop_when_silent && sim.live_active == 0) {
        result.silent = true;
      }
      // One collapsed sample per fast-forward jump: the counts were constant
      // across the skipped null run, so the post-change index is the exact
      // position of this observation.
      sim.observe(result.interactions);
      continue;
    }

    // One epoch: L collision-free interactions (participants distinct
    // within every urn), then the colliding interaction that ended the run,
    // then reset.
    sim.m_epochs += 1;
    // Full epoch spans early, one instant per kTraceStride epochs after: a
    // timeline shows the run's structure without per-epoch cost forever.
    const bool trace_epoch =
        sim.trace != nullptr && sim.m_epochs <= kTraceFullEpochs;
    if (trace_epoch) {
      sim.trace->begin("dense.epoch", "epoch", sim.m_epochs);
    } else if (sim.trace != nullptr && sim.m_epochs % kTraceStride == 0) {
      sim.trace->instant("dense.epochs", "stride", kTraceStride);
    }
    std::uint64_t len = 0;
    bool collided = false;
    std::size_t col_block = 0;
    std::uint64_t epoch_productive = 0;
    std::uint64_t last_change = 0;  // per-agent epochs: step of the last change

    // Two exact samplers of the same epoch, chosen before it from its
    // expected length. When the 2 E[L] agents are few against the urns'
    // present states (kPerAgentSwitch), agent_epoch samples the
    // interactions one by one by agent identity and finds the collision
    // itself; otherwise the collision-free length is drawn first, the
    // participants' states are dealt by counts and paired by contingency
    // tables below.
    std::uint64_t width_sq = 0;
    for (const Sim::Urn& urn : sim.urns) {
      width_sq += urn.present.size() * urn.present.size();
    }
    const bool per_agent =
        2.0 * epoch_mean <= kPerAgentSwitch * static_cast<double>(width_sq);
    if (per_agent) {
      if (sim.agent_urns.empty()) {
        sim.agent_urns.resize(u_count);
        for (std::size_t u = 0; u < u_count; ++u) {
          sim.agent_urns[u].reserve(static_cast<std::uint64_t>(
              std::ceil(epoch_mean * urn_draws[u])));
        }
      }
      const AgentEpochEnd end =
          sim.agent_epoch(remaining, epoch_productive, last_change);
      len = end.length;
      collided = end.collided;
      col_block = end.block;
    } else {
      std::fill(block_len.begin(), block_len.end(), 0);
      std::fill(block_productive.begin(), block_productive.end(), 0);

      if (single) {
        len = run_length->sample(rng);
        collided = true;
        if (len >= remaining) {
          len = remaining;
          collided = false;  // budget cut the epoch before any collision
        }
        block_len[0] = len;
      } else {
        // Exact sequential chain: each step draws its block from the rate
        // matrix and collides with the probability that a uniform agent draw
        // in the block's urns re-touches a used agent; one uniform drives
        // both decisions (the conditional remainder within the block's rate
        // interval is itself uniform).
        seq.clear();
        std::fill(phase1_used.begin(), phase1_used.end(), 0);
        while (static_cast<std::uint64_t>(seq.size()) < remaining) {
          const double r = rng.uniform01();
          // The first live block whose cumulative end exceeds r; past the
          // last end (rounding), the final live block with r_in = 0.
          const std::size_t j = block_draw.find(r);
          std::size_t b = block_draw.last_block();
          double r_in = 0.0;
          if (j < block_draw.size()) {
            b = block_draw.block(j);
            r_in = (r - block_draw.start(j)) / sim.rates[b];
          }
          const std::size_t u = b / u_count;
          const std::size_t v = b % u_count;
          double p_col;
          if (u == v) {
            const double fresh =
                static_cast<double>(sim.urns[u].n - phase1_used[u]);
            p_col = 1.0 - fresh * (fresh - 1.0) /
                              (static_cast<double>(sim.urns[u].n) *
                               static_cast<double>(sim.urns[u].n - 1));
          } else {
            p_col = 1.0 -
                    (static_cast<double>(sim.urns[u].n - phase1_used[u]) /
                     static_cast<double>(sim.urns[u].n)) *
                        (static_cast<double>(sim.urns[v].n - phase1_used[v]) /
                         static_cast<double>(sim.urns[v].n));
          }
          if (r_in < p_col) {
            collided = true;
            col_block = b;
            break;
          }
          seq.push_back(static_cast<std::uint32_t>(b));
          block_len[b] += 1;
          if (u == v) {
            phase1_used[u] += 2;
          } else {
            phase1_used[u] += 1;
            phase1_used[v] += 1;
          }
        }
        len = seq.size();
      }

      // Participant state draws, per urn: T_u agents leave urn u this epoch
      // (initiators of blocks (u, *) plus responders of blocks (*, u); intra
      // blocks contribute on both sides). drawn ~ multivariate hypergeometric
      // from the urn's counts, then sequential splits deal the drawn states
      // across the urn's roles.
      for (std::size_t u = 0; u < u_count; ++u) {
        Sim::Urn& urn = sim.urns[u];
        const std::size_t w = urn.present.size();
        width[u] = w;
        std::uint64_t t_u = 0;
        for (std::size_t v = 0; v < u_count; ++v) {
          t_u += block_len[u * u_count + v] + block_len[v * u_count + u];
        }
        if (t_u == 0) continue;

        const std::span<std::uint64_t> pool = pool_flat.subspan(u * states, w);
        const std::span<std::uint64_t> drawn =
            drawn_flat.subspan(u * states, w);
        const std::span<std::uint64_t> rem = rem_flat.subspan(u * states, w);
        for (std::size_t i = 0; i < w; ++i) {
          pool[i] = urn.counts[urn.present[i]];
        }
        multivariate_hypergeometric(rng, pool, t_u, drawn);
        sim.m_mvhg_draws += 1;

        std::copy(drawn.begin(), drawn.end(), rem.begin());
        std::uint64_t rem_total = t_u;
        const auto deal_role = [&](std::span<std::uint64_t> target,
                                   std::uint64_t count) {
          if (count == 0) return;
          if (rem_total == count) {
            // The last live role takes the remainder outright.
            std::copy(rem.begin(), rem.end(), target.begin());
            rem_total = 0;
            return;
          }
          multivariate_hypergeometric(rng, rem, count, target);
          sim.m_mvhg_draws += 1;
          for (std::size_t i = 0; i < w; ++i) rem[i] -= target[i];
          rem_total -= count;
        };
        for (std::size_t v = 0; v < u_count; ++v) {
          const std::size_t b = u * u_count + v;
          deal_role(init_flat.subspan(b * states, w), block_len[b]);
        }
        for (std::size_t v = 0; v < u_count; ++v) {
          const std::size_t b = v * u_count + u;
          deal_role(resp_flat.subspan(b * states, w), block_len[b]);
        }
      }

      sim.reset_used();

      // Pair initiators with responders per block: a uniformly random perfect
      // matching, sampled group by group as a hypergeometric contingency
      // table. Each matched group of m (s, t) pairs is applied as it is drawn
      // (apply_group). The draws read only the dealt role rows and the
      // present-list prefixes below `width` (present lists only grow, so
      // those indices stay stable while groups apply); the staged deltas are
      // netted per (urn, state) and applied once, before the collision draw
      // reads the counts.
      for (std::size_t b = 0; b < num_blocks; ++b) {
        if (block_len[b] == 0) continue;
        const std::size_t bu = b / u_count;
        const std::size_t bv = b % u_count;
        const std::span<const std::uint64_t> init =
            init_flat.subspan(b * states, width[bu]);
        const std::span<std::uint64_t> resp =
            resp_flat.subspan(b * states, width[bv]);
        std::uint64_t resp_pool = block_len[b];
        for (std::size_t a = 0; a < init.size(); ++a) {
          std::uint64_t need = init[a];
          if (need == 0) continue;
          std::uint64_t pool_total = resp_pool;
          for (std::size_t c = 0; c < resp.size() && need > 0; ++c) {
            const std::uint64_t avail = resp[c];
            if (avail == 0) continue;
            const std::uint64_t m =
                hypergeometric(rng, pool_total, avail, need);
            pool_total -= avail;
            resp[c] -= m;
            need -= m;
            if (m > 0 && sim.apply_group(bu, bv, sim.urns[bu].present[a],
                                         sim.urns[bv].present[c], m)) {
              block_productive[b] += m;
            }
          }
          CIRCLES_DCHECK(need == 0);
          resp_pool -= init[a];
        }
        epoch_productive += block_productive[b];
      }
    }
    sim.flush_staged();

    const std::uint64_t epoch_start = result.interactions;
    result.interactions += len;
    result.state_changes += epoch_productive;
    if (epoch_productive > 0) {
      // A per-agent epoch was sampled step by step, so its final change's
      // step is known exactly; a contingency epoch keeps its blocks' slot
      // counts to place it.
      mark.valid = true;
      mark.exact = per_agent;
      mark.index = epoch_start + last_change;
      if (!per_agent) {
        mark.seq.assign(seq.begin(), seq.end());
        mark.block_len.assign(block_len.begin(), block_len.end());
        mark.block_productive.assign(block_productive.begin(),
                                     block_productive.end());
      }
    }

    if (collided && result.interactions < options_.max_interactions) {
      const std::size_t bu = col_block / u_count;
      const std::size_t bv = col_block % u_count;
      pp::StateId si, sr;
      sim.pick_colliding_pair(bu, bv, si, sr);
      const pp::Transition tr = transition(si, sr);
      if (tr.initiator != si || tr.responder != sr) {
        sim.apply(bu, bv, si, sr, tr);
        result.state_changes += 1;
        epoch_productive += 1;
        mark.valid = true;
        mark.exact = true;
        mark.index = result.interactions;
      }
      result.interactions += 1;
    }

    // A change-free epoch leaves the configuration — and therefore the
    // present lists — untouched.
    if (epoch_productive > 0) sim.settle_all();
    if (options_.stop_when_silent && sim.live_active == 0) {
      result.silent = true;
    }
    // Epoch-boundary sampling: counts are only well-defined between epochs,
    // so the snapshot carries the boundary's exact interaction index rather
    // than interpolating into the epoch.
    sim.observe(result.interactions);
    if (trace_epoch) sim.trace->end("dense.epoch");
  }

  // Resolve the exact step of the final change. Within an epoch each
  // block's slot assignment is exchangeable, so its productive slots form a
  // uniform subset of its occurrence positions; only the maximum matters
  // and only for the final epoch. Each block with a change places its last
  // productive occurrence (one last_special_slot draw, in block order) and
  // the latest wins; a single urn's slots are all block 0's.
  if (mark.valid && mark.exact) {
    result.last_change_step = mark.index;
  } else if (mark.valid) {
    std::uint64_t best = 0;
    for (std::size_t b = 0; b < mark.block_len.size(); ++b) {
      if (mark.block_productive[b] == 0) continue;
      const std::uint64_t slot = last_special_slot(
          rng, mark.block_len[b], mark.block_productive[b]);
      // Position (1-based, within the epoch) of block b's slot-th
      // occurrence in the saved sequence.
      std::uint64_t position = slot;
      if (!mark.seq.empty()) {
        position = 0;
        for (std::uint64_t seen = 0; seen < slot; ++position) {
          if (mark.seq[position] == b) ++seen;
        }
      }
      best = std::max(best, position);
    }
    CIRCLES_DCHECK(best >= 1);
    result.last_change_step = mark.index + best - 1;
  }
}

}  // namespace circles::dense
