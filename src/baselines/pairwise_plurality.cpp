#include "baselines/pairwise_plurality.hpp"

#include "util/check.hpp"

namespace circles::baselines {

PairwisePlurality::PairwisePlurality(std::uint32_t k) : k_(k) {
  CIRCLES_CHECK_MSG(k >= 1, "need at least one color");
  CIRCLES_CHECK_MSG(k <= 6,
                    "pairwise plurality state space is exponential; capped at "
                    "k = 6 (~1.5M states)");
  for (pp::ColorId i = 0; i < k; ++i) {
    for (pp::ColorId j = i + 1; j < k; ++j) games_.push_back({i, j});
  }
  per_color_states_ = 1;
  // All colors share the same per-color state count: k-1 ternary digits and
  // (k-1)(k-2)/2 binary digits, merely at color-dependent positions.
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    per_color_states_ *= radix(/*color=*/0, g);
  }
  num_states_ = per_color_states_ * k_;
}

std::uint64_t PairwisePlurality::state_count_formula(std::uint32_t k) {
  CIRCLES_CHECK_MSG(k >= 1 && k <= 10, "formula overflows uint64 beyond k=10");
  std::uint64_t out = k;
  for (std::uint32_t i = 0; i + 1 < k; ++i) out *= 3;
  const std::uint64_t binary_games =
      k >= 2 ? static_cast<std::uint64_t>(k - 1) * (k - 2) / 2 : 0;
  for (std::uint64_t i = 0; i < binary_games; ++i) out *= 2;
  return out;
}

bool PairwisePlurality::plays(pp::ColorId color,
                              std::uint32_t game_index) const {
  const Game& g = games_[game_index];
  return g.lo == color || g.hi == color;
}

PairwisePlurality::Decoded PairwisePlurality::decode(pp::StateId state) const {
  CIRCLES_DCHECK(state < num_states_);
  Decoded out;
  out.color = static_cast<pp::ColorId>(state / per_color_states_);
  std::uint64_t rest = state % per_color_states_;
  out.sub.resize(games_.size());
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    const std::uint32_t r = radix(out.color, g);
    out.sub[g] = static_cast<std::uint8_t>(rest % r);
    rest /= r;
  }
  return out;
}

pp::StateId PairwisePlurality::encode(const Decoded& decoded) const {
  std::uint64_t rest = 0;
  for (std::uint32_t g = static_cast<std::uint32_t>(games_.size()); g-- > 0;) {
    const std::uint32_t r = radix(decoded.color, g);
    CIRCLES_DCHECK(decoded.sub[g] < r);
    rest = rest * r + decoded.sub[g];
  }
  return static_cast<pp::StateId>(decoded.color * per_color_states_ + rest);
}

pp::StateId PairwisePlurality::input(pp::ColorId color) const {
  CIRCLES_DCHECK(color < k_);
  Decoded d;
  d.color = color;
  d.sub.assign(games_.size(), 0);
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    if (plays(color, g)) {
      d.sub[g] = static_cast<std::uint8_t>(PlayerSub::kStrong);
    } else {
      d.sub[g] = static_cast<std::uint8_t>(SpectatorSub::kBelieveLo);
    }
  }
  return encode(d);
}

pp::ColorId PairwisePlurality::belief(const Decoded& decoded,
                                      std::uint32_t game_index) const {
  const Game& game = games_[game_index];
  if (plays(decoded.color, game_index)) {
    switch (static_cast<PlayerSub>(decoded.sub[game_index])) {
      case PlayerSub::kStrong:
        return decoded.color;
      case PlayerSub::kWeakLo:
        return game.lo;
      case PlayerSub::kWeakHi:
        return game.hi;
    }
  }
  return static_cast<SpectatorSub>(decoded.sub[game_index]) ==
                 SpectatorSub::kBelieveLo
             ? game.lo
             : game.hi;
}

pp::OutputSymbol PairwisePlurality::output(pp::StateId state) const {
  const Decoded d = decode(state);
  // At most one candidate can win all of its games in a given view (the game
  // between two candidates disqualifies one of them), so the ascending scan
  // is deterministic. output() is not on the simulation hot path.
  for (pp::ColorId candidate = 0; candidate < k_ && k_ > 1; ++candidate) {
    bool wins_all = true;
    for (std::uint32_t g = 0; g < games_.size() && wins_all; ++g) {
      if (games_[g].lo == candidate || games_[g].hi == candidate) {
        wins_all = belief(d, g) == candidate;
      }
    }
    if (wins_all) return candidate;
  }
  return d.color;  // pre-convergence fallback: announce own color
}

pp::Transition PairwisePlurality::transition(pp::StateId initiator,
                                             pp::StateId responder) const {
  Decoded a = decode(initiator);
  Decoded b = decode(responder);

  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    const Game& game = games_[g];
    const bool a_plays = plays(a.color, g);
    const bool b_plays = plays(b.color, g);

    if (a_plays && b_plays) {
      const auto a_sub = static_cast<PlayerSub>(a.sub[g]);
      const auto b_sub = static_cast<PlayerSub>(b.sub[g]);
      if (a_sub == PlayerSub::kStrong && b_sub == PlayerSub::kStrong &&
          a.color != b.color) {
        // Cancellation: each becomes weak believing its own color.
        a.sub[g] = static_cast<std::uint8_t>(
            a.color == game.lo ? PlayerSub::kWeakLo : PlayerSub::kWeakHi);
        b.sub[g] = static_cast<std::uint8_t>(
            b.color == game.lo ? PlayerSub::kWeakLo : PlayerSub::kWeakHi);
        continue;
      }
      if (a_sub == PlayerSub::kStrong && b_sub != PlayerSub::kStrong &&
          belief(b, g) != a.color) {
        b.sub[g] = static_cast<std::uint8_t>(
            a.color == game.lo ? PlayerSub::kWeakLo : PlayerSub::kWeakHi);
        continue;
      }
      if (b_sub == PlayerSub::kStrong && a_sub != PlayerSub::kStrong &&
          belief(a, g) != b.color) {
        a.sub[g] = static_cast<std::uint8_t>(
            b.color == game.lo ? PlayerSub::kWeakLo : PlayerSub::kWeakHi);
        continue;
      }
      continue;
    }

    // Player meets spectator: only a STRONG player reshapes spectator belief;
    // weak players stay quiet so tied games freeze into silence.
    if (a_plays && !b_plays) {
      if (static_cast<PlayerSub>(a.sub[g]) == PlayerSub::kStrong &&
          belief(b, g) != a.color) {
        b.sub[g] = static_cast<std::uint8_t>(a.color == game.lo
                                                 ? SpectatorSub::kBelieveLo
                                                 : SpectatorSub::kBelieveHi);
      }
      continue;
    }
    if (b_plays && !a_plays) {
      if (static_cast<PlayerSub>(b.sub[g]) == PlayerSub::kStrong &&
          belief(a, g) != b.color) {
        a.sub[g] = static_cast<std::uint8_t>(b.color == game.lo
                                                 ? SpectatorSub::kBelieveLo
                                                 : SpectatorSub::kBelieveHi);
      }
      continue;
    }
    // Two spectators: null.
  }

  return {encode(a), encode(b)};
}

std::string PairwisePlurality::state_name(pp::StateId state) const {
  const Decoded d = decode(state);
  std::string out = "c";
  out += std::to_string(d.color);
  out += "[";
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    if (g > 0) out += ",";
    if (plays(d.color, g)) {
      switch (static_cast<PlayerSub>(d.sub[g])) {
        case PlayerSub::kStrong:
          out += "S";
          break;
        case PlayerSub::kWeakLo:
          out += "w";
          out += std::to_string(games_[g].lo);
          break;
        case PlayerSub::kWeakHi:
          out += "w";
          out += std::to_string(games_[g].hi);
          break;
      }
    } else {
      out += "b";
      out += std::to_string(belief(d, g));
    }
  }
  out += "]";
  return out;
}

}  // namespace circles::baselines
