#include "extensions/tie_aware_pairwise.hpp"

#include "util/check.hpp"

namespace circles::ext {

std::string to_string(TieSemantics semantics) {
  switch (semantics) {
    case TieSemantics::kReport:
      return "report";
    case TieSemantics::kBreak:
      return "break";
    case TieSemantics::kShare:
      return "share";
  }
  return "unknown";
}

TieAwarePairwise::TieAwarePairwise(std::uint32_t k, TieSemantics semantics)
    : k_(k), semantics_(semantics) {
  CIRCLES_CHECK_MSG(k >= 1, "need at least one color");
  CIRCLES_CHECK_MSG(k <= 5,
                    "tie-aware pairwise state space is exponential; capped at "
                    "k = 5 (~2.3M states)");
  for (pp::ColorId i = 0; i < k; ++i) {
    for (pp::ColorId j = i + 1; j < k; ++j) games_.push_back({i, j});
  }
  per_color_states_ = 1;
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    per_color_states_ *= radix(/*color=*/0, g);
  }
  num_states_ = per_color_states_ * k_;
}

std::uint32_t TieAwarePairwise::num_output_symbols() const {
  return semantics_ == TieSemantics::kReport ? k_ + 1 : k_;
}

std::string TieAwarePairwise::name() const {
  return "tie_" + to_string(semantics_) + "_pairwise";
}

bool TieAwarePairwise::plays(pp::ColorId color,
                             std::uint32_t game_index) const {
  const Game& g = games_[game_index];
  return g.lo == color || g.hi == color;
}

TieAwarePairwise::Decoded TieAwarePairwise::decode(pp::StateId state) const {
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

pp::StateId TieAwarePairwise::encode(const Decoded& decoded) const {
  std::uint64_t rest = 0;
  for (std::uint32_t g = static_cast<std::uint32_t>(games_.size()); g-- > 0;) {
    const std::uint32_t r = radix(decoded.color, g);
    CIRCLES_DCHECK(decoded.sub[g] < r);
    rest = rest * r + decoded.sub[g];
  }
  return static_cast<pp::StateId>(decoded.color * per_color_states_ + rest);
}

pp::StateId TieAwarePairwise::input(pp::ColorId color) const {
  CIRCLES_DCHECK(color < k_);
  Decoded d;
  d.color = color;
  d.sub.assign(games_.size(), 0);
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    d.sub[g] = static_cast<std::uint8_t>(
        plays(color, g) ? static_cast<std::uint8_t>(PlayerSub::kStrong)
                        : static_cast<std::uint8_t>(SpectatorSub::kBelieveLo));
  }
  return encode(d);
}

pp::OutputSymbol TieAwarePairwise::belief(const Decoded& decoded,
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
      case PlayerSub::kWeakTie:
      case PlayerSub::kRetractor:
        return tie_symbol();
    }
  }
  switch (static_cast<SpectatorSub>(decoded.sub[game_index])) {
    case SpectatorSub::kBelieveLo:
      return game.lo;
    case SpectatorSub::kBelieveHi:
      return game.hi;
    case SpectatorSub::kBelieveTie:
      return tie_symbol();
  }
  return game.lo;
}

void TieAwarePairwise::apply_believe(Decoded& target, std::uint32_t game_index,
                                     pp::OutputSymbol value) const {
  const Game& game = games_[game_index];
  if (plays(target.color, game_index)) {
    if (value == tie_symbol()) {
      target.sub[game_index] = static_cast<std::uint8_t>(PlayerSub::kWeakTie);
    } else {
      target.sub[game_index] = static_cast<std::uint8_t>(
          value == game.lo ? PlayerSub::kWeakLo : PlayerSub::kWeakHi);
    }
    return;
  }
  if (value == tie_symbol()) {
    target.sub[game_index] =
        static_cast<std::uint8_t>(SpectatorSub::kBelieveTie);
  } else {
    target.sub[game_index] = static_cast<std::uint8_t>(
        value == game.lo ? SpectatorSub::kBelieveLo
                         : SpectatorSub::kBelieveHi);
  }
}

pp::Transition TieAwarePairwise::transition(pp::StateId initiator,
                                            pp::StateId responder) const {
  Decoded a = decode(initiator);
  Decoded b = decode(responder);

  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    const bool a_plays = plays(a.color, g);
    const bool b_plays = plays(b.color, g);
    const bool a_strong =
        a_plays && static_cast<PlayerSub>(a.sub[g]) == PlayerSub::kStrong;
    const bool b_strong =
        b_plays && static_cast<PlayerSub>(b.sub[g]) == PlayerSub::kStrong;

    if (a_strong && b_strong && a.color != b.color) {
      // Cancellation: both votes neutralized; both agents now carry direct
      // evidence that the game may be tied.
      a.sub[g] = static_cast<std::uint8_t>(PlayerSub::kRetractor);
      b.sub[g] = static_cast<std::uint8_t>(PlayerSub::kRetractor);
      continue;
    }
    if (a_strong && !b_strong && belief(b, g) != a.color) {
      // Converting also clears a retractor (kRetractor -> kWeak*).
      apply_believe(b, g, a.color);
      continue;
    }
    if (b_strong && !a_strong && belief(a, g) != b.color) {
      apply_believe(a, g, b.color);
      continue;
    }
    if (a_strong || b_strong) continue;

    // No strong on either side of this game: retractors spread the TIE
    // verdict but never the retractor status itself.
    const bool a_retractor =
        a_plays && static_cast<PlayerSub>(a.sub[g]) == PlayerSub::kRetractor;
    const bool b_retractor =
        b_plays && static_cast<PlayerSub>(b.sub[g]) == PlayerSub::kRetractor;
    if (a_retractor && !b_retractor && belief(b, g) != tie_symbol()) {
      apply_believe(b, g, tie_symbol());
      continue;
    }
    if (b_retractor && !a_retractor && belief(a, g) != tie_symbol()) {
      apply_believe(a, g, tie_symbol());
      continue;
    }
  }

  return {encode(a), encode(b)};
}

pp::OutputSymbol TieAwarePairwise::output(pp::StateId state) const {
  const Decoded d = decode(state);
  if (k_ == 1) return 0;

  // W = colors that lose no game in this agent's view.
  std::vector<bool> in_w(k_, true);
  std::vector<bool> has_tie(k_, false);
  for (std::uint32_t g = 0; g < games_.size(); ++g) {
    const pp::OutputSymbol verdict = belief(d, g);
    const Game& game = games_[g];
    if (verdict == tie_symbol()) {
      has_tie[game.lo] = true;
      has_tie[game.hi] = true;
    } else {
      const pp::ColorId loser = verdict == game.lo ? game.hi : game.lo;
      in_w[loser] = false;
    }
  }
  pp::ColorId min_w = k_;
  for (pp::ColorId c = 0; c < k_; ++c) {
    if (in_w[c]) {
      min_w = c;
      break;
    }
  }
  if (min_w == k_) return d.color;  // inconsistent transient view: own color

  switch (semantics_) {
    case TieSemantics::kReport:
      return has_tie[min_w] ? tie_symbol() : min_w;
    case TieSemantics::kBreak:
      return min_w;
    case TieSemantics::kShare:
      return in_w[d.color] ? d.color : min_w;
  }
  return min_w;
}

std::string TieAwarePairwise::output_name(pp::OutputSymbol symbol) const {
  if (symbol == tie_symbol()) return "TIE";
  std::string name = "c";
  name += std::to_string(symbol);
  return name;
}

}  // namespace circles::ext
