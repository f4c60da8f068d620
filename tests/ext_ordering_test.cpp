#include "extensions/ordering.hpp"

#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <set>
#include <vector>

#include "analysis/workload.hpp"
#include "pp/engine.hpp"
#include "sim/trial.hpp"

namespace circles::ext {
namespace {

using analysis::Workload;
using sim::TrialOptions;

TEST(OrderingProtocolTest, StateMetadata) {
  for (std::uint32_t k : {1u, 3u, 8u}) {
    OrderingProtocol protocol(k);
    EXPECT_EQ(protocol.num_states(), 2ull * k * k);
    EXPECT_EQ(protocol.num_colors(), k);
  }
}

TEST(OrderingProtocolTest, EncodeDecodeRoundTrip) {
  OrderingProtocol protocol(5);
  for (pp::StateId s = 0; s < protocol.num_states(); ++s) {
    const auto f = protocol.decode(s);
    EXPECT_EQ(protocol.encode(f), s);
  }
}

TEST(OrderingProtocolTest, EveryAgentStartsAsLeaderWithLabelZero) {
  OrderingProtocol protocol(4);
  for (pp::ColorId c = 0; c < 4; ++c) {
    const auto f = protocol.decode(protocol.input(c));
    EXPECT_EQ(f.color, c);
    EXPECT_TRUE(f.leader);
    EXPECT_EQ(f.label, 0u);
    EXPECT_EQ(protocol.output(protocol.input(c)), 0u);
  }
}

TEST(OrderingProtocolTest, SameColorLeaderMeetingDemotesResponder) {
  OrderingProtocol protocol(3);
  const pp::StateId a = protocol.encode({1, true, 2});
  const pp::StateId b = protocol.encode({1, true, 0});
  const pp::Transition tr = protocol.transition(a, b);
  const auto fa = protocol.decode(tr.initiator);
  const auto fb = protocol.decode(tr.responder);
  EXPECT_TRUE(fa.leader);
  EXPECT_FALSE(fb.leader);
  EXPECT_EQ(fb.label, 2u);  // demoted copies the survivor's label
}

TEST(OrderingProtocolTest, FollowerCopiesLeaderLabelOfOwnColorOnly) {
  OrderingProtocol protocol(3);
  {
    const pp::Transition tr = protocol.transition(
        protocol.encode({1, true, 2}), protocol.encode({1, false, 0}));
    EXPECT_EQ(protocol.decode(tr.responder).label, 2u);
  }
  {
    // Responder is the leader: initiator follower copies.
    const pp::Transition tr = protocol.transition(
        protocol.encode({1, false, 0}), protocol.encode({1, true, 2}));
    EXPECT_EQ(protocol.decode(tr.initiator).label, 2u);
  }
  {
    // Different color: followers never copy.
    const pp::Transition tr = protocol.transition(
        protocol.encode({2, true, 2}), protocol.encode({1, false, 0}));
    EXPECT_EQ(protocol.decode(tr.responder).label, 0u);
  }
}

TEST(OrderingProtocolTest, LabelCollisionBumpsResponderModK) {
  OrderingProtocol protocol(3);
  {
    const pp::Transition tr = protocol.transition(
        protocol.encode({0, true, 1}), protocol.encode({1, true, 1}));
    EXPECT_EQ(protocol.decode(tr.initiator).label, 1u);
    EXPECT_EQ(protocol.decode(tr.responder).label, 2u);
  }
  {
    // Wrap-around.
    const pp::Transition tr = protocol.transition(
        protocol.encode({0, true, 2}), protocol.encode({1, true, 2}));
    EXPECT_EQ(protocol.decode(tr.responder).label, 0u);
  }
  {
    // Distinct labels: null.
    const pp::Transition tr = protocol.transition(
        protocol.encode({0, true, 1}), protocol.encode({1, true, 2}));
    EXPECT_EQ(tr.initiator, protocol.encode({0, true, 1}));
    EXPECT_EQ(tr.responder, protocol.encode({1, true, 2}));
  }
}

/// Checks the stabilized ordering: one leader per present color, all leader
/// labels distinct, every follower carrying its color's leader label.
void expect_valid_ordering(const OrderingProtocol& protocol,
                           const pp::Population& population,
                           std::uint32_t k, const std::string& context) {
  std::map<pp::ColorId, std::uint32_t> leader_label;
  std::map<pp::ColorId, int> leaders_per_color;
  for (const pp::StateId s : population.present_states()) {
    const auto f = protocol.decode(s);
    if (f.leader) {
      leaders_per_color[f.color] +=
          static_cast<int>(population.count(s));
      leader_label[f.color] = f.label;
    }
  }
  std::set<std::uint32_t> labels;
  for (const auto& [color, count] : leaders_per_color) {
    EXPECT_EQ(count, 1) << context << " color " << color;
    EXPECT_TRUE(labels.insert(leader_label[color]).second)
        << context << " duplicate label for color " << color;
  }
  // Followers agree with their leader.
  for (const pp::StateId s : population.present_states()) {
    const auto f = protocol.decode(s);
    if (!f.leader) {
      ASSERT_TRUE(leader_label.count(f.color)) << context;
      EXPECT_EQ(f.label, leader_label[f.color]) << context;
    }
  }
  EXPECT_LE(labels.size(), k);
}

TEST(OrderingSimulationTest, StabilizesToInjectiveLabelsAllSchedulers) {
  const std::uint32_t k = 4;
  OrderingProtocol protocol(k);
  util::Rng rng(13);
  for (const pp::SchedulerKind kind : pp::kAllSchedulerKinds) {
    const Workload w = analysis::random_counts(rng, 20, k);
    if (w.n() < 2) continue;
    util::Rng trial_rng(rng());
    const auto colors = w.agent_colors(trial_rng);
    pp::Population population(protocol, colors);
    auto scheduler = pp::make_scheduler(
        kind, static_cast<std::uint32_t>(colors.size()), trial_rng(),
        &protocol);
    pp::Engine engine;
    const auto result = engine.run(protocol, population, *scheduler);
    EXPECT_TRUE(result.silent) << pp::to_string(kind);
    expect_valid_ordering(protocol, population, k, pp::to_string(kind));
  }
}

TEST(OrderingSimulationTest, SingleColorPopulation) {
  OrderingProtocol protocol(3);
  std::vector<pp::ColorId> colors(8, 1);
  pp::Population population(protocol, colors);
  auto scheduler =
      pp::make_scheduler(pp::SchedulerKind::kRoundRobin, 8, 0, &protocol);
  pp::Engine engine;
  const auto result = engine.run(protocol, population, *scheduler);
  EXPECT_TRUE(result.silent);
  expect_valid_ordering(protocol, population, 3, "single color");
}

// ---------------------------------------------------------------------------
// DESIGN.md §5.3: termination of the label-bump dynamics under adversarial
// scheduling is not proved in the paper. Verify it by exhaustive reachability
// over label multisets: from any multiset of j <= k labels, every maximal
// move sequence must reach an all-distinct multiset (the move graph over
// multisets is acyclic). A move takes one label from a slot holding >= 2 and
// advances it mod k.
// ---------------------------------------------------------------------------

// Occupancy per slot. Not a byte vector: as a std::map key its <=> becomes
// a memcmp for which GCC 12 -O3 emits a false -Wstringop-overread.
using LabelMultiset = std::vector<std::uint32_t>;

std::vector<LabelMultiset> moves(const LabelMultiset& m) {
  std::vector<LabelMultiset> out;
  const std::size_t k = m.size();
  for (std::size_t slot = 0; slot < k; ++slot) {
    if (m[slot] >= 2) {
      LabelMultiset next = m;
      next[slot] -= 1;
      next[(slot + 1) % k] += 1;
      out.push_back(next);
    }
  }
  return out;
}

/// DFS cycle detection over the move graph.
enum class Mark : std::uint8_t { kUnseen, kOnStack, kDone };

bool has_cycle(const LabelMultiset& start,
               std::map<LabelMultiset, Mark>& marks) {
  auto it = marks.find(start);
  if (it != marks.end()) {
    if (it->second == Mark::kOnStack) return true;
    return false;  // kDone
  }
  marks[start] = Mark::kOnStack;
  for (const auto& next : moves(start)) {
    if (has_cycle(next, marks)) return true;
  }
  marks[start] = Mark::kDone;
  return false;
}

void enumerate_multisets(std::size_t k, std::uint32_t chips,
                         LabelMultiset& prefix,
                         std::vector<LabelMultiset>& out) {
  if (prefix.size() + 1 == k) {
    prefix.push_back(chips);
    out.push_back(prefix);
    prefix.pop_back();
    return;
  }
  for (std::uint32_t c = 0; c <= chips; ++c) {
    prefix.push_back(c);
    enumerate_multisets(k, chips - c, prefix, out);
    prefix.pop_back();
  }
}

TEST(OrderingLabelGraphTest, BumpDynamicsTerminatesForAtMostKLeaders) {
  // For every k <= 6 and every start with j <= k leaders, the adversary
  // cannot cycle: the move graph is acyclic, so weak fairness forces the
  // distinct-label fixpoint.
  for (std::size_t k = 2; k <= 6; ++k) {
    std::map<LabelMultiset, Mark> marks;
    for (std::uint32_t chips = 2; chips <= k; ++chips) {
      std::vector<LabelMultiset> starts;
      LabelMultiset prefix;
      enumerate_multisets(k, chips, prefix, starts);
      for (const auto& start : starts) {
        EXPECT_FALSE(has_cycle(start, marks))
            << "k=" << k << " chips=" << chips;
      }
    }
  }
}

TEST(OrderingLabelGraphTest, MoreLeadersThanSlotsCanCycle) {
  // Documented limitation that motivates the demotion rule: with more than
  // k leaders the bump dynamics alone can cycle (demotions are what make
  // the protocol terminate). Exhibit the k=2, 3-leader cycle.
  std::map<LabelMultiset, Mark> marks;
  EXPECT_TRUE(has_cycle({3, 0}, marks));
}

TEST(OrderingSimulationTest, LargePopulationManyColors) {
  const std::uint32_t k = 8;
  OrderingProtocol protocol(k);
  util::Rng rng(77);
  const Workload w = analysis::random_counts(rng, 100, k);
  const auto colors = w.agent_colors(rng);
  pp::Population population(protocol, colors);
  auto scheduler = pp::make_scheduler(
      pp::SchedulerKind::kUniformRandom,
      static_cast<std::uint32_t>(colors.size()), rng(), &protocol);
  pp::Engine engine;
  const auto result = engine.run(protocol, population, *scheduler);
  EXPECT_TRUE(result.silent);
  expect_valid_ordering(protocol, population, k, "large population");
}

TEST(OrderingProtocolTest, StateNames) {
  OrderingProtocol protocol(4);
  EXPECT_EQ(protocol.state_name(protocol.encode({2, true, 3})), "c2L3");
  EXPECT_EQ(protocol.state_name(protocol.encode({1, false, 0})), "c1f0");
}

}  // namespace
}  // namespace circles::ext
