// Book-vs-polling equivalence of the live QA-NT allocator. QaNtAllocator
// clears a flat broadcast arrival through market::ClearingBook whenever
// every node is online, asking only the agents whose answer can change
// (DESIGN.md, "One clearing engine"); PollingAllocator below keeps the
// allocator that asks every solicited agent on every arrival: lazily built
// agents, the staggered rollover roster, restarts and the bid scan, under
// broadcast or sampled solicitation and cheapest or equitable selection.
// Seeded scenarios drive both through a context whose reachability changes
// over time and compare every decision, probe and snapshot, and every
// agent's state bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "allocation/qa_nt_allocator.h"
#include "allocation/solicitation.h"
#include "obs/metrics/market_probe.h"
#include "obs/snapshot.h"
#include "query/cost_model.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::allocation {
namespace {

using market::QaNtAgent;
using market::QaNtConfig;
using util::kMillisecond;

constexpr util::VDuration kPeriod = 500 * kMillisecond;
constexpr util::VDuration kTick = kPeriod / 8;

using Selection = market::OfferSelection;

/// The reference: the flat QA-NT allocator, which asks every online
/// solicited candidate of the arrival's class: all of them under
/// broadcast, or the real allocator's per-arrival draw under a sampled
/// policy. The cheapest offer wins, or under equitable selection the
/// offer of the least earnings; ties go to the earliest asked.
class PollingAllocator {
 public:
  PollingAllocator(const query::CostModel* cost_model, QaNtConfig config,
                   Selection selection = Selection::kCheapest,
                   SolicitationConfig solicitation = {}, uint64_t seed = 0)
      : cost_model_(cost_model),
        config_(config),
        selection_(selection),
        solicitation_(solicitation),
        seed_(seed),
        candidates_(*cost_model) {
    agents_.resize(static_cast<size_t>(cost_model_->num_nodes()));
  }

  /// Arrivals whose winner was not the cheapest offer.
  int64_t non_cheapest_wins() const { return non_cheapest_wins_; }

  int num_nodes() const { return static_cast<int>(agents_.size()); }
  bool built(catalog::NodeId node) const {
    return agents_[static_cast<size_t>(node)] != nullptr;
  }
  QaNtAgent& agent(catalog::NodeId node) { return EnsureAgent(node); }

  AllocationDecision Allocate(int k, const AllocationContext& context) {
    AllocationDecision decision;
    uint64_t seq = arrival_seq_++;
    std::vector<catalog::NodeId> solicited;
    if (solicitation_.sampled()) {
      SolicitNodes(solicitation_, candidates_, k,
                   util::SplitMix64(util::MixSeed(seed_, seq)), &solicited);
    } else {
      for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
        if (cost_model_->CanEvaluate(k, j)) solicited.push_back(j);
      }
    }
    decision.solicited = static_cast<int>(solicited.size());
    std::vector<catalog::NodeId> offers;
    int asked = 0;
    for (catalog::NodeId j : solicited) {
      if (!context.NodeOnline(j)) continue;
      ++asked;
      if (EnsureAgent(j).OnRequest(k)) offers.push_back(j);
    }
    decision.messages = 2 * asked + 1;
    if (offers.empty()) return decision;
    catalog::NodeId best = offers[0];
    catalog::NodeId cheapest = offers[0];
    for (catalog::NodeId j : offers) {
      const QaNtAgent& offer = *agents_[static_cast<size_t>(j)];
      const QaNtAgent& leader = *agents_[static_cast<size_t>(best)];
      if (selection_ == Selection::kEquitable
              ? offer.earnings() < leader.earnings()
              : offer.unit_cost(k) < leader.unit_cost(k)) {
        best = j;
      }
      if (offer.unit_cost(k) <
          agents_[static_cast<size_t>(cheapest)]->unit_cost(k)) {
        cheapest = j;
      }
    }
    if (best != cheapest) ++non_cheapest_wins_;
    agents_[static_cast<size_t>(best)]->OnOfferAccepted(k);
    decision.node = best;
    return decision;
  }

  void OnPeriodStart(util::VTime now) {
    last_rollover_now_ = now;
    for (RosterEntry& entry : roster_) {
      if (entry.next_refresh > now) continue;
      QaNtAgent& agent = *agents_[static_cast<size_t>(entry.node)];
      do {
        agent.EndPeriod();
        agent.BeginPeriod();
        entry.next_refresh += kPeriod;
      } while (entry.next_refresh <= now);
    }
  }

  void OnNodeRestart(catalog::NodeId node, util::VTime now) {
    bool was_built = built(node);
    agents_[static_cast<size_t>(node)] = MakeAgent(node);
    util::VTime phase = Phase(node);
    util::VTime next = phase;
    if (now >= phase) next = phase + ((now - phase) / kPeriod + 1) * kPeriod;
    if (!was_built) {
      roster_.push_back({node, next});
      return;
    }
    for (RosterEntry& entry : roster_) {
      if (entry.node == node) entry.next_refresh = next;
    }
  }

  void FillMarketProbe(obs::metrics::MarketProbe* probe) const {
    probe->Clear();
    probe->num_classes = cost_model_->num_classes();
    for (const auto& agent : agents_) {
      if (agent == nullptr) continue;
      const auto& prices = agent->prices().values();
      probe->prices.insert(probe->prices.end(), prices.begin(), prices.end());
      probe->earnings.push_back(agent->earnings());
    }
  }

 private:
  struct RosterEntry {
    catalog::NodeId node;
    util::VTime next_refresh;
  };

  std::unique_ptr<QaNtAgent> MakeAgent(catalog::NodeId node) const {
    int num_classes = cost_model_->num_classes();
    std::vector<util::VDuration> unit_costs(static_cast<size_t>(num_classes));
    for (int k = 0; k < num_classes; ++k) {
      util::VDuration c = cost_model_->Cost(k, node);
      unit_costs[static_cast<size_t>(k)] =
          c == query::kInfeasibleCost
              ? market::CapacitySupplySet::kCannotEvaluate
              : c;
    }
    auto agent = std::make_unique<QaNtAgent>(node, std::move(unit_costs),
                                             kPeriod, config_);
    agent->BeginPeriod();
    return agent;
  }

  util::VTime Phase(catalog::NodeId node) const {
    return kPeriod * (node + 1) / num_nodes();
  }

  QaNtAgent& EnsureAgent(catalog::NodeId node) {
    size_t i = static_cast<size_t>(node);
    if (agents_[i] == nullptr) {
      agents_[i] = MakeAgent(node);
      RosterEntry entry{node, Phase(node)};
      while (entry.next_refresh <= last_rollover_now_) {
        agents_[i]->EndPeriod();
        agents_[i]->BeginPeriod();
        entry.next_refresh += kPeriod;
      }
      roster_.push_back(entry);
    }
    return *agents_[i];
  }

  const query::CostModel* cost_model_;
  QaNtConfig config_;
  Selection selection_;
  SolicitationConfig solicitation_;
  uint64_t seed_;
  CandidateIndex candidates_;
  uint64_t arrival_seq_ = 0;
  int64_t non_cheapest_wins_ = 0;
  util::VTime last_rollover_now_ = 0;
  std::vector<std::unique_ptr<QaNtAgent>> agents_;
  std::vector<RosterEntry> roster_;
};

/// A federation whose reachability the scenario sets: EveryNodeOnline may
/// be false while every node is online (a context that cannot tell), but
/// never true while one is offline.
class SwitchContext : public AllocationContext {
 public:
  explicit SwitchContext(const query::CostModel* model)
      : model_(model),
        online_(static_cast<size_t>(model->num_nodes()), 1) {}

  int num_nodes() const override { return model_->num_nodes(); }
  const query::CostModel& cost_model() const override { return *model_; }
  util::VDuration NodeBacklog(catalog::NodeId) const override { return 0; }
  double NodeCumulativeWork(catalog::NodeId) const override { return 0.0; }
  util::VTime now() const override { return now_; }
  bool NodeOnline(catalog::NodeId node) const override {
    return online_[static_cast<size_t>(node)] != 0;
  }
  bool EveryNodeOnline() const override { return every_online_; }

  /// Every node online; `reported` is what EveryNodeOnline says.
  void AllOnline(bool reported) {
    std::fill(online_.begin(), online_.end(), 1);
    every_online_ = reported;
  }
  /// Each node offline with probability one half.
  void SomeOffline(util::Rng& rng) {
    for (uint8_t& up : online_) up = rng.Bernoulli(0.5) ? 1 : 0;
    every_online_ = false;
  }
  void set_now(util::VTime now) { now_ = now; }

 private:
  const query::CostModel* model_;
  std::vector<uint8_t> online_;
  bool every_online_ = true;
  util::VTime now_ = 0;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The agent configs of market_sim_equivalence_test: one per corner of the
/// listing the standing answers lean on.
QaNtConfig MakeConfig(int variant) {
  QaNtConfig config;
  switch (variant) {
    case 1:
      config.activation_threshold = 1.5;
      break;
    case 2:
      config.allow_min_one_offer = false;
      break;
    case 3:
      config.density_gate_when_idle = true;
      break;
    case 4:
      config.lambda = 0.3;
      config.price_cap = 50.0;
      break;
    case 5:
      config.bank_leftover_capacity = false;
      break;
    case 6:
      config.supply_density_tolerance = 0.0;
      config.price_cap = 2.0;
      break;
    case 7:
      config.initial_price = 5.0;
      config.price_cap = 3.0;
      break;
    case 8:
      config.initial_price = 4.0;
      config.price_cap = 2.0;
      config.activation_threshold = 2.5;
      break;
    default:
      break;
  }
  return config;
}
constexpr int kNumConfigs = 9;

/// Costs on both sides of the period, from a small menu so that exact
/// cost ties (broken by node id) are common.
util::VDuration DrawCost(util::Rng& rng) {
  static constexpr util::VDuration kMenu[] = {50, 100, 125, 250,
                                              400, 700, 2000};
  return kMenu[rng.UniformInt(0, 6)] * kMillisecond;
}

/// Compares one agent of each side; "" when equal.
std::string DiffAgent(const QaNtAgent& x, const QaNtAgent& y, int classes) {
  for (int k = 0; k < classes; ++k) {
    if (Bits(x.prices()[k]) != Bits(y.prices()[k])) {
      return "price of class " + std::to_string(k) + ": " +
             std::to_string(x.prices()[k]) + " vs " +
             std::to_string(y.prices()[k]);
    }
  }
  if (x.planned_supply() != y.planned_supply()) return "planned";
  if (x.remaining_supply() != y.remaining_supply()) return "remaining supply";
  if (x.debt() != y.debt()) return "debt";
  if (x.remaining_budget() != y.remaining_budget()) return "budget";
  if (Bits(x.earnings()) != Bits(y.earnings())) return "earnings";
  if (x.density_gate_active() != y.density_gate_active()) return "gate";
  const market::QaNtAgentStats& s = x.stats();
  const market::QaNtAgentStats& t = y.stats();
  if (s.requests_seen != t.requests_seen) return "requests seen";
  if (s.offers_made != t.offers_made) return "offers made";
  if (s.offers_accepted != t.offers_accepted) return "offers accepted";
  if (s.declines_no_supply != t.declines_no_supply) return "declines";
  if (s.periods != t.periods) return "periods";
  return "";
}

/// Compares the built agents of both sides through the real allocator's
/// snapshot (which settles every agent) and accessor; "" when equal.
std::string DiffAgents(const QaNtAllocator& real, PollingAllocator& ref,
                       int classes) {
  obs::AllocatorSnapshot snapshot = real.Snapshot();
  size_t next = 0;
  for (catalog::NodeId j = 0; j < ref.num_nodes(); ++j) {
    bool in_snapshot = next < snapshot.agents.size() &&
                       snapshot.agents[next].node == j;
    if (in_snapshot != ref.built(j)) {
      return "built agents differ at node " + std::to_string(j);
    }
    if (!in_snapshot) continue;
    const obs::AgentStateSnapshot& state = snapshot.agents[next++];
    const QaNtAgent& y = ref.agent(j);
    std::string at = " of node " + std::to_string(j);
    for (int k = 0; k < classes; ++k) {
      if (Bits(state.prices[static_cast<size_t>(k)]) != Bits(y.prices()[k])) {
        return "snapshot price" + at;
      }
    }
    if (state.requests_seen != y.stats().requests_seen ||
        state.offers_made != y.stats().offers_made ||
        state.declines_no_supply != y.stats().declines_no_supply) {
      return "snapshot tallies" + at;
    }
    std::string diff = DiffAgent(real.agent(j), y, classes);
    if (!diff.empty()) return diff + at;
  }
  return "";
}

std::string DiffProbes(const obs::metrics::MarketProbe& a,
                       const obs::metrics::MarketProbe& b) {
  if (a.num_classes != b.num_classes) return "probe classes";
  if (a.prices.size() != b.prices.size()) return "probe agents";
  for (size_t i = 0; i < a.prices.size(); ++i) {
    if (Bits(a.prices[i]) != Bits(b.prices[i])) {
      return "probe price " + std::to_string(i);
    }
  }
  for (size_t i = 0; i < a.earnings.size(); ++i) {
    if (Bits(a.earnings[i]) != Bits(b.earnings[i])) {
      return "probe earnings " + std::to_string(i);
    }
  }
  return "";
}

/// Tallies of what the scenarios exercised.
struct Coverage {
  int64_t booked_arrivals = 0;
  int64_t polled_arrivals = 0;
  int64_t single_candidate_arrivals = 0;
  int64_t unit_cost_ops = 0;
  /// Arrivals that solicited fewer nodes than their class has candidates.
  int64_t sampled_arrivals = 0;
  /// Arrivals whose winner was not the cheapest offer.
  int64_t non_cheapest_wins = 0;
};

/// How the allocators of one scenario pick whom to ask and whom to take.
struct Mechanism {
  Selection selection = Selection::kCheapest;
  SolicitationConfig solicitation;
};

void RunScenario(uint64_t seed, Coverage* coverage,
                 Mechanism mechanism = {}) {
  static constexpr int kClassMenu[] = {1, 2, 3, 5};
  static constexpr int kNodeMenu[] = {1, 2, 4, 7, 12};
  util::Rng rng(seed);
  int num_classes = kClassMenu[rng.UniformInt(0, 3)];
  int num_nodes = kNodeMenu[rng.UniformInt(0, 4)];
  int variant = static_cast<int>(rng.UniformInt(0, kNumConfigs - 1));
  // Half the scenarios compare after every op; the rest only at ticks, so
  // that owed answers build up between reads.
  bool every_op = seed % 2 == 0;
  query::MatrixCostModel costs(num_classes, num_nodes);
  for (int k = 0; k < num_classes; ++k) {
    for (int j = 0; j < num_nodes; ++j) {
      if (rng.Bernoulli(0.7)) costs.SetCost(k, j, DrawCost(rng));
    }
  }
  QaNtConfig config = MakeConfig(variant);
  QaNtAllocator real(&costs, kPeriod, config, mechanism.selection,
                     mechanism.solicitation, seed);
  PollingAllocator ref(&costs, config, mechanism.selection,
                       mechanism.solicitation, seed);
  SwitchContext context(&costs);
  std::string label = "seed " + std::to_string(seed) + " K=" +
                      std::to_string(num_classes) + " N=" +
                      std::to_string(num_nodes) + " config=" +
                      std::to_string(variant);
  util::VTime now = 0;
  obs::metrics::MarketProbe real_probe;
  obs::metrics::MarketProbe ref_probe;

  for (int op = 0; op < 700; ++op) {
    int64_t draw = rng.UniformInt(0, 99);
    std::string name;
    std::string diff;
    if (draw < 62) {
      name = "arrival";
      int k = static_cast<int>(rng.UniformInt(0, num_classes - 1));
      workload::Arrival arrival;
      arrival.time = now;
      arrival.class_id = k;
      AllocationDecision a = real.Allocate(arrival, context);
      AllocationDecision b = ref.Allocate(k, context);
      if (a.node != b.node || a.messages != b.messages ||
          a.solicited != b.solicited) {
        diff = "decision: node " + std::to_string(a.node) + " vs " +
               std::to_string(b.node) + ", messages " +
               std::to_string(a.messages) + " vs " +
               std::to_string(b.messages) + ", solicited " +
               std::to_string(a.solicited) + " vs " +
               std::to_string(b.solicited);
      }
      int candidates = 0;
      for (catalog::NodeId j = 0; j < num_nodes; ++j) {
        candidates += costs.CanEvaluate(k, j) ? 1 : 0;
      }
      if (b.solicited < candidates) ++coverage->sampled_arrivals;
      if (b.solicited < 2) {
        ++coverage->single_candidate_arrivals;
      } else if (context.EveryNodeOnline()) {
        ++coverage->booked_arrivals;
      } else {
        ++coverage->polled_arrivals;
      }
    } else if (draw < 80) {
      name = "tick";
      now += kTick;
      context.set_now(now);
      real.OnPeriodStart(now);
      ref.OnPeriodStart(now);
      if (!every_op) diff = DiffAgents(real, ref, num_classes);
    } else if (draw < 83) {
      name = "restart";
      catalog::NodeId j =
          static_cast<catalog::NodeId>(rng.UniformInt(0, num_nodes - 1));
      real.OnNodeRestart(j, now);
      ref.OnNodeRestart(j, now);
    } else if (draw < 88) {
      name = "probe";
      real.FillMarketProbe(&real_probe);
      ref.FillMarketProbe(&ref_probe);
      diff = DiffProbes(real_probe, ref_probe);
    } else if (draw < 90) {
      name = "snapshot";
      diff = DiffAgents(real, ref, num_classes);
    } else if (draw < 94) {
      name = "unit cost";
      catalog::NodeId j =
          static_cast<catalog::NodeId>(rng.UniformInt(0, num_nodes - 1));
      int k = static_cast<int>(rng.UniformInt(0, num_classes - 1));
      util::VDuration cost = rng.Bernoulli(0.2)
                                 ? market::CapacitySupplySet::kCannotEvaluate
                                 : DrawCost(rng);
      real.mutable_agent(j).UpdateUnitCost(k, cost);
      ref.agent(j).UpdateUnitCost(k, cost);
      ++coverage->unit_cost_ops;
    } else {
      name = "reachability";
      int64_t mode = rng.UniformInt(0, 9);
      if (mode < 6) {
        context.AllOnline(/*reported=*/true);
      } else if (mode < 7) {
        context.AllOnline(/*reported=*/false);
      } else {
        context.SomeOffline(rng);
      }
    }
    if (diff.empty() && every_op) diff = DiffAgents(real, ref, num_classes);
    ASSERT_EQ(diff, "") << label << " op " << op << " (" << name << ")";
  }
  coverage->non_cheapest_wins += ref.non_cheapest_wins();
}

TEST(QaNtAllocatorEquivalenceTest, BookMatchesPollingReference) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    RunScenario(seed, &coverage);
    if (HasFatalFailure()) return;
  }
  // The scenarios reach every path the allocator can take.
  EXPECT_GT(coverage.booked_arrivals, 50000);
  EXPECT_GT(coverage.polled_arrivals, 30000);
  EXPECT_GT(coverage.single_candidate_arrivals, 30000);
  EXPECT_GT(coverage.unit_cost_ops, 8000);
}

// Sampled solicitation never books: each arrival asks a fresh draw of its
// class's candidates, the same per-arrival stream the real allocator draws
// through SolicitNodes. Fanouts 1 to 4 against 1 to 12 nodes cover both a
// real sample and a fanout that reaches every candidate.
TEST(QaNtAllocatorEquivalenceTest, SampledSolicitationMatchesPollingReference) {
  for (SolicitationPolicy policy : {SolicitationPolicy::kUniformSample,
                                    SolicitationPolicy::kStratifiedSample}) {
    Coverage coverage;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
      Mechanism mechanism;
      mechanism.solicitation.policy = policy;
      mechanism.solicitation.fanout = 1 + static_cast<int>(seed % 4);
      RunScenario(seed, &coverage, mechanism);
      if (HasFatalFailure()) return;
    }
    std::string name(SolicitationPolicyName(policy));
    EXPECT_GT(coverage.sampled_arrivals, 20000) << name;
    EXPECT_GT(coverage.polled_arrivals, 10000) << name;
    EXPECT_GT(coverage.unit_cost_ops, 2000) << name;
  }
}

// Equitable selection never books either: the offer of the least earnings
// wins, ties to the earliest asked.
TEST(QaNtAllocatorEquivalenceTest, EquitableSelectionMatchesPollingReference) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Mechanism mechanism;
    mechanism.selection = Selection::kEquitable;
    RunScenario(seed, &coverage, mechanism);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.non_cheapest_wins, 5000);
  EXPECT_GT(coverage.unit_cost_ops, 2000);
}

TEST(QaNtAllocatorEquivalenceTest, CostCutAboveMaxDensityKeepsDeclinePolled) {
  // Node 0 holds quiet offers for classes 0 and 2 when a cost cut puts
  // class 1's density above its max density while the remaining budget
  // bars class 1 at a capped price. That decline is not inert: its first
  // bump raises max density, which closes the density gate on class 0.
  // So class 1 must stay polled beside the quiet offers; replayed later,
  // its bump would land after class 0's offers instead of before.
  query::MatrixCostModel costs(3, 2);
  costs.SetCost(0, 0, 100 * kMillisecond);
  costs.SetCost(1, 0, 2000 * kMillisecond);
  costs.SetCost(2, 0, 100 * kMillisecond);
  costs.SetCost(0, 1, 50 * kMillisecond);
  costs.SetCost(1, 1, 2000 * kMillisecond);
  costs.SetCost(2, 1, 400 * kMillisecond);
  QaNtConfig config;
  config.initial_price = 2.0;
  config.price_cap = 2.0;
  config.density_gate_when_idle = true;
  QaNtAllocator real(&costs, kPeriod, config);
  PollingAllocator ref(&costs, config);
  SwitchContext context(&costs);
  market::PriceVector prices(3);
  prices[0] = 0.2;
  prices[1] = 2.0;
  prices[2] = 0.2;
  real.mutable_agent(0).SetPrices(prices);
  ref.agent(0).SetPrices(prices);
  auto arrive = [&](int k) {
    workload::Arrival arrival;
    arrival.class_id = k;
    AllocationDecision a = real.Allocate(arrival, context);
    AllocationDecision b = ref.Allocate(k, context);
    EXPECT_EQ(a.node, b.node) << "class " << k;
    return a.node;
  };
  // Node 0 sells four class-2 queries: 100 ms of budget remain.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(arrive(2), 0);
  real.mutable_agent(0).UpdateUnitCost(1, 150 * kMillisecond);
  ref.agent(0).UpdateUnitCost(1, 150 * kMillisecond);
  EXPECT_EQ(arrive(0), 1);
  EXPECT_EQ(arrive(1), kNoNode);
  EXPECT_EQ(arrive(0), 1);
  EXPECT_EQ(DiffAgents(real, ref, 3), "");
  // Class 0's first decline moved its price.
  EXPECT_GT(real.agent(0).prices()[0], 0.2);
}

TEST(QaNtAllocatorEquivalenceTest, EveryConfigValidates) {
  for (int variant = 0; variant < kNumConfigs; ++variant) {
    EXPECT_TRUE(MakeConfig(variant).Validate().ok()) << "config " << variant;
  }
}

}  // namespace
}  // namespace qa::allocation
