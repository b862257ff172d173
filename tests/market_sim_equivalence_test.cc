// Lazy-vs-broadcast equivalence of the synchronous market. MarketSimulator
// asks only the agents whose answer can still change and replays the rest
// (DESIGN.md, "Synchronous market clearing"); BroadcastMarket below keeps
// the loop that asks every able agent every time, verbatim. Seeded
// scenarios drive both and compare every observable bit for bit after
// every period. The last test pins the capacity estimates every figure's
// load axis is a fraction of.

#include <gtest/gtest.h>

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lone_agent.h"
#include "market/market_sim.h"
#include "query/cost_model.h"
#include "sim/federation.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::market {
namespace {

using util::kMillisecond;

/// The reference market: every request is broadcast to every node able to
/// evaluate its class. RunPeriod's body is the broadcast loop verbatim.
class BroadcastMarket {
 public:
  BroadcastMarket(const query::CostModel* cost_model, MarketSimConfig config)
      : cost_model_(cost_model), config_(config) {
    int num_nodes = cost_model_->num_nodes();
    int num_classes = cost_model_->num_classes();
    for (int i = 0; i < num_nodes; ++i) {
      std::vector<util::VDuration> unit_costs(
          static_cast<size_t>(num_classes));
      for (int k = 0; k < num_classes; ++k) {
        unit_costs[static_cast<size_t>(k)] = cost_model_->Cost(k, i);
      }
      agents_.push_back(std::make_unique<LoneAgent>(
          i, unit_costs, config_.period, config_.agent));
      pending_.emplace_back(num_classes);
    }
  }

  int num_nodes() const { return static_cast<int>(agents_.size()); }
  int num_classes() const { return cost_model_->num_classes(); }
  const QaNtAgent& agent(int node) const {
    return *agents_[static_cast<size_t>(node)];
  }
  QaNtAgent& mutable_agent(int node) {
    return *agents_[static_cast<size_t>(node)];
  }
  const std::vector<QuantityVector>& pending() const { return pending_; }

  MarketSimulator::PeriodResult RunPeriod(
      const std::vector<QuantityVector>& new_demands) {
    using PeriodResult = MarketSimulator::PeriodResult;
    int num_nodes = this->num_nodes();
    int num_classes = this->num_classes();
    assert(static_cast<int>(new_demands.size()) == num_nodes);

    for (int i = 0; i < num_nodes; ++i) {
      pending_[static_cast<size_t>(i)] += new_demands[static_cast<size_t>(i)];
    }

    PeriodResult result;
    result.demands = pending_;
    result.consumptions.assign(static_cast<size_t>(num_nodes),
                               QuantityVector(num_classes));
    result.supplies.assign(static_cast<size_t>(num_nodes),
                           QuantityVector(num_classes));

    for (auto& agent : agents_) agent->BeginPeriod();

    // Clients drain their queues one query at a time, round-robin over
    // nodes, so that no client starves the market within a period.
    bool progress = true;
    std::vector<QuantityVector> to_place = pending_;
    while (progress) {
      progress = false;
      for (int i = 0; i < num_nodes; ++i) {
        QuantityVector& queue = to_place[static_cast<size_t>(i)];
        // Find the next class this client still has to place.
        int k = -1;
        for (int c = 0; c < num_classes; ++c) {
          if (queue[c] > 0) {
            k = c;
            break;
          }
        }
        if (k < 0) continue;
        queue[k] -= 1;
        progress = true;

        // Broadcast the request to every node able to evaluate the class
        // (the query-trading framework collects offers from all relevant
        // servers; declining servers raise their prices, per the listing).
        std::vector<int> offers;
        for (int j = 0; j < num_nodes; ++j) {
          if (!cost_model_->CanEvaluate(k, j)) continue;
          if (agents_[static_cast<size_t>(j)]->OnRequest(k)) {
            offers.push_back(j);
          }
        }
        if (offers.empty()) continue;  // resubmitted next period

        // Accept the cheapest offer (best estimated execution time); a
        // losing offer moves no price, so the rest hear nothing.
        int best = offers[0];
        for (int j : offers) {
          if (cost_model_->Cost(k, j) < cost_model_->Cost(k, best)) best = j;
        }
        agents_[static_cast<size_t>(best)]->OnOfferAccepted(k);
        result.consumptions[static_cast<size_t>(i)][k] += 1;
        result.supplies[static_cast<size_t>(best)][k] += 1;
        pending_[static_cast<size_t>(i)][k] -= 1;
      }
    }

    for (auto& agent : agents_) agent->EndPeriod();

    result.aggregate_demand = Aggregate(result.demands);
    result.aggregate_consumption = Aggregate(result.consumptions);
    result.unserved = result.aggregate_demand - result.aggregate_consumption;
    return result;
  }

 private:
  const query::CostModel* cost_model_;
  MarketSimConfig config_;
  std::vector<std::unique_ptr<LoneAgent>> agents_;
  std::vector<QuantityVector> pending_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::string DiffVectors(const std::vector<QuantityVector>& a,
                        const std::vector<QuantityVector>& b,
                        const std::string& name) {
  if (a.size() != b.size()) return name + " size";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return name + "[" + std::to_string(i) + "] " + a[i].ToString() +
             " vs " + b[i].ToString();
    }
  }
  return "";
}

/// Compares the two markets after a period; returns "" when equal.
std::string Diff(const MarketSimulator& lazy, const BroadcastMarket& ref,
                 const MarketSimulator::PeriodResult& a,
                 const MarketSimulator::PeriodResult& b) {
  std::string diff = DiffVectors(a.demands, b.demands, "demands");
  if (diff.empty()) diff = DiffVectors(a.consumptions, b.consumptions,
                                       "consumptions");
  if (diff.empty()) diff = DiffVectors(a.supplies, b.supplies, "supplies");
  if (diff.empty()) diff = DiffVectors(lazy.pending(), ref.pending(),
                                       "pending");
  if (!diff.empty()) return diff;
  if (a.aggregate_demand != b.aggregate_demand ||
      a.aggregate_consumption != b.aggregate_consumption ||
      a.unserved != b.unserved) {
    return "aggregates";
  }
  for (int j = 0; j < ref.num_nodes(); ++j) {
    QaNtAgentView x = lazy.agent(j);
    QaNtAgentView y = ref.agent(j);
    std::string at = " of node " + std::to_string(j);
    for (int k = 0; k < ref.num_classes(); ++k) {
      if (Bits(x.prices()[k]) != Bits(y.prices()[k])) {
        return "price of class " + std::to_string(k) + at + ": " +
               std::to_string(x.prices()[k]) + " vs " +
               std::to_string(y.prices()[k]);
      }
      if (x.WouldAccept(k) != y.WouldAccept(k)) {
        return "WouldAccept(" + std::to_string(k) + ")" + at;
      }
    }
    if (x.planned_supply() != y.planned_supply()) return "planned" + at;
    if (x.remaining_supply() != y.remaining_supply()) {
      return "remaining supply" + at;
    }
    if (x.debt() != y.debt()) return "debt" + at;
    if (x.remaining_budget() != y.remaining_budget()) return "budget" + at;
    if (Bits(x.earnings()) != Bits(y.earnings())) return "earnings" + at;
    if (x.density_gate_active() != y.density_gate_active()) {
      return "density gate" + at;
    }
    const QaNtAgentStats& s = x.stats();
    const QaNtAgentStats& t = y.stats();
    if (s.requests_seen != t.requests_seen) return "requests seen" + at;
    if (s.offers_made != t.offers_made) return "offers made" + at;
    if (s.offers_accepted != t.offers_accepted) return "offers accepted" + at;
    if (s.declines_no_supply != t.declines_no_supply) return "declines" + at;
    if (s.periods != t.periods) return "periods" + at;
  }
  return "";
}

/// One agent config per corner of the listing the lazy lanes lean on.
QaNtConfig MakeConfig(int variant) {
  QaNtConfig config;
  switch (variant) {
    case 1:
      config.activation_threshold = 1.5;  // permissive offers below it
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
      config.initial_price = 5.0;  // above the cap: clamped to it
      config.price_cap = 3.0;
      break;
    case 8:
      // The cap lies under the threshold: restriction never switches on.
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

/// Costs on both sides of the 500 ms period, from a small menu so that
/// exact cost ties (broken by node id) are common.
util::VDuration DrawCost(util::Rng& rng) {
  static constexpr util::VDuration kMenu[] = {50, 100, 125, 250,
                                              400, 700, 2000};
  return kMenu[rng.UniformInt(0, 6)] * kMillisecond;
}

double DrawPrice(util::Rng& rng) {
  static constexpr double kMenu[] = {0.0, 0.5, 1.0, 2.0, 3.0, 50.0, 1e12};
  return kMenu[rng.UniformInt(0, 6)];
}

void RunScenario(uint64_t seed) {
  static constexpr int kClassMenu[] = {1, 2, 3, 7};
  static constexpr int kNodeMenu[] = {1, 3, 8, 30, 40};
  util::Rng rng(seed);
  int num_classes = kClassMenu[rng.UniformInt(0, 3)];
  int num_nodes = kNodeMenu[rng.UniformInt(0, 4)];
  int variant = static_cast<int>(rng.UniformInt(0, kNumConfigs - 1));
  query::MatrixCostModel costs(num_classes, num_nodes);
  for (int k = 0; k < num_classes; ++k) {
    for (int j = 0; j < num_nodes; ++j) {
      if (!rng.Bernoulli(0.25)) costs.SetCost(k, j, DrawCost(rng));
    }
  }
  MarketSimConfig config;
  config.agent = MakeConfig(variant);
  MarketSimulator lazy(&costs, config);
  BroadcastMarket ref(&costs, config);
  std::string label = "seed " + std::to_string(seed) + " K=" +
                      std::to_string(num_classes) + " N=" +
                      std::to_string(num_nodes) + " config=" +
                      std::to_string(variant);

  for (int period = 0; period < 14; ++period) {
    // 0-4 clients, each posing a few queries of several classes, so that
    // the round-robin interleaves the classes.
    std::vector<QuantityVector> demand(static_cast<size_t>(num_nodes),
                                       QuantityVector(num_classes));
    int clients = static_cast<int>(rng.UniformInt(0, 4));
    for (int c = 0; c < clients; ++c) {
      QuantityVector& d =
          demand[static_cast<size_t>(rng.UniformInt(0, num_nodes - 1))];
      for (int k = 0; k < num_classes; ++k) {
        if (rng.Bernoulli(0.6)) d[k] += rng.UniformInt(0, 2 + num_nodes / 2);
      }
    }
    if (rng.Bernoulli(0.2)) {
      int node = static_cast<int>(rng.UniformInt(0, num_nodes - 1));
      PriceVector prices(num_classes);
      for (int k = 0; k < num_classes; ++k) prices[k] = DrawPrice(rng);
      lazy.SetPrices(node, prices);
      ref.mutable_agent(node).SetPrices(prices);
    }
    MarketSimulator::PeriodResult a = lazy.RunPeriod(demand);
    MarketSimulator::PeriodResult b = ref.RunPeriod(demand);
    ASSERT_EQ(Diff(lazy, ref, a, b), "") << label << " period " << period;
  }
}

TEST(MarketSimEquivalenceTest, LazyClearingMatchesBroadcastReference) {
  for (uint64_t seed = 1; seed <= 1600; ++seed) {
    RunScenario(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(MarketSimEquivalenceTest, EveryConfigValidates) {
  for (int variant = 0; variant < kNumConfigs; ++variant) {
    EXPECT_TRUE(MakeConfig(variant).Validate().ok()) << "config " << variant;
  }
}

TEST(MarketSimEquivalenceTest, CapacityEstimatesArePinned) {
  // The seed-42 two-class federations at 500 ms, mix 2:1, as the benches
  // build them. The broadcast market gave exactly these values.
  struct Pin {
    int nodes;
    double qps;
  };
  for (Pin pin : {Pin{60, 67.5}, Pin{100, 121.40000000000001},
                  Pin{1000, 1214.8}}) {
    util::Rng rng(42);
    sim::TwoClassConfig scenario;
    scenario.num_nodes = pin.nodes;
    auto model = sim::BuildTwoClassCostModel(scenario, rng);
    EXPECT_EQ(sim::EstimateCapacityQps(*model, {2.0, 1.0},
                                       500 * kMillisecond),
              pin.qps)
        << pin.nodes << " nodes";
  }
}

}  // namespace
}  // namespace qa::market
