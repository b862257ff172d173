// Sparse-vs-dense equivalence of the QA-NT agent. QaNtAgent's period
// rollover walks only the classes its node has ever been able to evaluate;
// DenseAgent below is the dense formulation of the same §3.3 listing —
// every per-class loop runs over all K classes, and the eq.-4 knapsack
// sorts a fresh candidate list into a fresh supply vector each period.
// Seeded op sequences drive both and compare every observable bit for bit
// after every op; whenever the agent says an answer repeats, one batched
// call must equal that many single requests to the reference. The op
// sequences run on a lone agent (the one row of a pool of its own), and
// the first seed of each case again on one row of a shared AgentPool
// whose other rows are appended between the agent's ops. The pool's own
// cases follow (restarts, a block filled to its capacity), and the last
// test pins the rollover allocation-free.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lone_agent.h"
#include "market/clearing_book.h"
#include "market/qa_nt.h"
#include "query/cost_model.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace {

/// Heap allocations made by this test binary so far (see operator new
/// below); the allocation-free test reads it around the rollover.
std::atomic<int64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line: inlined, the malloc() behind new or
// the free() behind delete meets its partner's name at a call site, and
// GCC 12's -Wmismatched-new-delete reports a mismatch that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qa::market {
namespace {

using util::kMillisecond;
constexpr util::VDuration kCannot = query::kInfeasibleCost;

/// The dense reference agent: the QA-NT listing with every per-class loop
/// over all K classes. Wherever a price is set (construction, SetPrices)
/// it is moved into [price_floor, price_cap], as QaNtConfig documents.
class DenseAgent {
 public:
  DenseAgent(std::vector<util::VDuration> unit_costs,
             util::VDuration budget, QaNtConfig config)
      : costs_(std::move(unit_costs)),
        budget_(budget),
        config_(config),
        prices_(num_classes(),
                std::min(std::max(config.initial_price, config.price_floor),
                         config.price_cap)),
        planned_(num_classes()),
        remaining_(num_classes()) {}

  int num_classes() const { return static_cast<int>(costs_.size()); }
  bool CanEvaluate(int k) const { return cost(k) != kCannot; }
  util::VDuration cost(int k) const {
    return costs_[static_cast<size_t>(k)];
  }

  void BeginPeriod() {
    if (first_period_) {
      first_period_ = false;
    } else {
      util::VDuration floor = config_.bank_leftover_capacity ? -budget_ : 0;
      debt_ = std::max<util::VDuration>(debt_ + accepted_ - budget_, floor);
    }
    accepted_ = 0;
    remaining_budget_ = budget_ - debt_;
    planned_ = remaining_budget_ <= 0 ? QuantityVector(num_classes())
                                      : Knapsack(remaining_budget_);
    remaining_ = planned_;
    max_density_ = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      if (!CanEvaluate(k)) continue;
      max_density_ = std::max(
          max_density_, prices_[k] / static_cast<double>(cost(k)));
    }
  }

  bool SupplyRestrictionActive() const {
    if (config_.activation_threshold <= 0.0) return true;
    double max_price = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      max_price = std::max(max_price, prices_[k]);
    }
    return max_price >= config_.activation_threshold;
  }

  bool WouldAccept(int k) const {
    if (!CanEvaluate(k) || remaining_budget_ <= 0) return false;
    util::VDuration c = cost(k);
    if (c > remaining_budget_ &&
        (!config_.allow_min_one_offer || c <= budget_)) {
      return false;
    }
    if (!density_gate_active_ && !config_.density_gate_when_idle) {
      return true;
    }
    if (max_density_ <= 0.0) return false;
    double density = prices_[k] / static_cast<double>(c);
    return density >=
           config_.supply_density_tolerance * max_density_ - 1e-18;
  }

  bool OnRequest(int k) {
    ++stats_.requests_seen;
    if (!CanEvaluate(k)) return false;
    if (WouldAccept(k)) {
      ++stats_.offers_made;
      return true;
    }
    bool restricting = SupplyRestrictionActive();
    BumpPriceUp(k);
    if (restricting) {
      ++stats_.declines_no_supply;
    } else {
      ++stats_.offers_made;
    }
    return !restricting;
  }

  void OnOfferAccepted(int k) {
    ++stats_.offers_accepted;
    earnings_ += prices_[k];
    accepted_ += cost(k);
    remaining_budget_ -= cost(k);
    if (remaining_[k] > 0) remaining_[k] -= 1;
  }

  void EndPeriod() {
    density_gate_active_ = remaining_budget_ <= 0;
    for (int k = 0; k < num_classes(); ++k) {
      Quantity leftover =
          std::min<Quantity>(remaining_[k], config_.max_leftover_decay_units);
      if (leftover > 0) {
        double factor = 1.0 - config_.lambda * static_cast<double>(leftover);
        prices_[k] *= std::max(factor, 0.0);
      }
    }
    prices_.ClampFloor(config_.price_floor);
  }

  void SetPrices(PriceVector prices) {
    prices_ = std::move(prices);
    for (int k = 0; k < num_classes(); ++k) {
      prices_[k] = std::min(std::max(prices_[k], config_.price_floor),
                            config_.price_cap);
    }
    max_density_ = 0.0;
    for (int k = 0; k < num_classes(); ++k) {
      if (!CanEvaluate(k)) continue;
      max_density_ = std::max(
          max_density_, prices_[k] / static_cast<double>(cost(k)));
    }
  }

  void UpdateUnitCost(int k, util::VDuration c) {
    costs_[static_cast<size_t>(k)] = c;
  }

  const PriceVector& prices() const { return prices_; }
  const QuantityVector& planned_supply() const { return planned_; }
  const QuantityVector& remaining_supply() const { return remaining_; }
  util::VDuration debt() const { return debt_; }
  util::VDuration remaining_budget() const { return remaining_budget_; }
  double earnings() const { return earnings_; }
  bool density_gate_active() const { return density_gate_active_; }
  const QaNtAgentStats& stats() const { return stats_; }

 private:
  void BumpPriceUp(int k) {
    prices_[k] =
        std::min(prices_[k] * (1.0 + config_.lambda), config_.price_cap);
    if (CanEvaluate(k)) {
      max_density_ = std::max(
          max_density_, prices_[k] / static_cast<double>(cost(k)));
    }
  }

  /// The eq.-4 density greedy over all K classes.
  QuantityVector Knapsack(util::VDuration budget) const {
    std::vector<int> order;
    for (int k = 0; k < num_classes(); ++k) {
      if (CanEvaluate(k) && prices_[k] > 0.0) order.push_back(k);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      double da = prices_[a] / static_cast<double>(cost(a));
      double db = prices_[b] / static_cast<double>(cost(b));
      if (da != db) return da > db;
      return a < b;
    });
    QuantityVector supply(num_classes());
    for (int k : order) {
      Quantity fit = budget / cost(k);
      if (fit > 0) {
        supply[k] += fit;
        budget -= fit * cost(k);
      }
    }
    return supply;
  }

  std::vector<util::VDuration> costs_;
  util::VDuration budget_;
  QaNtConfig config_;
  PriceVector prices_;
  QuantityVector planned_;
  QuantityVector remaining_;
  util::VDuration accepted_ = 0;
  util::VDuration debt_ = 0;
  util::VDuration remaining_budget_ = 0;
  double max_density_ = 0.0;
  double earnings_ = 0.0;
  bool first_period_ = true;
  bool density_gate_active_ = false;
  /// Request tallies (periods stays 0: not compared).
  QaNtAgentStats stats_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Compares every observable of the two agents; returns "" when equal.
std::string Diff(const QaNtAgent& sparse, const DenseAgent& dense) {
  for (int k = 0; k < dense.num_classes(); ++k) {
    if (Bits(sparse.prices()[k]) != Bits(dense.prices()[k])) {
      return "price of class " + std::to_string(k);
    }
    if (sparse.WouldAccept(k) != dense.WouldAccept(k)) {
      return "WouldAccept(" + std::to_string(k) + ")";
    }
  }
  if (sparse.planned_supply() != dense.planned_supply()) return "planned";
  if (sparse.remaining_supply() != dense.remaining_supply()) {
    return "remaining";
  }
  if (sparse.debt() != dense.debt()) return "debt";
  if (sparse.remaining_budget() != dense.remaining_budget()) {
    return "remaining budget";
  }
  if (Bits(sparse.earnings()) != Bits(dense.earnings())) return "earnings";
  if (sparse.density_gate_active() != dense.density_gate_active()) {
    return "density gate";
  }
  const QaNtAgentStats& a = sparse.stats();
  const QaNtAgentStats& b = dense.stats();
  if (a.requests_seen != b.requests_seen || a.offers_made != b.offers_made ||
      a.offers_accepted != b.offers_accepted ||
      a.declines_no_supply != b.declines_no_supply) {
    return "stats";
  }
  return "";
}

/// A small cost menu against a 500 ms period makes exact density ties
/// common and includes classes that can never fit a period.
util::VDuration DrawCost(util::Rng& rng) {
  static constexpr util::VDuration kMenu[] = {100, 125, 250, 400, 700, 2000};
  return kMenu[rng.UniformInt(0, 5)] * kMillisecond;
}

/// Prices from a small menu (ties again), sometimes exactly zero.
double DrawPrice(util::Rng& rng) {
  static constexpr double kMenu[] = {0.0, 0.5, 1.0, 1.0, 2.0, 4.0, 0.05};
  return kMenu[rng.UniformInt(0, 6)];
}

QaNtConfig MakeConfig(int variant) {
  QaNtConfig config;
  switch (variant) {
    case 1:
      config.bank_leftover_capacity = false;
      break;
    case 2:
      config.activation_threshold = 1.5;
      break;
    case 3:
      config.density_gate_when_idle = true;
      break;
    case 4:
      config.lambda = 1.25;  // decay factors clamp to 0
      break;
    case 5:
      config.price_floor = 0.0;
      config.lambda = 1.0;  // leftover prices collapse to exactly 0
      break;
    case 6:
      config.allow_min_one_offer = false;
      config.lambda = 0.3;
      break;
    default:
      break;
  }
  return config;
}
constexpr int kNumConfigs = 7;

/// Share of evaluable classes per mask: none, exactly one (-1), sparse,
/// half, all. UpdateUnitCost ops then switch classes on and off.
constexpr double kMaskDensity[] = {0.0, -1.0, 0.03, 0.5, 1.0};

struct Case {
  int num_classes;
  int mask;
  int config;
};

/// How often the batched op ran, per answer; `to_fixed_point` counts the
/// batched declines that ended with the price at its fixed point.
struct RepeatCounts {
  int offers = 0;
  int declines = 0;
  int to_fixed_point = 0;
};

/// The rows around the agent under test when it lives in a shared pool:
/// other nodes' agents, built in shuffled node order before it and
/// between its ops (so rows are appended mid-run), each driven a little so
/// that its row's state moves too. A null pool leaves the agent alone.
class Neighbours {
 public:
  Neighbours(AgentPool* pool, uint64_t seed) : pool_(pool), rng_(seed) {
    if (pool_ == nullptr) return;
    for (catalog::NodeId j = 0; j < kRows; ++j) nodes_.push_back(j);
    for (size_t i = nodes_.size(); i > 1; --i) {
      std::swap(nodes_[i - 1], nodes_[static_cast<size_t>(rng_.UniformInt(
                                   0, static_cast<int64_t>(i) - 1))]);
    }
    int64_t before = rng_.UniformInt(0, 40);
    for (int64_t i = 0; i < before; ++i) Build();
  }

  /// The node of the agent under test: one the neighbours never take.
  static constexpr catalog::NodeId kAgentNode = 300;
  /// Nodes 0..kRows-1: the agent's and its neighbours', one row each.
  static constexpr int32_t kRows = 600;

  /// Builds one more neighbour now and then, and drives an old one.
  void Step() {
    if (pool_ == nullptr) return;
    if (rng_.Bernoulli(0.4)) Build();
    if (rows_.empty()) return;
    int32_t row = rows_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(rows_.size()) - 1))];
    int k = static_cast<int>(rng_.UniformInt(0, pool_->num_classes() - 1));
    QaNtAgent agent = pool_->agent(row);
    if (rng_.Bernoulli(0.2)) {
      agent.EndPeriod();
      agent.BeginPeriod();
    } else if (agent.OnRequest(k)) {
      agent.OnOfferAccepted(k);
    }
  }

 private:
  void Build() {
    if (next_ == nodes_.size()) return;
    catalog::NodeId node = nodes_[next_++];
    if (node == kAgentNode) return;
    std::vector<util::VDuration> costs(
        static_cast<size_t>(pool_->num_classes()));
    for (util::VDuration& cost : costs) {
      cost = rng_.Bernoulli(0.3) ? kCannot : DrawCost(rng_);
    }
    int32_t row = pool_->Append(node, costs);
    pool_->agent(row).BeginPeriod();
    rows_.push_back(row);
  }

  AgentPool* pool_;
  util::Rng rng_;
  std::vector<catalog::NodeId> nodes_;
  size_t next_ = 0;
  std::vector<int32_t> rows_;
};

/// Runs one seeded op sequence against the dense reference; `pooled` puts
/// the agent in a shared pool whose other rows are appended mid-run.
void RunCase(const Case& c, uint64_t seed, bool pooled,
             RepeatCounts* counts) {
  util::Rng rng(seed);
  std::vector<util::VDuration> costs(static_cast<size_t>(c.num_classes),
                                     kCannot);
  double density = kMaskDensity[c.mask];
  if (density < 0.0) {
    costs[static_cast<size_t>(rng.UniformInt(0, c.num_classes - 1))] =
        DrawCost(rng);
  } else {
    for (util::VDuration& cost : costs) {
      if (density >= 1.0 || rng.Bernoulli(density)) cost = DrawCost(rng);
    }
  }
  QaNtConfig config = MakeConfig(c.config);
  AgentPool pool(Neighbours::kRows, c.num_classes, 500 * kMillisecond,
                 config);
  // Its own stream, so that both runs of a seed see the same ops.
  Neighbours neighbours(pooled ? &pool : nullptr, ~seed);
  LoneAgent lone(0, costs, 500 * kMillisecond, config);
  QaNtAgent sparse =
      pooled ? pool.agent(pool.Append(Neighbours::kAgentNode, costs)) : lone;
  DenseAgent dense(costs, 500 * kMillisecond, config);
  sparse.BeginPeriod();
  dense.BeginPeriod();
  std::string label = "K=" + std::to_string(c.num_classes) +
                      " mask=" + std::to_string(c.mask) +
                      " config=" + std::to_string(c.config) +
                      (pooled ? " pooled" : "");
  ASSERT_EQ(Diff(sparse, dense), "") << label << " at start";

  for (int op = 0; op < 600; ++op) {
    neighbours.Step();
    int64_t draw = rng.UniformInt(0, 99);
    int k = static_cast<int>(rng.UniformInt(0, c.num_classes - 1));
    std::string name;
    if (draw < 6) {
      // Batched answers, sometimes far past the price's fixed point (from
      // the 1e-6 floor, lambda = 0.05 reaches the 1e12 cap in ~850 bumps).
      static constexpr int64_t kRepeats[] = {1, 2, 5, 40, 1200};
      if (!sparse.WouldAccept(k) && !sparse.DeclineSticks(k)) continue;
      name = "repeated requests";
      int64_t n = kRepeats[rng.UniformInt(0, 4)];
      bool answer = sparse.OnRepeatedRequests(k, n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(dense.OnRequest(k), answer)
            << label << " op " << op << " request " << i << " of " << n;
      }
      if (answer) {
        ++counts->offers;
      } else {
        ++counts->declines;
        if (sparse.PriceAtFixedPoint(k)) ++counts->to_fixed_point;
      }
    } else if (draw < 60) {
      name = "request";
      bool offered = sparse.OnRequest(k);
      ASSERT_EQ(offered, dense.OnRequest(k)) << label << " op " << op;
      // An offer the client turns down needs no call (the listing moves
      // no price when an offer loses); the draw stays, so the op stream
      // is the same either way.
      if (offered && rng.Bernoulli(0.6)) {
        sparse.OnOfferAccepted(k);
        dense.OnOfferAccepted(k);
      }
    } else if (draw < 82) {
      name = "rollover";
      sparse.EndPeriod();
      dense.EndPeriod();
      sparse.BeginPeriod();
      dense.BeginPeriod();
    } else if (draw < 94) {
      name = "unit cost";
      util::VDuration cost = rng.Bernoulli(0.5) ? kCannot : DrawCost(rng);
      sparse.UpdateUnitCost(k, cost);
      dense.UpdateUnitCost(k, cost);
    } else {
      name = "set prices";
      PriceVector prices(c.num_classes);
      for (int j = 0; j < c.num_classes; ++j) prices[j] = DrawPrice(rng);
      sparse.SetPrices(prices);
      dense.SetPrices(prices);
    }
    ASSERT_EQ(Diff(sparse, dense), "")
        << label << " after op " << op << " (" << name << ")";
  }
}

TEST(QaNtEquivalenceTest, SparseRolloverMatchesDenseReference) {
  uint64_t seed = 1;
  RepeatCounts counts;
  for (int num_classes : {1, 2, 7, 100}) {
    for (int mask = 0; mask < static_cast<int>(std::size(kMaskDensity));
         ++mask) {
      for (int config = 0; config < kNumConfigs; ++config) {
        for (int rep = 0; rep < 3; ++rep) {
          // The first seed of each case runs again as a pooled row.
          for (bool pooled : {false, true}) {
            if (pooled && rep > 0) continue;
            RunCase({num_classes, mask, config}, seed, pooled, &counts);
            if (HasFatalFailure()) return;
          }
          ++seed;
        }
      }
    }
  }
  // The batched op met both answers, and declines that hit the cap.
  EXPECT_GT(counts.offers, 100);
  EXPECT_GT(counts.declines, 100);
  EXPECT_GT(counts.to_fixed_point, 20);
}

/// A pool of `rows` two-class agents of nodes 0.. in order.
void Fill(AgentPool* pool, int rows) {
  for (int i = 0; i < rows; ++i) {
    catalog::NodeId node = pool->size();
    pool->agent(pool->Append(node, std::vector<util::VDuration>{
                                       100 * kMillisecond,
                                       (200 + 10 * node) * kMillisecond}))
        .BeginPeriod();
  }
}

TEST(AgentPoolTest, RowsAppendedUpToTheCapacityMoveNoRow) {
  constexpr int32_t kCapacity = 500;
  AgentPool pool(kCapacity, 2, 500 * kMillisecond, {});
  Fill(&pool, 3);
  QaNtAgent agent = pool.agent(0);
  ASSERT_TRUE(agent.OnRequest(0));
  agent.OnOfferAccepted(0);
  PriceVector set({3.0, 0.5});
  agent.SetPrices(set);
  PriceView prices = agent.prices();
  QuantityView remaining = agent.remaining_supply();
  QuantityVector left(std::vector<Quantity>(remaining.values().begin(),
                                            remaining.values().end()));
  QaNtAgentStats stats = agent.stats();
  util::VDuration budget = agent.remaining_budget();
  double earnings = agent.earnings();

  Fill(&pool, kCapacity - pool.size());
  ASSERT_EQ(pool.size(), kCapacity);
  // The block never moved: the views taken before still point at the
  // row's cells, and read its state.
  ASSERT_EQ(prices.values().data(), agent.prices().values().data());
  ASSERT_EQ(remaining.values().data(),
            agent.remaining_supply().values().data());
  EXPECT_EQ(prices[0], 3.0);
  EXPECT_EQ(prices[1], 0.5);
  EXPECT_EQ(remaining, left);
  EXPECT_EQ(agent.node(), 0);
  EXPECT_EQ(agent.remaining_budget(), budget);
  EXPECT_EQ(agent.earnings(), earnings);
  EXPECT_EQ(agent.stats().offers_accepted, stats.offers_accepted);
  EXPECT_EQ(agent.stats().requests_seen, stats.requests_seen);
  // It still moves its own row and no other.
  agent.EndPeriod();
  agent.BeginPeriod();
  EXPECT_EQ(agent.stats().periods, 2);
  EXPECT_EQ(pool.agent(1).stats().periods, 1);
  EXPECT_EQ(pool.agent(pool.size() - 1).stats().periods, 1);
}

TEST(AgentPoolTest, ResetMakesTheRowAFreshAgentInPlace) {
  AgentPool pool(4, 2, 500 * kMillisecond, {});
  Fill(&pool, 4);
  std::vector<util::VDuration> costs = {kCannot, 300 * kMillisecond};
  QaNtAgent agent = pool.agent(2);
  for (int i = 0; i < 20; ++i) {
    if (agent.OnRequest(i % 2)) agent.OnOfferAccepted(i % 2);
  }
  agent.EndPeriod();
  agent.BeginPeriod();
  ASSERT_GT(agent.earnings(), 0.0);

  pool.Reset(2, costs);
  agent.BeginPeriod();
  LoneAgent fresh(2, costs, 500 * kMillisecond);
  fresh.BeginPeriod();
  EXPECT_EQ(pool.size(), 4);
  EXPECT_EQ(agent.node(), 2);
  EXPECT_FALSE(agent.CanEvaluate(0));
  EXPECT_TRUE(
      std::ranges::equal(agent.prices().values(), fresh.prices().values()));
  EXPECT_EQ(agent.planned_supply(), fresh.planned_supply());
  EXPECT_EQ(agent.remaining_supply(), fresh.remaining_supply());
  EXPECT_EQ(agent.debt(), fresh.debt());
  EXPECT_EQ(agent.remaining_budget(), fresh.remaining_budget());
  EXPECT_EQ(agent.earnings(), 0.0);
  EXPECT_EQ(agent.density_gate_active(), fresh.density_gate_active());
  EXPECT_EQ(agent.stats().requests_seen, 0);
  EXPECT_EQ(agent.stats().periods, 1);
  // The rollover walks only the restarted row's own classes now.
  agent.EndPeriod();
  fresh.EndPeriod();
  EXPECT_TRUE(
      std::ranges::equal(agent.prices().values(), fresh.prices().values()));
}

TEST(ClearingBookTest, RestartKeepsTheNodesRow) {
  ClearingBook book(8, 2, 500 * kMillisecond, {});
  std::vector<util::VDuration> costs = {100 * kMillisecond,
                                        250 * kMillisecond};
  for (catalog::NodeId node : {5, 2, 7}) book.Put(node, costs).BeginPeriod();
  ASSERT_EQ(book.row_of(2), 1);
  QaNtAgent agent = book.mutable_agent(2);
  for (int i = 0; i < 6; ++i) {
    if (agent.OnRequest(1)) agent.OnOfferAccepted(1);
  }
  ASSERT_GT(book.agent(2).stats().offers_accepted, 0);

  book.Put(2, costs).BeginPeriod();  // the restart
  EXPECT_EQ(book.num_rows(), 3);
  EXPECT_EQ(book.row_of(2), 1);
  EXPECT_EQ(book.row_of(5), 0);
  EXPECT_EQ(book.row_of(7), 2);
  EXPECT_EQ(book.agent(2).node(), 2);
  EXPECT_EQ(book.agent(2).stats().requests_seen, 0);
  EXPECT_EQ(book.agent(2).stats().offers_accepted, 0);
  EXPECT_EQ(book.agent(2).earnings(), 0.0);
  EXPECT_FALSE(book.built(0));
}

TEST(QaNtEquivalenceTest, EveryConfigValidates) {
  for (int variant = 0; variant < kNumConfigs; ++variant) {
    EXPECT_TRUE(MakeConfig(variant).Validate().ok()) << "config " << variant;
  }
}

TEST(QaNtEquivalenceTest, RolloverMakesNoHeapAllocation) {
  std::vector<util::VDuration> costs(100, kCannot);
  for (int k = 0; k < 100; k += 9) costs[static_cast<size_t>(k)] = 200 + k;
  LoneAgent agent(0, costs, 500 * kMillisecond);
  agent.BeginPeriod();
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int period = 0; period < 50; ++period) {
    if (agent.OnRequest(period % 100)) agent.OnOfferAccepted(period % 100);
    agent.EndPeriod();
    agent.BeginPeriod();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(agent.stats().periods, 51);
}

}  // namespace
}  // namespace qa::market
