// Google-benchmark microbenchmarks of the market core: the per-period
// supply optimization (eq. 4), the QA-NT request path, the staggered
// period rollover of a whole market, the first-contact activation of a
// two-tier market's cluster, one tatonnement iteration, and the
// discrete-event queue. These bound the runtime overhead a node pays for
// running the query economy (the paper argues it is negligible next to
// query execution).

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "allocation/cluster_market.h"
#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "market/clearing_book.h"
#include "market/qa_nt.h"
#include "market/tatonnement.h"
#include "sim/event_queue.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa {
namespace {

using util::kMillisecond;

std::vector<util::VDuration> RandomCosts(int num_classes, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::VDuration> costs;
  for (int k = 0; k < num_classes; ++k) {
    costs.push_back(rng.UniformInt(50, 4000) * kMillisecond);
  }
  return costs;
}

void BM_SupplyMaximize(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::CapacitySupplySet set(RandomCosts(num_classes, 42),
                                500 * kMillisecond);
  util::Rng rng(7);
  market::PriceVector prices(num_classes);
  for (int k = 0; k < num_classes; ++k) {
    prices[k] = rng.UniformReal(0.1, 10.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.MaximizeValue(prices));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SupplyMaximize)->Arg(10)->Arg(100)->Arg(1000);

void BM_QaNtRequestPath(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::AgentPool pool(1, num_classes, 500 * kMillisecond, {});
  market::QaNtAgent agent =
      pool.agent(pool.Append(0, RandomCosts(num_classes, 42)));
  agent.BeginPeriod();
  util::Rng rng(7);
  for (auto _ : state) {
    int k = static_cast<int>(rng.UniformInt(0, num_classes - 1));
    if (agent.OnRequest(k)) agent.OnOfferAccepted(k);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QaNtRequestPath)->Arg(100)->Arg(1000);

void BM_QaNtPeriodRollover(benchmark::State& state) {
  int num_classes = static_cast<int>(state.range(0));
  market::AgentPool pool(1, num_classes, 500 * kMillisecond, {});
  market::QaNtAgent agent =
      pool.agent(pool.Append(0, RandomCosts(num_classes, 42)));
  for (auto _ : state) {
    agent.BeginPeriod();
    agent.EndPeriod();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QaNtPeriodRollover)->Arg(100)->Arg(1000);

// The mediator's period rollover, as QaNtAllocator::OnPeriodStart runs it:
// agents built in shuffled node order (as first contacts build them), each
// node's boundaries staggered at phase ((node+1)/N)*T, and one market tick
// of T/8 per iteration, which rolls every row whose boundary has passed.
// Items are rolls (one EndPeriod + BeginPeriod each).
void BM_StaggeredRollover(benchmark::State& state) {
  constexpr int kClasses = 2;
  constexpr util::VDuration kPeriod = 500 * kMillisecond;
  constexpr util::VDuration kTick = kPeriod / 8;
  int num_nodes = static_cast<int>(state.range(0));
  std::vector<catalog::NodeId> order(static_cast<size_t>(num_nodes));
  for (int j = 0; j < num_nodes; ++j) order[static_cast<size_t>(j)] = j;
  util::Rng rng(11);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  market::ClearingBook book(num_nodes, kClasses, kPeriod, {});
  std::vector<util::VDuration> costs(kClasses);
  std::vector<util::VTime> next;
  for (catalog::NodeId j : order) {
    for (util::VDuration& c : costs) c = rng.UniformInt(50, 400) * kMillisecond;
    book.Put(j, costs).BeginPeriod();
    next.push_back(kPeriod * (j + 1) / num_nodes);
  }
  util::VTime now = 0;
  int64_t rolls = 0;
  for (auto _ : state) {
    now += kTick;
    for (size_t row = 0; row < next.size(); ++row) {
      if (next[row] > now) continue;
      int64_t periods = 0;
      for (; next[row] <= now; next[row] += kPeriod) ++periods;
      book.Roll(static_cast<int32_t>(row), periods);
      rolls += periods;
    }
  }
  state.SetItemsProcessed(rolls);
}
BENCHMARK(BM_StaggeredRollover)->Arg(10000)->Arg(160000);

// First-contact activation of a two-tier market's cluster, as
// ClusterMarket::EnsureActive runs it when the top tier first solicits
// the cluster: index its 1,000 members (the id order, plus the cost order
// when the member tier samples stratified) and sum their default plans,
// on the two-class cost model of the benchmark's hier1m workload with no
// agent built yet. Each iteration activates a fresh cluster of a 64-cluster
// market; a new market is built, untimed, once all are active. Items are
// members activated.
void BM_ClusterActivation(benchmark::State& state,
                          allocation::SolicitationPolicy member_policy) {
  constexpr int kMembers = 1000;
  constexpr int kClusters = 64;
  constexpr int kNodes = kMembers * kClusters;
  constexpr util::VDuration kPeriod = 500 * kMillisecond;
  util::Rng rng(7);
  sim::TwoClassConfig scenario;
  scenario.num_nodes = kNodes;
  std::unique_ptr<query::MatrixCostModel> model =
      sim::BuildTwoClassCostModel(scenario, rng);
  allocation::ClusterPlan plan =
      allocation::ClusterPlan::Uniform(kNodes, kClusters, /*top_fanout=*/8);
  allocation::SolicitationConfig members;
  members.policy = member_policy;
  members.fanout = 8;
  market::ClearingBook book(kNodes, model->num_classes(), kPeriod, {});
  std::unique_ptr<allocation::ClusterMarket> market;
  int next = kClusters;
  for (auto _ : state) {
    if (next == kClusters) {
      state.PauseTiming();
      market = std::make_unique<allocation::ClusterMarket>(
          model.get(), plan, market::QaNtConfig{}, kPeriod, members);
      next = 0;
      state.ResumeTiming();
    }
    market->EnsureActive(next, book);
    benchmark::DoNotOptimize(market->agent(next).published().values().data());
    ++next;
  }
  state.SetItemsProcessed(state.iterations() * kMembers);
}
BENCHMARK_CAPTURE(BM_ClusterActivation, uniform,
                  allocation::SolicitationPolicy::kUniformSample);
BENCHMARK_CAPTURE(BM_ClusterActivation, stratified,
                  allocation::SolicitationPolicy::kStratifiedSample);

void BM_TatonnementIteration(benchmark::State& state) {
  int num_nodes = static_cast<int>(state.range(0));
  std::vector<market::CapacitySupplySet> sets;
  sets.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    sets.emplace_back(RandomCosts(100, 42 + static_cast<uint64_t>(i)),
                      500 * kMillisecond);
  }
  std::vector<const market::SupplySet*> set_ptrs;
  for (const auto& s : sets) set_ptrs.push_back(&s);
  market::QuantityVector demand(100);
  util::Rng rng(7);
  for (int k = 0; k < 100; ++k) demand[k] = rng.UniformInt(0, 50);
  market::TatonnementConfig config;
  config.max_iterations = 1;  // time a single price-adjustment round
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        market::RunTatonnement(demand, set_ptrs, config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TatonnementIteration)->Arg(10)->Arg(100);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue<int> q;
    q.Reserve(1000);
    int64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      q.Schedule(i, i);
    }
    q.RunAll([&fired](int) { ++fired; });
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace
}  // namespace qa

BENCHMARK_MAIN();
