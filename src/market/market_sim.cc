#include "market/market_sim.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace qa::market {

MarketSimulator::MarketSimulator(const query::CostModel* cost_model,
                                 MarketSimConfig config) {
  assert(cost_model != nullptr);
  util::AbortUnlessOk(config.agent.Validate(),
                      "MarketSimulator: invalid QaNtConfig");
  int num_nodes = cost_model->num_nodes();
  num_classes_ = cost_model->num_classes();
  agents_.reserve(static_cast<size_t>(num_nodes));
  slots_.resize(static_cast<size_t>(num_nodes) *
                static_cast<size_t>(num_classes_));
  for (int i = 0; i < num_nodes; ++i) {
    std::vector<util::VDuration> unit_costs(static_cast<size_t>(num_classes_));
    for (int k = 0; k < num_classes_; ++k) {
      util::VDuration c = cost_model->Cost(k, i);
      bool able = c != query::kInfeasibleCost;
      unit_costs[static_cast<size_t>(k)] =
          able ? c : CapacitySupplySet::kCannotEvaluate;
      if (able) slot(i, k).lane = Lane::kPolled;
    }
    agents_.emplace_back(i, std::move(unit_costs), config.period,
                         config.agent);
    pending_.emplace_back(num_classes_);
  }
  books_.resize(static_cast<size_t>(num_classes_));
  next_class_.resize(static_cast<size_t>(num_nodes));
  lanes_.resize(static_cast<size_t>(num_classes_));
}

MarketSimulator::PeriodResult MarketSimulator::RunPeriod(
    const std::vector<QuantityVector>& new_demands) {
  int num_nodes = this->num_nodes();
  int num_classes = this->num_classes();
  bool fits = static_cast<int>(new_demands.size()) == num_nodes;
  for (size_t i = 0; fits && i < new_demands.size(); ++i) {
    fits = new_demands[i].num_classes() == num_classes;
  }
  if (!fits) {
    std::fprintf(stderr,
                 "FATAL: MarketSimulator::RunPeriod: new_demands must hold "
                 "one %d-class vector per node (%d nodes), got %zu "
                 "vectors\n",
                 num_classes, num_nodes, new_demands.size());
    std::abort();
  }

  for (int i = 0; i < num_nodes; ++i) {
    pending_[static_cast<size_t>(i)] += new_demands[static_cast<size_t>(i)];
  }

  PeriodResult result;
  result.demands = pending_;
  result.consumptions.assign(static_cast<size_t>(num_nodes),
                             QuantityVector(num_classes));
  result.supplies.assign(static_cast<size_t>(num_nodes),
                         QuantityVector(num_classes));

  // Every agent plans its period and starts out polled on each class it
  // can evaluate; Reclassify then makes lazy whatever it can.
  for (ClassBook& book : books_) {
    book.requests = 0;
    book.polled.clear();
    book.quiet.clear();
  }
  for (int j = 0; j < num_nodes; ++j) {
    agents_[static_cast<size_t>(j)].BeginPeriod();
    for (int k = 0; k < num_classes; ++k) {
      Slot& s = slot(j, k);
      if (s.lane == Lane::kCannot) continue;
      std::vector<int>& polled = books_[static_cast<size_t>(k)].polled;
      s = {0, static_cast<int32_t>(polled.size()), Lane::kPolled, false};
      polled.push_back(j);
    }
  }
  for (int j = 0; j < num_nodes; ++j) Reclassify(j);

  // Clients drain their queues one query at a time, round-robin over the
  // clients that still have one, so that no client starves the market
  // within a period. Each places its lowest class first.
  to_place_ = pending_;
  clients_.clear();
  for (int i = 0; i < num_nodes; ++i) {
    const QuantityVector& queue = to_place_[static_cast<size_t>(i)];
    int k = 0;
    while (k < num_classes && queue[k] <= 0) ++k;
    next_class_[static_cast<size_t>(i)] = k;
    if (k < num_classes) clients_.push_back(i);
  }
  while (!clients_.empty()) {
    size_t kept = 0;
    for (int i : clients_) {
      QuantityVector& queue = to_place_[static_cast<size_t>(i)];
      int& k = next_class_[static_cast<size_t>(i)];
      queue[k] -= 1;
      Clear(i, k, &result);
      while (k < num_classes && queue[k] <= 0) ++k;
      if (k < num_classes) clients_[kept++] = i;
    }
    clients_.resize(kept);
  }

  for (int j = 0; j < num_nodes; ++j) {
    Sync(j);
    agents_[static_cast<size_t>(j)].EndPeriod();
  }

  result.aggregate_demand = Aggregate(result.demands);
  result.aggregate_consumption = Aggregate(result.consumptions);
  result.unserved = result.aggregate_demand - result.aggregate_consumption;
  return result;
}

void MarketSimulator::Clear(int client, int k, PeriodResult* result) {
  // The request reaches every node able to evaluate the class (the
  // query-trading framework collects offers from all relevant servers;
  // declining servers raise their prices, per the listing). Only the
  // polled agents answer now; the lazy lanes owe this answer from here on.
  ClassBook& book = books_[static_cast<size_t>(k)];
  ++book.requests;
  asked_.assign(book.polled.begin(), book.polled.end());
  Offer best{0, -1};
  for (int j : asked_) {
    Sync(j);
    if (agents_[static_cast<size_t>(j)].OnRequest(k)) {
      Offer offer = OfferOf(j, k);
      if (best.node < 0 || offer < best) best = offer;
    }
  }
  // The asked agents keep their lanes until the request is settled: one
  // that turns quiet now offers from the next request on, not this one.
  int quiet = CheapestQuiet(k);
  if (quiet >= 0) {
    Offer offer = OfferOf(quiet, k);
    if (best.node < 0 || offer < best) best = offer;
  }
  if (best.node >= 0) {
    // Accept the cheapest offer (best estimated execution time); losing
    // an offer changes nothing (QaNtAgent::OnOfferRejected).
    Sync(best.node);
    agents_[static_cast<size_t>(best.node)].OnOfferAccepted(k);
    result->consumptions[static_cast<size_t>(client)][k] += 1;
    result->supplies[static_cast<size_t>(best.node)][k] += 1;
    pending_[static_cast<size_t>(client)][k] -= 1;
    Reclassify(best.node);
  }
  // Without an offer the query is resubmitted next period.
  for (int j : asked_) Reclassify(j);
}

void MarketSimulator::Sync(int node) {
  QaNtAgent& agent = agents_[static_cast<size_t>(node)];
  for (int k = 0; k < num_classes_; ++k) {
    Slot& s = slot(node, k);
    if (s.lane != Lane::kSticky && s.lane != Lane::kQuiet) continue;
    int64_t owed = books_[static_cast<size_t>(k)].requests - s.seen;
    if (owed > 0) agent.OnRepeatedRequests(k, owed);
    s.seen += owed;
  }
}

void MarketSimulator::Reclassify(int node) {
  const QaNtAgent& agent = agents_[static_cast<size_t>(node)];
  bool quiet = false;
  for (int k = 0; k < num_classes_; ++k) {
    Lane& lane = lanes_[static_cast<size_t>(k)];
    lane = Lane::kCannot;
    if (slot(node, k).lane == Lane::kCannot) continue;
    if (agent.DeclineSticks(k)) {
      lane = Lane::kSticky;
    } else if (agent.WouldAccept(k)) {
      lane = Lane::kQuiet;
      quiet = true;
    } else {
      lane = Lane::kPolled;
    }
  }
  for (int k = 0; k < num_classes_; ++k) {
    Lane lane = lanes_[static_cast<size_t>(k)];
    if (lane == Lane::kCannot) continue;
    // A quiet offer repeats only while max density stays put, and a
    // decline whose price still moves raises it. Beside a quiet offer such
    // a class is polled, so each of its bumps lands when it happens (and
    // moves its price toward the fixed point).
    if (lane == Lane::kSticky && quiet && !agent.PriceAtFixedPoint(k)) {
      lane = Lane::kPolled;
    }
    SetLane(node, k, lane);
  }
}

void MarketSimulator::SetLane(int node, int k, Lane lane) {
  Slot& s = slot(node, k);
  ClassBook& book = books_[static_cast<size_t>(k)];
  s.seen = book.requests;
  if (s.lane == lane) return;
  if (s.lane == Lane::kPolled) {
    int moved = book.polled.back();
    book.polled[static_cast<size_t>(s.polled_at)] = moved;
    slot(moved, k).polled_at = s.polled_at;
    book.polled.pop_back();
    s.polled_at = -1;
  }
  if (lane == Lane::kPolled) {
    s.polled_at = static_cast<int32_t>(book.polled.size());
    book.polled.push_back(node);
  }
  if (lane == Lane::kQuiet && !s.in_heap) {
    book.quiet.push_back(OfferOf(node, k));
    std::push_heap(book.quiet.begin(), book.quiet.end(), std::greater<>());
    s.in_heap = true;
  }
  s.lane = lane;
}

int MarketSimulator::CheapestQuiet(int k) {
  std::vector<Offer>& heap = books_[static_cast<size_t>(k)].quiet;
  while (!heap.empty()) {
    Slot& s = slot(heap.front().node, k);
    if (s.lane == Lane::kQuiet) return heap.front().node;
    s.in_heap = false;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.pop_back();
  }
  return -1;
}

}  // namespace qa::market
