#include "market/clearing_book.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace qa::market {

ClearingBook::ClearingBook(
    int num_nodes, int num_classes, util::VDuration period_budget,
    const QaNtConfig& config,
    const std::vector<std::vector<catalog::NodeId>>& members)
    : pool_(num_nodes, num_classes, period_budget, config),
      rows_(static_cast<size_t>(num_nodes), -1),
      books_(members.size()) {
  // Count each listed node's lanes, then lay the slots out node-major.
  // Walking the classes in order puts each node's slots in class order.
  size_t span = 0;
  for (const std::vector<catalog::NodeId>& listed : members) {
    if (!listed.empty()) {
      span = std::max(span, static_cast<size_t>(listed.back()) + 1);
    }
  }
  nodes_.resize(span);
  for (const std::vector<catalog::NodeId>& listed : members) {
    for (catalog::NodeId j : listed) ++nodes_[static_cast<size_t>(j)].end;
  }
  int32_t next = 0;
  size_t widest = 0;
  for (NodeLanes& n : nodes_) {
    widest = std::max(widest, static_cast<size_t>(n.end));
    n.begin = next;
    next += n.end;
    n.end = n.begin;
  }
  slots_.resize(static_cast<size_t>(next));
  lanes_.resize(widest);
  for (size_t k = 0; k < members.size(); ++k) {
    ClassBook& book = books_[k];
    book.listed = static_cast<int32_t>(members[k].size());
    book.detached = book.listed;
    book.polled.reserve(members[k].size());
    for (catalog::NodeId j : members[k]) {
      int32_t i = nodes_[static_cast<size_t>(j)].end++;
      Slot& s = slots_[static_cast<size_t>(i)];
      s.node = j;
      s.k = static_cast<int32_t>(k);
      s.polled_at = static_cast<int32_t>(book.polled.size());
      book.polled.push_back(i);
    }
  }
}

QaNtAgent ClearingBook::Put(catalog::NodeId node,
                            std::span<const util::VDuration> unit_costs) {
  int32_t& row = rows_[static_cast<size_t>(node)];
  if (row < 0) {
    NodeLanes n = lanes_of(node);
    for (int32_t i = n.begin; i < n.end; ++i) {
      --books_[static_cast<size_t>(slots_[static_cast<size_t>(i)].k)]
            .detached;
    }
    row = pool_.Append(node, unit_costs);
  } else {
    pool_.Reset(row, unit_costs);
  }
  Unlist(node);
  return pool_.agent(row);
}

QaNtAgent ClearingBook::mutable_agent(catalog::NodeId node) {
  Settle(node);
  Unlist(node);
  return pool_.agent(row_of(node));
}

void ClearingBook::PollLanes(catalog::NodeId node) {
  NodeLanes n = lanes_of(node);
  for (int32_t i = n.begin; i < n.end; ++i) SetLane(i, Lane::kPolled, false);
}

bool ClearingBook::Ready(int k) const {
  return books_[static_cast<size_t>(k)].detached == 0;
}

catalog::NodeId ClearingBook::Clear(int k) {
  // Only the polled agents answer now; the lazy lanes owe this answer from
  // here on.
  ClassBook& book = books_[static_cast<size_t>(k)];
  assert(book.detached == 0);
  ++book.requests;
  asked_.assign(book.polled.begin(), book.polled.end());
  Offer best{0, -1, -1};
  for (int32_t i : asked_) {
    catalog::NodeId j = slots_[static_cast<size_t>(i)].node;
    Settle(j);
    QaNtAgent asked = pool_.agent(row_of(j));
    if (asked.OnRequest(k)) {
      Offer offer{asked.unit_cost(k), j, i};
      if (best.node < 0 || offer < best) best = offer;
    }
  }
  // The asked agents keep their lanes until the request is settled: one
  // that turns quiet now offers from the next request on, not this one.
  Offer quiet = CheapestQuiet(k);
  if (quiet.node >= 0 && (best.node < 0 || quiet < best)) best = quiet;
  if (best.node >= 0) {
    // The listing moves prices only on trading failures (a decline, or
    // supply left at period end): losing to a cheaper offer is neither,
    // so only the winner hears back.
    Settle(best.node);
    pool_.agent(row_of(best.node)).OnOfferAccepted(k);
    Reclassify(best.node);
  }
  for (int32_t i : asked_) Reclassify(slots_[static_cast<size_t>(i)].node);
  return best.node;
}

catalog::NodeId ClearingBook::Poll(int k,
                                   std::span<const catalog::NodeId> nodes,
                                   OfferSelection selection) {
  // An offer carries its agent's own unit cost; ties go to the earliest.
  // Asking one agent moves no other's cost or earnings, so ranking each
  // offer as it comes equals ranking them all at the end.
  catalog::NodeId best = -1;
  int32_t best_row = -1;
  for (catalog::NodeId j : nodes) {
    Settle(j);
    QaNtAgent asked = pool_.agent(row_of(j));
    if (!asked.OnRequest(k)) continue;
    if (best < 0 ||
        (selection == OfferSelection::kEquitable
             ? asked.earnings() < pool_.agent(best_row).earnings()
             : asked.unit_cost(k) < pool_.agent(best_row).unit_cost(k))) {
      best = j;
      best_row = asked.row();
    }
  }
  // A losing offer moves no price, so only the winner hears back.
  if (best >= 0) pool_.agent(best_row).OnOfferAccepted(k);
  // The asked agents' states moved, so their standing answers may not.
  for (catalog::NodeId j : nodes) {
    if (lazy(j) > 0) Reclassify(j);
  }
  return best;
}

void ClearingBook::BeginPeriod() {
  for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
    pool_.agent(row_of(j)).BeginPeriod();
    Reclassify(j);
  }
}

void ClearingBook::EndPeriod() {
  for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
    Settle(j);
    pool_.agent(row_of(j)).EndPeriod();
  }
  for (ClassBook& book : books_) {
    book.requests = 0;
    book.polled.clear();
    book.quiet.clear();
  }
  for (NodeLanes& n : nodes_) {
    n.lazy = 0;
    n.moving = 0;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    std::vector<int32_t>& polled = books_[static_cast<size_t>(s.k)].polled;
    s.seen = 0;
    s.polled_at = static_cast<int32_t>(polled.size());
    s.lane = Lane::kPolled;
    s.in_heap = false;
    s.moves = false;
    polled.push_back(static_cast<int32_t>(i));
  }
}

void ClearingBook::Replay(catalog::NodeId node) const {
  NodeLanes n = nodes_[static_cast<size_t>(node)];
  QaNtAgent agent = pool_.agent(row_of(node));
  for (int32_t i = n.begin; i < n.end; ++i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    if (s.lane == Lane::kPolled) continue;
    int64_t owed = books_[static_cast<size_t>(s.k)].requests - s.seen;
    if (owed > 0) agent.OnRepeatedRequests(s.k, owed);
    s.seen += owed;
  }
}

void ClearingBook::Unlist(catalog::NodeId node) {
  NodeLanes n = lanes_of(node);
  for (int32_t i = n.begin; i < n.end; ++i) {
    Slot& s = slots_[static_cast<size_t>(i)];
    if (s.in_heap) {
      // Rare (restarts, direct agent access): a linear erase keeps the
      // heap free of keys whose cost may no longer be the agent's.
      std::vector<Offer>& heap = books_[static_cast<size_t>(s.k)].quiet;
      std::erase_if(heap, [i](const Offer& o) { return o.slot == i; });
      std::make_heap(heap.begin(), heap.end(), std::greater<>());
      s.in_heap = false;
    }
    SetLane(i, Lane::kPolled, false);
  }
}

void ClearingBook::Reclassify(catalog::NodeId node) {
  NodeLanes n = lanes_of(node);
  QaNtAgentView state = std::as_const(pool_).agent(row_of(node));
  bool quiet = false;
  for (int32_t i = n.begin; i < n.end; ++i) {
    int k = slots_[static_cast<size_t>(i)].k;
    Lane& lane = lanes_[static_cast<size_t>(i - n.begin)];
    if (state.DeclineSticks(k)) {
      lane = Lane::kSticky;
    } else if (state.WouldAccept(k)) {
      lane = Lane::kQuiet;
      quiet = true;
    } else {
      lane = Lane::kPolled;
    }
  }
  for (int32_t i = n.begin; i < n.end; ++i) {
    int k = slots_[static_cast<size_t>(i)].k;
    Lane lane = lanes_[static_cast<size_t>(i - n.begin)];
    // A quiet offer repeats only while max density stays put, and a
    // decline that is not inert raises it or the class's price. Beside a
    // quiet offer such a class is polled, so each of its bumps lands when
    // it happens (and moves its price toward the fixed point).
    bool moves = lane == Lane::kSticky && !state.DeclineIsInert(k);
    if (moves && quiet) {
      lane = Lane::kPolled;
      moves = false;
    }
    SetLane(i, lane, moves);
  }
}

void ClearingBook::SetLane(int32_t slot, Lane lane, bool moves) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  NodeLanes& n = nodes_[static_cast<size_t>(s.node)];
  ClassBook& book = books_[static_cast<size_t>(s.k)];
  s.seen = book.requests;
  n.moving += static_cast<int32_t>(moves) - static_cast<int32_t>(s.moves);
  s.moves = moves;
  if (s.lane == lane) return;
  if (s.lane == Lane::kPolled) {
    int32_t moved = book.polled.back();
    book.polled[static_cast<size_t>(s.polled_at)] = moved;
    slots_[static_cast<size_t>(moved)].polled_at = s.polled_at;
    book.polled.pop_back();
    s.polled_at = -1;
    ++n.lazy;
  } else if (lane == Lane::kPolled) {
    --n.lazy;
  }
  if (lane == Lane::kPolled) {
    s.polled_at = static_cast<int32_t>(book.polled.size());
    book.polled.push_back(slot);
  }
  if (lane == Lane::kQuiet && !s.in_heap) {
    book.quiet.push_back(
        {std::as_const(pool_).agent(row_of(s.node)).unit_cost(s.k), s.node,
         slot});
    std::push_heap(book.quiet.begin(), book.quiet.end(), std::greater<>());
    s.in_heap = true;
  }
  s.lane = lane;
}

ClearingBook::Offer ClearingBook::CheapestQuiet(int k) {
  std::vector<Offer>& heap = books_[static_cast<size_t>(k)].quiet;
  while (!heap.empty()) {
    Slot& s = slots_[static_cast<size_t>(heap.front().slot)];
    if (s.lane == Lane::kQuiet) return heap.front();
    s.in_heap = false;
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.pop_back();
  }
  return {0, -1, -1};
}

}  // namespace qa::market
