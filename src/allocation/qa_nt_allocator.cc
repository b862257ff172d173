#include "allocation/qa_nt_allocator.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace qa::allocation {

QaNtAllocator::QaNtAllocator(const query::CostModel* cost_model,
                             util::VDuration period,
                             market::QaNtConfig config,
                             market::OfferSelection selection,
                             SolicitationConfig solicitation, uint64_t seed,
                             ClusterPlan cluster_plan)
    : cost_model_(cost_model),
      period_(period),
      config_(config),
      selection_(selection),
      solicitation_(solicitation),
      seed_(seed) {
  assert(cost_model_ != nullptr);
  util::AbortUnlessOk(config_.Validate(), "QaNtAllocator: invalid QaNtConfig");
  // The broadcast auction's listing: empty unless the market is flat.
  std::vector<std::vector<catalog::NodeId>> members;
  // A single-cluster plan is structurally the flat market, so it runs the
  // flat code path — that degenerate identity is exactly what the
  // hierarchy equivalence tests pin down, and it means a plan can never
  // change a federation that has nothing to cluster.
  if (cluster_plan.hierarchical()) {
    cluster_market_ = std::make_unique<ClusterMarket>(
        cost_model_, std::move(cluster_plan), config_, period_);
  } else {
    // Only the flat market solicits from the whole federation; the
    // two-tier one reads each active cluster's member index instead.
    candidates_ = CandidateIndex(*cost_model_);
    if (!solicitation_.sampled() &&
        selection_ == market::OfferSelection::kCheapest) {
      // A class with one candidate stays off the listing: standing answers
      // would save it no poll, yet cost a reclassification per request.
      members.resize(static_cast<size_t>(candidates_.num_classes()));
      for (int k = 0; k < candidates_.num_classes(); ++k) {
        if (candidates_.ById(k).size() > 1) {
          members[static_cast<size_t>(k)] = candidates_.ById(k);
        }
      }
    }
  }
  book_ = market::ClearingBook(cost_model_->num_nodes(), members);
}

QaNtAllocator::~QaNtAllocator() = default;

market::QaNtAgent QaNtAllocator::MakeAgent(catalog::NodeId node) const {
  int num_classes = cost_model_->num_classes();
  std::vector<util::VDuration> unit_costs(static_cast<size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    util::VDuration c = cost_model_->Cost(k, node);
    unit_costs[static_cast<size_t>(k)] =
        c == query::kInfeasibleCost
            ? market::CapacitySupplySet::kCannotEvaluate
            : c;
  }
  market::QaNtAgent agent(node, std::move(unit_costs), period_, config_);
  agent.BeginPeriod();
  return agent;
}

util::VTime QaNtAllocator::Phase(catalog::NodeId node) const {
  // Autonomous nodes run unsynchronized periods: spread the first boundary
  // of agent i across [T/N, T].
  return period_ * (node + 1) / std::max(num_nodes(), 1);
}

int64_t QaNtAllocator::Advance(util::VTime* boundary, util::VTime now) const {
  int64_t periods = 0;
  for (; *boundary <= now; *boundary += period_) ++periods;
  return periods;
}

void QaNtAllocator::EnsureAgent(catalog::NodeId node) {
  assert(node >= 0 && node < num_nodes());
  if (book_.built(node)) return;
  book_.Put(node, MakeAgent(node));
  RosterEntry entry{node, Phase(node)};
  // Replay the rollovers the agent would have performed had it existed
  // since t=0. Only boundaries up to the last market *tick* are rolled
  // (not up to the current arrival time): an eagerly built agent also
  // rolls exclusively at tick times, and matching that exactly is what
  // keeps lazy instantiation byte-identical to the eager protocol.
  book_.Roll(node, Advance(&entry.next_refresh, last_rollover_now_));
  roster_.push_back(entry);
  if (cluster_market_ != nullptr) cluster_market_->OnMemberBuilt(node);
}

const market::QaNtAgent& QaNtAllocator::agent(catalog::NodeId node) const {
  const_cast<QaNtAllocator*>(this)->EnsureAgent(node);
  return book_.agent(node);
}

market::QaNtAgent& QaNtAllocator::mutable_agent(catalog::NodeId node) {
  EnsureAgent(node);
  return book_.mutable_agent(node);
}

MechanismProperties QaNtAllocator::properties() const {
  MechanismProperties p;
  p.distributed = true;
  p.handles_dynamic_workload = true;
  // QA-NT restricts the set of *offering* nodes instead of pinning the
  // query; distributed query optimizers can still split the query among
  // offerers, so there is no conflict (Table 2).
  p.conflicts_with_query_optimization = false;
  p.respects_autonomy = true;
  return p;
}

/// Salts the top tier's per-arrival sampling stream so its draws never
/// alias the member sampling made for the same arrival.
constexpr uint64_t kTopTierSeedSalt = 0x746965722d746f70ULL;  // "tier-top"

int QaNtAllocator::RouteToCluster(int k, uint64_t seq, int* asked) {
  // Each solicited sub-mediator offers iff its published-aggregate ledger
  // still shows supply for the class; the query routes to the offer with
  // the highest *supply density* — remaining aggregate per unit of quoted
  // cost. Routing on the quote alone would funnel every arrival into the
  // fastest cluster until its ledger drained, burning a retry per
  // mis-route; density is the commodity this tier actually trades (how
  // much eq.-4 supply the quoted price buys), so plentiful clusters absorb
  // load before hot ones over-promise. Ties (exact density equality)
  // break toward the earliest-solicited cluster via the strict > below — a
  // pure function of the per-arrival solicitation draw, so
  // byte-deterministic.
  *asked = SolicitNodes(
      cluster_market_->plan().top, cluster_market_->cluster_candidates(), k,
      util::SplitMix64(util::MixSeed(seed_ ^ kTopTierSeedSalt, seq)),
      &top_solicited_);
  int best_cluster = -1;
  double best_density = 0.0;
  int fallback_cluster = -1;
  for (catalog::NodeId c : top_solicited_) {
    cluster_market_->EnsureActive(c, book_);
    if (!cluster_market_->agent(c).OnSolicited(k)) {
      // An empty ledger is a worst-possible offer, not a refusal: the
      // first feasible decliner (solicitation order — a fresh uniform
      // draw per arrival, so load spreads) backstops the round when every
      // ledger is drained. The member auction, which knows the real
      // budgets, then settles it like a flat round would.
      if (fallback_cluster < 0 &&
          cluster_market_->Quote(c, k) != query::kInfeasibleCost) {
        fallback_cluster = c;
      }
      continue;
    }
    double density =
        static_cast<double>(cluster_market_->agent(c).remaining()[k]) /
        static_cast<double>(cluster_market_->Quote(c, k));
    if (best_cluster < 0 || density > best_density) {
      best_cluster = c;
      best_density = density;
    }
  }
  return best_cluster >= 0 ? best_cluster : fallback_cluster;
}

AllocationDecision QaNtAllocator::Allocate(const workload::Arrival& arrival,
                                           const AllocationContext& context) {
  AllocationDecision decision;
  int k = arrival.class_id;
  uint64_t seq = arrival_seq_++;
  // The flat market auctions the arrival among the whole federation; the
  // two-tier market first routes it to a cluster, then auctions it among
  // that cluster's members.
  const CandidateIndex* universe = &candidates_;
  if (cluster_market_ != nullptr) {
    decision.cluster = RouteToCluster(k, seq, &decision.clusters_solicited);
    // Solicitation + quote/decline reply per contacted sub-mediator.
    decision.messages = 2 * decision.clusters_solicited;
    if (decision.cluster < 0) {
      // No solicited cluster can evaluate this class at all; the client
      // resubmits next period, like an all-decline member auction.
      return decision;
    }
    universe = &cluster_market_->member_candidates(decision.cluster);
  }

  int asked = 0;
  if (Booked(k, context)) {
    // Every candidate is online and hears the request; the book asks only
    // those whose answer can change. Its "no winner" is kNoNode (-1).
    decision.solicited = static_cast<int>(candidates_.ById(k).size());
    asked = decision.solicited;
    decision.node = book_.Clear(k);
  } else {
    decision.solicited = SolicitNodes(
        solicitation_, *universe, k,
        util::SplitMix64(util::MixSeed(seed_, seq)), &solicited_);
    decision.node = ScanAndSettle(context, k, &asked);
  }
  // Request + offer/decline reply per asked node, plus the final accept.
  decision.messages += 2 * asked + 1;
  if (decision.cluster >= 0) {
    market::ClusterSupplyAgent& seat = cluster_market_->agent(decision.cluster);
    if (decision.node == kNoNode) {
      // The ledger over-promised (members sold out / went offline since
      // the last publish): correct it so follow-up queries stop routing
      // here.
      seat.MarkExhausted(k);
    } else {
      seat.OnSold(k);
    }
  }
  return decision;
}

bool QaNtAllocator::Booked(int k, const AllocationContext& context) {
  if (!book_.Lists(k) || !context.EveryNodeOnline()) return false;
  if (!book_.Ready(k)) {
    // A broadcast reaches every candidate: build those no earlier request
    // reached before the book asks any of them.
    for (catalog::NodeId j : candidates_.ById(k)) EnsureAgent(j);
  }
  return true;
}

catalog::NodeId QaNtAllocator::ScanAndSettle(const AllocationContext& context,
                                             int k, int* asked_out) {
  int asked = 0;
  for (catalog::NodeId j : solicited_) {
    // An offline node's agent is simply unreachable: the request times
    // out and no offer (or price move) happens. Autonomy makes failure
    // handling free — the market routes around dead nodes by itself.
    if (!context.NodeOnline(j)) continue;
    solicited_[static_cast<size_t>(asked++)] = j;
    EnsureAgent(j);
  }
  *asked_out = asked;
  // Without an offer the query is resubmitted next period.
  return book_.Poll(
      k, std::span<const catalog::NodeId>(solicited_.data(),
                                          static_cast<size_t>(asked)),
      selection_);
}

obs::AllocatorSnapshot QaNtAllocator::Snapshot() const {
  obs::AllocatorSnapshot snapshot;
  snapshot.mechanism = name();
  for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
    if (!book_.built(j)) continue;  // never contacted: no market state yet
    const market::QaNtAgent& agent = book_.agent(j);
    obs::AgentStateSnapshot state;
    state.node = j;
    state.prices = agent.prices().values();
    const auto& planned = agent.planned_supply().values();
    const auto& remaining = agent.remaining_supply().values();
    state.planned_supply.assign(planned.begin(), planned.end());
    state.remaining_supply.assign(remaining.begin(), remaining.end());
    const market::QaNtAgentStats& stats = agent.stats();
    state.requests_seen = stats.requests_seen;
    state.offers_made = stats.offers_made;
    state.offers_accepted = stats.offers_accepted;
    state.declines_no_supply = stats.declines_no_supply;
    state.periods = stats.periods;
    state.debt_us = agent.debt();
    state.remaining_budget_us = agent.remaining_budget();
    state.earnings = agent.earnings();
    snapshot.agents.push_back(std::move(state));
  }
  if (cluster_market_ != nullptr) {
    // Per-tier introspection: every *activated* cluster's top-market seat
    // (O(contacted clusters), matching the lazy-agent story one tier up).
    for (int c = 0; c < cluster_market_->num_clusters(); ++c) {
      if (!cluster_market_->active(c)) continue;
      const market::ClusterSupplyAgent& seat = cluster_market_->agent(c);
      obs::ClusterStateSnapshot state;
      state.cluster = c;
      state.published = seat.published().values();
      state.remaining = seat.remaining().values();
      state.sold = seat.sold();
      snapshot.clusters.push_back(std::move(state));
    }
  }
  return snapshot;
}

void QaNtAllocator::FillMarketProbe(obs::metrics::MarketProbe* probe) const {
  probe->Clear();
  probe->num_classes = cost_model_->num_classes();
  for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
    if (!book_.built(j)) continue;  // never contacted: no market state yet
    const market::QaNtAgent& agent = book_.priced_agent(j);
    const auto& prices = agent.prices().values();
    probe->prices.insert(probe->prices.end(), prices.begin(), prices.end());
    probe->earnings.push_back(agent.earnings());
  }
}

void QaNtAllocator::OnPeriodStart(util::VTime now) {
  // Record the tick *before* rolling: EnsureAgent replays rollovers for
  // lazily built agents up to exactly this time.
  last_rollover_now_ = now;
  for (RosterEntry& entry : roster_) {
    if (entry.next_refresh > now) continue;
    book_.Roll(entry.node, Advance(&entry.next_refresh, now));
  }
  if (cluster_market_ != nullptr) {
    // Sub-mediators publish after their members rolled: the aggregate a
    // cluster trades this period is the members' post-rollover supply.
    cluster_market_->OnTick(now, book_);
  }
}

void QaNtAllocator::OnNodeRestart(catalog::NodeId node, util::VTime now) {
  assert(node >= 0 && node < num_nodes());
  bool was_built = book_.built(node);
  // A restart instantiates the agent even if it was never contacted — the
  // rebuilt process is running from its configuration file either way, and
  // this matches the eager protocol's post-restart state exactly. What the
  // old agent owed is gone with its state.
  book_.Put(node, MakeAgent(node));
  // Keep the agent's staggered phase: its next boundary is the first one
  // of its original schedule that lies strictly after the restart.
  util::VTime next = Phase(node);
  Advance(&next, now);
  if (!was_built) {
    roster_.push_back({node, next});
    if (cluster_market_ != nullptr) cluster_market_->OnMemberBuilt(node);
    return;
  }
  // Restarts are rare, so a linear search beats keeping a node-indexed
  // map into the roster.
  auto entry = std::find_if(
      roster_.begin(), roster_.end(),
      [node](const RosterEntry& e) { return e.node == node; });
  assert(entry != roster_.end());
  entry->next_refresh = next;
}

}  // namespace qa::allocation
