#ifndef QAMARKET_ALLOCATION_QA_NT_ALLOCATOR_H_
#define QAMARKET_ALLOCATION_QA_NT_ALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "allocation/cluster_market.h"
#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "market/clearing_book.h"
#include "market/qa_nt.h"

namespace qa::allocation {

/// The paper's mechanism, packaged behind the Allocator interface: one
/// QaNtAgent per server node; an arriving query is offered to the solicited
/// subset of the nodes able to evaluate its class (all of them under the
/// paper's broadcast protocol, a bounded random fanout under the sampled
/// policies), each agent independently offers or declines per its private
/// prices/supply, and the client accepts the offer with the lowest
/// estimated execution time: the unit cost the offering agent holds. If
/// every agent declines, the query is resubmitted in the next time period
/// (decision.node == kNoNode).
///
/// The agents live in a market::ClearingBook, and every auction clears
/// there (DESIGN.md §13). The flat broadcast market under kCheapest lists
/// each class with more than one candidate, and an arrival of such a class
/// clears through the book's broadcast auction, which asks only the agents
/// whose answer can change, whenever the context reports every node
/// online. Every other attempt polls each solicited online agent.
class QaNtAllocator : public Allocator {
 public:
  /// Prepares one agent slot per node of `cost_model` with period budget
  /// `period`. Agents are instantiated lazily on first contact, so a
  /// 10,000-node federation where a sampled policy only ever touches a few
  /// hundred nodes never pays for the rest. The cost model pointer must
  /// outlive the allocator. `seed` feeds the per-arrival solicitation
  /// sampling streams (unused under broadcast).
  /// `cluster_plan`, when hierarchical (>= 2 clusters), turns on the
  /// two-tier market: arrivals are first routed to a cluster on the
  /// aggregate-supply top market, then auctioned among that cluster's
  /// members with the ordinary QA-NT protocol. An empty or single-cluster
  /// plan is the flat market: the same member auction over
  /// the whole federation, with no top-tier draw and no ledger publish.
  /// Aborts with a FATAL message unless `config` validates.
  QaNtAllocator(const query::CostModel* cost_model, util::VDuration period,
                market::QaNtConfig config = {},
                market::OfferSelection selection =
                    market::OfferSelection::kCheapest,
                SolicitationConfig solicitation = {}, uint64_t seed = 0,
                ClusterPlan cluster_plan = {});
  ~QaNtAllocator() override;

  std::string name() const override { return "QA-NT"; }
  MechanismProperties properties() const override;

  AllocationDecision Allocate(const workload::Arrival& arrival,
                              const AllocationContext& context) override;

  /// Market introspection over every *instantiated* agent (O(contacted),
  /// not O(N)): each agent's private price vector, the supply it planned
  /// at its last period rollover, the unsold leftover, and its cumulative
  /// request/offer/decline counters. Settles every agent first.
  obs::AllocatorSnapshot Snapshot() const override;

  /// Watchdog feed: prices and earnings of every instantiated agent, in
  /// node-id order (the population Snapshot() reports, minus the clones
  /// of the supply vectors that make Snapshot() too heavy for a
  /// per-period cadence). Steady-state allocation-free: the probe's
  /// buffers are cleared and refilled in place. Settles only the agents
  /// whose owed declines still move a price.
  void FillMarketProbe(obs::metrics::MarketProbe* probe) const override;

  /// Market refresh hook. The nodes are autonomous, so their periods are
  /// *staggered*: agent i's boundaries sit at phase ((i+1)/N)*T within the
  /// global period. Each call rolls over every instantiated agent whose
  /// boundary has passed (EndPeriod price decay + BeginPeriod re-solving
  /// eq. 4), which makes fresh supply appear continuously instead of in
  /// one synchronized burst. The walk covers the roster of instantiated
  /// agents only, so a tick costs O(contacted nodes), not O(N). Call this
  /// at a granularity finer than T (the federation's market tick).
  void OnPeriodStart(util::VTime now) override;

  /// Crash-with-state-loss recovery: the node's agent is rebuilt from the
  /// cost model and the configured QaNtConfig defaults — its learned price
  /// vector, debt and earnings are gone, exactly as if the process had
  /// restarted from its configuration file. The agent's staggered period
  /// phase is preserved so the restart does not re-synchronize the market.
  void OnNodeRestart(catalog::NodeId node, util::VTime now) override;

  int num_nodes() const { return book_.num_nodes(); }
  /// Accessing an agent instantiates it (caught up to the market tick) if
  /// no solicitation has reached it yet; the book settles what it owes.
  const market::QaNtAgent& agent(catalog::NodeId node) const;
  /// As agent(), and the book drops the agent's standing answers (it is
  /// asked afresh on its next request), so the caller may change anything
  /// about it, unit costs included, before the allocator's next call.
  market::QaNtAgent& mutable_agent(catalog::NodeId node);

  /// Null unless the plan passed at construction is hierarchical.
  const ClusterMarket* cluster_market() const {
    return cluster_market_.get();
  }

 private:
  /// Builds a fresh default-state agent for `node` (instantiation and
  /// crash/restart recovery share this).
  market::QaNtAgent MakeAgent(catalog::NodeId node) const;

  /// Tier 1 of the two-tier market: solicits cluster sub-mediators for
  /// arrival `seq` of class `k` and returns the cluster the arrival routes
  /// to, or -1 when no solicited cluster can evaluate the class. `*asked`
  /// receives the number of clusters solicited.
  int RouteToCluster(int k, uint64_t seq, int* asked);

  /// Whether this class-`k` attempt clears through the book's broadcast
  /// auction: the book lists the class and every node is online. Builds
  /// the class's candidates on its first booked request.
  bool Booked(int k, const AllocationContext& context);

  /// The solicited member auction: builds each online node of solicited_
  /// not built yet, moves them to its front and polls them through the
  /// book. Returns the winner (kNoNode when everyone declined); `*asked`
  /// receives the number of online nodes actually contacted.
  catalog::NodeId ScanAndSettle(const AllocationContext& context, int k,
                                int* asked);

  /// Instantiates the agent of `node` on first contact, replaying every
  /// period rollover up to the last market tick — which leaves it
  /// byte-identical to an agent that had existed (idle) since t=0,
  /// because an uncontacted agent's state is a pure function of its
  /// rollover count. A new agent joins the roster and, under a cluster
  /// plan, goes live in its cluster's ledger. Mediator lane only.
  void EnsureAgent(catalog::NodeId node);

  /// First boundary of `node`'s staggered period: ((node+1)/N)*T. The
  /// schedule exists for every node from t=0 even though the agent itself
  /// is built lazily.
  util::VTime Phase(catalog::NodeId node) const;
  /// Moves `*boundary` past `now` period by period; returns how many
  /// periods it moved.
  int64_t Advance(util::VTime* boundary, util::VTime now) const;

  /// An instantiated agent's place in the rollover.
  struct RosterEntry {
    catalog::NodeId node;
    /// Next boundary of the agent's own (staggered) period.
    util::VTime next_refresh;
  };

  const query::CostModel* cost_model_;
  util::VDuration period_;
  market::QaNtConfig config_;
  /// How the client picks among the offering nodes.
  market::OfferSelection selection_;
  SolicitationConfig solicitation_;
  uint64_t seed_;
  /// Arrivals allocated so far; arrival i's sampling stream is seeded with
  /// MixSeed(seed_, i), a pure function of (seed, arrival index).
  uint64_t arrival_seq_ = 0;
  /// Time of the most recent market tick — how far EnsureAgent must roll a
  /// newly instantiated agent forward.
  util::VTime last_rollover_now_ = 0;
  /// Federation-wide candidate lists: the flat market's auction universe.
  /// Empty when the plan is hierarchical.
  CandidateIndex candidates_;
  /// Every agent, one slot per node (empty until the node is first
  /// contacted), and every auction. Under broadcast and kCheapest it lists
  /// each flat class with more than one candidate; under a cluster plan, a
  /// sampled solicitation or equitable selection it lists nothing.
  market::ClearingBook book_;
  /// Every instantiated agent, in instantiation order: what the rollover
  /// walks. The order is free — each agent's rollover is a pure function
  /// of its own state.
  std::vector<RosterEntry> roster_;
  /// Top tier of the two-tier market; null when the plan is flat.
  std::unique_ptr<ClusterMarket> cluster_market_;
  /// Scratch buffers reused across arrivals (no hot-path allocation).
  /// ScanAndSettle moves the nodes it asks to the front of solicited_.
  std::vector<catalog::NodeId> solicited_;
  std::vector<catalog::NodeId> top_solicited_;
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_QA_NT_ALLOCATOR_H_
