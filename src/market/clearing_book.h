#ifndef QAMARKET_MARKET_CLEARING_BOOK_H_
#define QAMARKET_MARKET_CLEARING_BOOK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "market/qa_nt.h"
#include "util/vtime.h"

namespace qa::market {

/// How a solicited auction (ClearingBook::Poll) picks among the offers.
enum class OfferSelection : uint8_t {
  /// Best estimated execution time: the offering agent's own unit cost
  /// (the paper's §3.3 semantics).
  kCheapest,
  /// The offering node with the least cumulative earnings — the
  /// "equitable allocation" extension of the paper's future work (§6):
  /// equalize the utility (virtual value earned) of all nodes.
  kEquitable,
};

/// The one home of a market's QA-NT agents, and the one place where a
/// QA-NT auction clears (§3.3, DESIGN.md §13): the broadcast auction of a
/// listed class (Clear) and the solicited one (Poll). A broadcast request
/// of class k reaches every node listed for k, and the cheapest offer wins,
/// ties to the lowest node id. Most answers cannot change until the
/// answering agent's own state moves, so the book asks only the agents
/// whose answer can, and replays the rest through
/// QaNtAgent::OnRepeatedRequests before any read of the agent: every read
/// settles by itself, and gets what asking every listed agent every time
/// would give, bit for bit.
///
/// The agents are the rows of one AgentPool with a row for every node,
/// appended in build order; a node-indexed map names each node's row (-1
/// until it is built), and a restart re-initializes the node's row in
/// place, so a row never changes its node. Beside the pool's block, a book
/// that lists nothing holds that one 4-byte map entry per node and nothing
/// else per node; the block is allocated once, and only built rows are
/// written.
class ClearingBook {
 public:
  /// An empty book (no node, no class).
  ClearingBook() = default;
  /// One map entry per node, an empty pool with room for every node's
  /// agent, of `num_classes` classes, whose agents share `period_budget`
  /// and `config` (which must validate), and one lane per listed (node,
  /// class) pair: `members[k]` lists the nodes a class-k broadcast
  /// reaches, in ascending id order. Every lane starts polled, and no node
  /// is built.
  ClearingBook(int num_nodes, int num_classes, util::VDuration period_budget,
               const QaNtConfig& config,
               const std::vector<std::vector<catalog::NodeId>>& members = {});

  int num_nodes() const { return static_cast<int>(rows_.size()); }
  /// Built agents, which are rows [0, num_rows()).
  int32_t num_rows() const { return pool_.size(); }

  /// Builds a fresh agent of `node` from `unit_costs` (one per class,
  /// query::kInfeasibleCost for a class it cannot run): its first build
  /// appends a row (AgentPool::Append), a restart resets the node's row
  /// (AgentPool::Reset). Whatever the old agent owed is dropped with it,
  /// and its lanes start polled. Returns the agent, which the caller may
  /// change as mutable_agent()'s may be.
  QaNtAgent Put(catalog::NodeId node,
                std::span<const util::VDuration> unit_costs);
  bool built(catalog::NodeId node) const { return row_of(node) >= 0; }
  /// The row of `node`'s agent, or -1 before its first build.
  int32_t row_of(catalog::NodeId node) const {
    return rows_[static_cast<size_t>(node)];
  }
  /// The agent of `node`, every owed answer replayed. Requires built(node).
  QaNtAgentView agent(catalog::NodeId node) const {
    Settle(node);
    return std::as_const(pool_).agent(row_of(node));
  }
  /// As agent(), by row.
  QaNtAgentView row_agent(int32_t row) const {
    QaNtAgentView agent = std::as_const(pool_).agent(row);
    Settle(agent.node());
    return agent;
  }
  /// As agent(), but replays only the declines that still move a price:
  /// quiet offers and inert declines owe only tallies.
  QaNtAgentView priced_agent(catalog::NodeId node) const {
    if (lanes_of(node).moving > 0) Replay(node);
    return std::as_const(pool_).agent(row_of(node));
  }
  /// As agent(), and its lanes are polled and its quiet offers leave the
  /// heaps: the caller may change anything about it, unit costs included,
  /// before the book's next call.
  QaNtAgent mutable_agent(catalog::NodeId node);
  /// Settles the agent in `row`, rolls it over `periods` times (EndPeriod,
  /// then BeginPeriod) and polls its lanes: the new period starts with
  /// every answer open. Its quiet offers stay in the heaps and serve again
  /// once it turns quiet.
  void Roll(int32_t row, int64_t periods) {
    QaNtAgent agent = pool_.agent(row);
    catalog::NodeId node = agent.node();
    Settle(node);
    for (int64_t i = 0; i < periods; ++i) {
      agent.EndPeriod();
      agent.BeginPeriod();
    }
    if (lazy(node) > 0) PollLanes(node);
  }

  /// Whether any node is listed for class `k`.
  bool Lists(int k) const {
    return static_cast<size_t>(k) < books_.size() &&
           books_[static_cast<size_t>(k)].listed > 0;
  }
  /// Whether every node listed for class `k` has an agent, so that
  /// Clear(k) may run.
  bool Ready(int k) const;
  /// The broadcast auction of one class-`k` request: counts it, asks the
  /// polled agents, takes the cheapest of their offers and the cheapest
  /// quiet offer, and settles the winner's acceptance. The winner and every
  /// asked agent get their lanes recomputed. Returns the winner, or -1 when
  /// every listed agent declined. Requires Ready(k).
  catalog::NodeId Clear(int k);
  /// The solicited auction of one class-`k` request: asks each of `nodes`
  /// (built, none twice), picks an offer by `selection`, ties to the
  /// earliest asked, and settles the winner's acceptance. Returns the
  /// winner, or -1 when every asked agent declined.
  catalog::NodeId Poll(int k, std::span<const catalog::NodeId> nodes,
                       OfferSelection selection);

  /// The synchronous market's period: every agent begins its period and
  /// its lanes take what its state allows; at the end every agent is
  /// settled and ends its period, and the counts start over at zero with
  /// every lane polled and every heap empty. Requires every node built.
  void BeginPeriod();
  void EndPeriod();

 private:
  /// How a request reaches one agent for one listed class.
  enum class Lane : uint8_t {
    kPolled,  // the answer can change: asked on every request
    kSticky,  // declines until the agent's next period (DeclineSticks)
    kQuiet,   // offers until its own state moves (WouldAccept)
  };
  struct Slot {
    /// Class requests this lane has answered while lazy; a lazy lane owes
    /// the rest of the class's count.
    int64_t seen = 0;
    catalog::NodeId node = 0;
    int32_t k = 0;
    /// Index in the class's polled list while kPolled.
    int32_t polled_at = -1;
    Lane lane = Lane::kPolled;
    /// Whether the class's quiet heap holds an entry for this lane.
    bool in_heap = false;
    /// A kSticky lane whose declines were not inert when it was set.
    bool moves = false;
  };
  /// One listed node's lanes: slots [begin, end), node-major.
  struct NodeLanes {
    int32_t begin = 0;
    int32_t end = 0;
    /// Lanes on kSticky or kQuiet, and those of them that move.
    int32_t lazy = 0;
    int32_t moving = 0;
  };
  /// An offer's rank: the cheapest execution time wins, ties go to the
  /// lowest node id.
  struct Offer {
    util::VDuration cost;
    catalog::NodeId node;
    int32_t slot;
    friend bool operator<(const Offer& a, const Offer& b) {
      return a.cost != b.cost ? a.cost < b.cost : a.node < b.node;
    }
    friend bool operator>(const Offer& a, const Offer& b) { return b < a; }
  };
  /// One class's requests and lanes.
  struct ClassBook {
    int64_t requests = 0;
    /// Nodes listed for the class, and those of them without an agent.
    int32_t listed = 0;
    int32_t detached = 0;
    /// Slots of the polled lanes.
    std::vector<int32_t> polled;
    /// Min-heap of the quiet offers; entries whose lane left kQuiet are
    /// dropped when they surface.
    std::vector<Offer> quiet;
  };

  /// The lanes of `node`: none past the highest listed id.
  NodeLanes lanes_of(catalog::NodeId node) const {
    return static_cast<size_t>(node) < nodes_.size()
               ? nodes_[static_cast<size_t>(node)]
               : NodeLanes{};
  }
  int32_t lazy(catalog::NodeId node) const { return lanes_of(node).lazy; }
  /// Replays every owed answer of `node`.
  void Replay(catalog::NodeId node) const;
  void Settle(catalog::NodeId node) const {
    if (lazy(node) > 0) Replay(node);
  }
  /// Puts every lane of `node` on kPolled and takes its quiet entries out
  /// of the heaps.
  void Unlist(catalog::NodeId node);
  /// Puts every lane of `node` on kPolled; its quiet entries stay in the
  /// heaps.
  void PollLanes(catalog::NodeId node);
  /// Puts every lane of `node` on the lane its current state allows.
  /// Requires the node settled.
  void Reclassify(catalog::NodeId node);
  void SetLane(int32_t slot, Lane lane, bool moves);
  /// The cheapest quiet offer of class `k`; node -1 when there is none.
  Offer CheapestQuiet(int k);

  /// Every built agent, in a block sized for every node. Settling replays
  /// answers into the agents, so the const reads settle too.
  mutable AgentPool pool_;
  /// The row of each node's agent; -1 until the node is built.
  std::vector<int32_t> rows_;
  /// One entry per node up to the highest listed id.
  std::vector<NodeLanes> nodes_;
  /// Settling advances only the answered counts, so the const reads
  /// settle too.
  mutable std::vector<Slot> slots_;
  std::vector<ClassBook> books_;
  /// Per-request scratch: the slots a request polls; Reclassify's scratch:
  /// one lane per slot of the node.
  std::vector<int32_t> asked_;
  std::vector<Lane> lanes_;
};

}  // namespace qa::market

#endif  // QAMARKET_MARKET_CLEARING_BOOK_H_
