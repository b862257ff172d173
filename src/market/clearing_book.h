#ifndef QAMARKET_MARKET_CLEARING_BOOK_H_
#define QAMARKET_MARKET_CLEARING_BOOK_H_

#include <cstdint>
#include <memory>
#include <span>
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
/// would give, bit for bit. A book that lists nothing holds one agent slot
/// per node and nothing else per node.
class ClearingBook {
 public:
  /// An empty book (no node, no class).
  ClearingBook() = default;
  /// One agent slot per node and one lane per listed (node, class) pair:
  /// `members[k]` lists the nodes a class-k broadcast reaches, in
  /// ascending id order. Every lane starts polled, and every slot empty.
  ClearingBook(int num_nodes,
               const std::vector<std::vector<catalog::NodeId>>& members);

  int num_nodes() const { return static_cast<int>(agents_.size()); }

  /// Sets the agent of `node`: its first build, or a restart. Whatever the
  /// old agent owed is dropped with it, and its lanes start polled.
  void Put(catalog::NodeId node, QaNtAgent agent);
  bool built(catalog::NodeId node) const {
    return agents_[static_cast<size_t>(node)] != nullptr;
  }
  /// The agent of `node`, every owed answer replayed. Requires built(node).
  const QaNtAgent& agent(catalog::NodeId node) const {
    Settle(node);
    return held(node);
  }
  /// As agent(), but replays only the declines that still move a price:
  /// quiet offers and inert declines owe only tallies.
  const QaNtAgent& priced_agent(catalog::NodeId node) const {
    if (lanes_of(node).moving > 0) Replay(node);
    return held(node);
  }
  /// As agent(), and its lanes are polled and its quiet offers leave the
  /// heaps: the caller may change anything about it, unit costs included,
  /// before the book's next call.
  QaNtAgent& mutable_agent(catalog::NodeId node);
  /// Settles `node`, rolls its agent over `periods` times (EndPeriod, then
  /// BeginPeriod) and polls its lanes: the new period starts with every
  /// answer open. Its quiet offers stay in the heaps and serve again once
  /// it turns quiet.
  void Roll(catalog::NodeId node, int64_t periods);

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

  QaNtAgent& held(catalog::NodeId node) const {
    return *agents_[static_cast<size_t>(node)];
  }
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
  /// Puts every lane of `node` on the lane its current state allows.
  /// Requires the node settled.
  void Reclassify(catalog::NodeId node);
  void SetLane(int32_t slot, Lane lane, bool moves);
  /// The cheapest quiet offer of class `k`; node -1 when there is none.
  Offer CheapestQuiet(int k);

  /// One slot per node; null until the node's agent is put.
  std::vector<std::unique_ptr<QaNtAgent>> agents_;
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
