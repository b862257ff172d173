#ifndef QAMARKET_MARKET_CLEARING_BOOK_H_
#define QAMARKET_MARKET_CLEARING_BOOK_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "market/qa_nt.h"
#include "util/vtime.h"

namespace qa::market {

/// The one clearing engine of the broadcast QA-NT auction (§3.3): every
/// request of class k reaches every node listed for k, and the cheapest
/// offer wins, ties to the lowest node id. Most answers cannot change until
/// the answering agent's own state moves, so the book asks only the agents
/// whose answer can, and replays the rest through
/// QaNtAgent::OnRepeatedRequests before anything reads the agent's state
/// (DESIGN.md §13). Its two users are the synchronous market
/// (MarketSimulator) and the live allocator (allocation::QaNtAllocator);
/// either gets what asking every listed agent every time would give, bit
/// for bit.
///
/// The book does not own the agents. Whoever does settles an agent
/// (Settle) before reading or changing it by other means than Clear, and
/// tells the book afterwards what became of its lanes (Reclassify, Repoll,
/// Release, Attach).
class ClearingBook {
 public:
  /// An empty book (no node, no class).
  ClearingBook() = default;
  /// One lane per (node, class) pair: `members[k]` lists the nodes a
  /// class-k request reaches, in ascending id order. Every lane starts
  /// polled, and every node detached.
  ClearingBook(int num_nodes,
               const std::vector<std::vector<catalog::NodeId>>& members);

  /// Whether every node listed for class `k` has an agent, so that
  /// Clear(k) may run.
  bool Ready(int k) const;

  /// Places one class-`k` request: counts it, asks the polled agents,
  /// takes the cheapest of their offers and the cheapest quiet offer, and
  /// settles the winner's acceptance. The winner and every asked agent get
  /// their lanes recomputed. Returns the winner, or -1 when every listed
  /// agent declined. Requires Ready(k).
  catalog::NodeId Clear(int k);

  /// Sets the agent of `node` (or replaces it, after a restart) and puts
  /// its lanes on kPolled: whatever the old agent owed is dropped with it,
  /// and its quiet entries leave the heaps.
  void Attach(catalog::NodeId node, QaNtAgent* agent);
  /// Replays the answers `node` owes on its lazy lanes.
  void Settle(catalog::NodeId node) {
    if (lanes_of(node).lazy > 0) Replay(node);
  }
  /// Settles `node` if it holds a sticky decline whose replay still moves
  /// its prices or max density; quiet offers and inert declines owe only
  /// tallies.
  void SettleMover(catalog::NodeId node) {
    if (lanes_of(node).moving > 0) Replay(node);
  }
  /// Puts every lane of `node` on kPolled. Requires Settle first. Its
  /// quiet entries stay in the heaps and serve again once it turns quiet,
  /// so its unit costs must not change (see Release).
  void Repoll(catalog::NodeId node) {
    if (lanes_of(node).lazy > 0) PollAll(node);
  }
  /// Settles `node`, puts its lanes on kPolled and takes its quiet entries
  /// out of the heaps: its owner may then change anything, unit costs
  /// included.
  void Release(catalog::NodeId node);
  /// Puts every lane of `node` on the lane its current state allows.
  /// Requires Settle first.
  void Reclassify(catalog::NodeId node);
  /// Reclassifies `node` if it holds a lazy lane. Requires Settle first.
  void Review(catalog::NodeId node) {
    if (lanes_of(node).lazy > 0) Reclassify(node);
  }
  /// Starts the request counts over at zero with every lane polled and
  /// every heap empty (the synchronous market's period start).
  void Reset();

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
  /// One node's lanes: slots [begin, end), node-major.
  struct NodeLanes {
    QaNtAgent* agent = nullptr;
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
    /// Listed nodes without an agent yet.
    int32_t detached = 0;
    /// Slots of the polled lanes.
    std::vector<int32_t> polled;
    /// Min-heap of the quiet offers; entries whose lane left kQuiet are
    /// dropped when they surface.
    std::vector<Offer> quiet;
  };

  const NodeLanes& lanes_of(catalog::NodeId node) const {
    return nodes_[static_cast<size_t>(node)];
  }
  QaNtAgent& agent(catalog::NodeId node) {
    return *nodes_[static_cast<size_t>(node)].agent;
  }
  /// Replays every owed answer of `node`.
  void Replay(catalog::NodeId node);
  /// Puts every lane of `node` on kPolled, keeping its quiet entries.
  void PollAll(catalog::NodeId node);
  void SetLane(int32_t slot, Lane lane, bool moves);
  /// Puts every lane of `node` on kPolled and takes its quiet entries out
  /// of the heaps.
  void Unlist(catalog::NodeId node);
  /// The cheapest quiet offer of class `k`; node -1 when there is none.
  Offer CheapestQuiet(int k);

  std::vector<NodeLanes> nodes_;
  std::vector<Slot> slots_;
  std::vector<ClassBook> books_;
  /// Per-request scratch: the slots a request polls; Reclassify's scratch:
  /// one lane per slot of the node.
  std::vector<int32_t> asked_;
  std::vector<Lane> lanes_;
};

}  // namespace qa::market

#endif  // QAMARKET_MARKET_CLEARING_BOOK_H_
