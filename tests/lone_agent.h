#ifndef QAMARKET_TESTS_LONE_AGENT_H_
#define QAMARKET_TESTS_LONE_AGENT_H_

#include <vector>

#include "catalog/catalog.h"
#include "market/qa_nt.h"
#include "util/vtime.h"

namespace qa::market {

/// A QA-NT agent driven on its own, as tests and references drive one: the
/// one row of a pool of its own. `unit_costs[k]` is the node's execution
/// time for one k-class query or query::kInfeasibleCost; `period_budget`
/// is the period T. It is a QaNtAgent, so every call and every copy of the
/// handle work as on a row of a shared pool. The handle points at the pool
/// this object holds, so a LoneAgent stays where it was built: it neither
/// copies nor moves (a function may still return one by value).
class LoneAgent : public QaNtAgent {
 public:
  LoneAgent(catalog::NodeId node,
            const std::vector<util::VDuration>& unit_costs,
            util::VDuration period_budget, const QaNtConfig& config = {})
      : QaNtAgent(&pool_, 0),
        pool_(1, static_cast<int>(unit_costs.size()), period_budget, config) {
    pool_.Append(node, unit_costs);
  }
  LoneAgent(const LoneAgent&) = delete;
  LoneAgent& operator=(const LoneAgent&) = delete;

 private:
  AgentPool pool_;
};

}  // namespace qa::market

#endif  // QAMARKET_TESTS_LONE_AGENT_H_
