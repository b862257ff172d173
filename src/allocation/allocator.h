#ifndef QAMARKET_ALLOCATION_ALLOCATOR_H_
#define QAMARKET_ALLOCATION_ALLOCATOR_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "obs/metrics/market_probe.h"
#include "obs/snapshot.h"
#include "query/cost_model.h"
#include "util/task_runner.h"
#include "util/vtime.h"
#include "workload/trace.h"

namespace qa::obs::metrics {
class Collector;
}  // namespace qa::obs::metrics

namespace qa::allocation {

inline constexpr catalog::NodeId kNoNode = -1;

/// Read-only view of the federation an allocation mechanism may consult.
///
/// Which parts a mechanism actually touches is the autonomy story of
/// Table 2: QA-NT only uses the cost model entries of the *offering* nodes
/// (public information exchanged in the offers), whereas Greedy and
/// two-probes read NodeBacklog and BNQRD reads NodeCumulativeWork —
/// internal node state that a truly autonomous node would not disclose.
class AllocationContext {
 public:
  virtual ~AllocationContext() = default;

  virtual int num_nodes() const = 0;
  virtual const query::CostModel& cost_model() const = 0;
  /// Total remaining execution time queued at `node` (its backlog), in
  /// microseconds. Disclosing this violates node autonomy.
  virtual util::VDuration NodeBacklog(catalog::NodeId node) const = 0;
  /// Cumulative work ever assigned to `node`, in node-independent units
  /// (the sum of each assigned query's best-case cost over all nodes).
  /// This is the "CPU and I/O usage" notion BNQRD's unbalance factor
  /// spreads evenly — blind to how fast the node drains it.
  /// Autonomy-violating (central usage collection).
  virtual double NodeCumulativeWork(catalog::NodeId node) const = 0;
  virtual util::VTime now() const = 0;
  /// Whether `node` is currently reachable. Mechanisms that negotiate or
  /// probe get no reply from an offline node and must route around it;
  /// blind mechanisms (Random/RoundRobin) do not consult this and their
  /// assignments to dead nodes bounce at the network layer instead.
  virtual bool NodeOnline(catalog::NodeId /*node*/) const { return true; }
  /// True only when NodeOnline holds for every node for the rest of this
  /// allocation attempt. A mechanism may then skip asking about each
  /// node; false (the default) promises nothing.
  virtual bool EveryNodeOnline() const { return false; }
};

/// The outcome of one allocation attempt.
struct AllocationDecision {
  /// Chosen server, or kNoNode when every server declined (the client
  /// resubmits the query in the next time period — QA-NT semantics).
  catalog::NodeId node = kNoNode;
  /// Network messages this attempt cost (request/probe/offer/reply...).
  int messages = 0;
  /// Nodes the mediator solicited offers from for this attempt (the
  /// effective fanout; 0 for mechanisms that do not negotiate).
  int solicited = 0;
  /// Hierarchical market only: the cluster the top tier routed this
  /// attempt to (-1 under the flat market, or when every solicited
  /// cluster declined).
  int cluster = -1;
  /// Cluster sub-mediators the top tier solicited for this attempt (0
  /// under the flat market).
  int clusters_solicited = 0;
};

/// Static properties of a mechanism (columns of Table 2).
struct MechanismProperties {
  bool distributed = false;
  bool handles_dynamic_workload = false;
  /// Whether the mechanism physically pins a query to a single node and so
  /// conflicts with distributed query optimizers (Mariposa/SQPT) that want
  /// to split it (Table 2, "Conflict with query optimization").
  bool conflicts_with_query_optimization = false;
  bool respects_autonomy = false;
  /// Whether Allocate reads live node execution state from the context
  /// (NodeBacklog / NodeCumulativeWork). This is the autonomy story of
  /// Table 2 made operational for the sharded simulator: a mechanism that
  /// probes internal node state needs that state current at every
  /// allocation, which forces the mediator to synchronize with the node
  /// lanes at zero lookahead — so the federation drains every lane behind
  /// a fence before each mediator event. Autonomy-respecting
  /// mechanisms (QA-NT) and blind ones (Random, RoundRobin) never read it,
  /// so their lanes run ahead to the next market tick.
  bool reads_node_state = false;
};

/// A query-allocation mechanism: given an arriving query, pick the node
/// that will evaluate it (or decline).
class Allocator {
 public:
  virtual ~Allocator() = default;

  virtual std::string name() const = 0;
  virtual MechanismProperties properties() const = 0;

  /// Decides where `arrival` runs. Implementations may inspect the context
  /// (the simulator charges the disclosed information as messages).
  virtual AllocationDecision Allocate(const workload::Arrival& arrival,
                                      const AllocationContext& context) = 0;

  /// Period-boundary hooks (QA-NT runs its market period here; most
  /// baselines ignore them).
  virtual void OnPeriodStart(util::VTime now) { (void)now; }
  virtual void OnPeriodEnd(util::VTime now) { (void)now; }

  /// Failure-recovery hook: `node` crashed with loss of volatile state and
  /// has just come back up. Mechanisms that keep per-node learned state
  /// (QA-NT's private price vectors) reset that node to its configured
  /// defaults and re-learn it through ordinary market interaction;
  /// stateless baselines ignore the call and stay oblivious.
  virtual void OnNodeRestart(catalog::NodeId node, util::VTime now) {
    (void)node;
    (void)now;
  }

  /// Offers the mechanism a fork-join runner for intra-decision
  /// parallelism. No mechanism uses one and the federation hands none
  /// over (its lane drain is a run's only fork-join); the hook stays
  /// virtual because the benchmark's timing decorator overrides it to
  /// forward to the allocator it wraps. An implementation that used it
  /// would have to produce byte-identical results with or without it, at
  /// any concurrency. nullptr (the default state) means run
  /// sequentially. The runner must outlive the allocator or be reset
  /// first.
  virtual void SetTaskRunner(const util::TaskRunner* runner) {
    (void)runner;
  }

  /// Offers the mechanism the run's metrics collector (nullptr when none);
  /// the federation calls it once, at Run entry. No mechanism keeps it: a
  /// mechanism reads no clock, and the federation times its allocate and
  /// period-hook calls from outside (DESIGN.md §9). The hook stays virtual
  /// because the benchmark's timing decorator overrides it and takes the
  /// call as its run-start mark.
  virtual void SetMetricsCollector(obs::metrics::Collector* collector) {
    (void)collector;
  }

  /// Fast-path cousin of Snapshot() for the per-period health watchdogs:
  /// refills `probe` in place with per-agent prices and earnings (see
  /// obs::metrics::MarketProbe for the layout and the why). Mechanisms
  /// without market state leave the probe cleared — the watchdogs then
  /// skip their price-based detectors. Called every global period, so
  /// implementations must not allocate in steady state.
  virtual void FillMarketProbe(obs::metrics::MarketProbe* probe) const {
    probe->Clear();
  }

  /// Introspection for the telemetry layer: what this mechanism can show
  /// of its internal market state. QA-NT overrides this with the full
  /// per-agent private price/supply vectors; the default (all baselines)
  /// reports the mechanism name only. Message spend is not kept here: the
  /// federation sums AllocationDecision::messages into SimMetrics.
  /// Called off the allocation fast path (market-period cadence).
  virtual obs::AllocatorSnapshot Snapshot() const {
    obs::AllocatorSnapshot snapshot;
    snapshot.mechanism = name();
    return snapshot;
  }
};

}  // namespace qa::allocation

#endif  // QAMARKET_ALLOCATION_ALLOCATOR_H_
