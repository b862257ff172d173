#ifndef QAMARKET_SIM_FEDERATION_H_
#define QAMARKET_SIM_FEDERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "allocation/allocator.h"
#include "allocation/cluster_plan.h"
#include "allocation/solicitation.h"
#include "obs/metrics/collector.h"
#include "obs/metrics/watchdog.h"
#include "obs/recorder.h"
#include "obs/snapshot.h"
#include "query/cost_model.h"
#include "sim/admission.h"
#include "sim/event_queue.h"
#include "sim/faults/fault_injector.h"
#include "sim/faults/fault_plan.h"
#include "sim/metrics.h"
#include "sim/node.h"
#include "sim/shard.h"
#include "util/status.h"
#include "util/task_runner.h"
#include "workload/trace.h"

namespace qa::sim {

/// Timing and policy knobs of a federation run.
struct FederationConfig {
  /// Market time period T (drives the allocator's period hooks).
  util::VDuration period = 500 * util::kMillisecond;
  /// One-way network latency per message hop.
  util::VDuration message_latency = 1 * util::kMillisecond;
  /// Queries declined by every server are resubmitted at the next market
  /// tick, at most this many times before being dropped.
  int max_retries = 200;
  /// The market-driver granularity: allocator period hooks run every
  /// period / market_tick_divisor, so the staggered per-node periods of
  /// QA-NT refresh supply continuously and rejected queries retry without
  /// waiting a whole global period.
  int market_tick_divisor = 8;
  /// Declarative fault schedule (crashes with state loss, degraded
  /// capacity, lossy/delayed links, partitions, surges). A partitioned
  /// node keeps its state; mechanisms that negotiate or probe get no reply
  /// from it (a decline) and route around it, while blind ones (Random,
  /// RoundRobin) bounce off it and resubmit.
  faults::FaultPlan faults;
  /// Mediator retry backoff cap: after sustained all-decline market rounds
  /// the per-query retry interval escalates exponentially, but never past
  /// this many whole market periods.
  int max_backoff_periods = 4;
  /// Client response deadline (0 = none, the default). When set, a query
  /// whose sojourn (now - arrival) reaches the deadline is abandoned by
  /// its client: pending resubmissions stop, and a result completing after
  /// the deadline is discarded unread (the node's work is wasted — the
  /// realistic cost of serving a client that already gave up). Expired
  /// queries count as dropped (plus SimMetrics::expired), so conservation
  /// still holds: arrivals == completed + dropped.
  util::VDuration query_deadline = 0;
  /// Per-node queue bound: a delivery that would leave more than this many
  /// tasks waiting at a node sheds one task instead (which one is decided
  /// by `shed_policy`), accounted as SimMetrics::shed ⊆ dropped with a
  /// schema-v4 `shed` trace event. The default is effectively unbounded —
  /// the pre-overload behavior; ValidateConfig rejects values < 1.
  int max_node_queue = 1 << 30;
  /// Mediator retry-backlog bound: at most this many queries may sit in
  /// backed-off retry/defer state at once. Overflow is shed instead of
  /// rescheduled, so the retry set stays O(bound) rather than O(arrivals)
  /// during an outage. ValidateConfig rejects values < 1.
  int max_retry_backlog = 1 << 30;
  /// Which task loses when a shed bound trips.
  ShedPolicy shed_policy = ShedPolicy::kNewestFirst;
  /// Admission-control gate evaluated ahead of solicitation (off by
  /// default). The price-signal policy reads the allocator's MarketProbe
  /// once per global period — unconditionally, never gated on whether a
  /// metrics collector is attached, because admission changes simulation
  /// behavior.
  AdmissionConfig admission;
  /// Optional telemetry sink (not owned; must outlive the run). When set,
  /// the federation streams event spans and per-period allocator snapshots
  /// into it, closed by the run's totals (one `run` record); when null
  /// every probe is a single branch.
  obs::Recorder* recorder = nullptr;
  /// Optional metrics collector (not owned; must outlive the run). When
  /// set, the federation streams deterministic per-period samples and
  /// watchdog alarms into it and attributes wall-clock time to run phases.
  /// Wall time is a side channel only: it never feeds simulation state or
  /// trace bytes, so attaching a collector cannot perturb a run
  /// (DESIGN.md §9). Null = every probe is a single branch.
  obs::metrics::Collector* metrics = nullptr;
  /// Watchdog thresholds for the market-health detectors evaluated each
  /// global period (only when `metrics` is set).
  obs::metrics::WatchdogConfig watchdogs;
  /// Allocator RNG seed, recorded in the trace meta line for provenance.
  /// Also the default seed of the fault injector's message-loss RNG (see
  /// faults::FaultPlan::seed).
  int64_t seed = 0;
  /// QA-NT offer-solicitation fanout policy. Carried here so runs record
  /// it in the trace meta line and ValidateConfig rejects bad fanouts; the
  /// experiment runner forwards it into AllocatorParams. Mechanisms other
  /// than QA-NT ignore it.
  allocation::SolicitationConfig solicitation;
  /// Hierarchical two-tier market plan (DESIGN.md §12). Disabled (the
  /// default) runs the classic flat single-mediator market. When enabled
  /// with >= 2 clusters, each cluster runs its own QA-NT sub-mediator and
  /// a top-level market routes queries by aggregate supply. Validated by
  /// ValidateConfig; forwarded into AllocatorParams by the experiment
  /// runner. Mechanisms other than QA-NT ignore it.
  allocation::ClusterPlan cluster_plan;
  /// Node-lane count of the simulator core: nodes are split into this many
  /// lanes (stable id-hash, see ShardPlan), each draining its own event
  /// queue up to the fences the mechanism's fence policy sets (see
  /// Federation). Every run uses lanes, one by default. Results are
  /// byte-identical at every (shards, runner) combination — the lane count
  /// is an execution layout, never a semantic knob.
  int shards = 1;
  /// Fork-join runner the lanes are drained on: the lane drain at a tick
  /// fence is a run's only fork-join (the allocator never forks). Not
  /// owned; must outlive the run. Null = fully sequential: the lanes drain
  /// one after another on the calling thread.
  const util::TaskRunner* runner = nullptr;
};

/// Rejects misconfigured runs before they produce silent nonsense:
/// non-positive period, market_tick_divisor < 1, negative message latency
/// or retry budget, max_backoff_periods < 1, shards < 1, shed bounds < 1,
/// malformed admission bands, and anything FaultPlan::Validate rejects.
/// Federation::Run calls this at entry and aborts on error; callers
/// building configs from external input should call it themselves and
/// surface the Status.
util::Status ValidateConfig(const FederationConfig& config, int num_nodes);

/// The tagged event payload of the federation's discrete-event loop.
///
/// A small POD dispatched by Federation::Dispatch on its kind, replacing
/// the previous per-event heap-allocated std::function closure: millions
/// of arrivals/deliveries/completions per run now cost zero allocations
/// and no indirect calls. The two payload variants never coexist, so they
/// share storage in a union (both are trivially copyable).
struct SimEvent {
  enum class Kind : uint8_t {
    /// A query arrives at (or is resubmitted to) the client's mediator.
    kArrival,
    /// An assigned query reaches its server after the network delay.
    kDeliver,
    /// The task running on `node` finishes.
    kComplete,
    /// Periodic market driver (allocator period hooks, retry clock).
    kMarketTick,
    /// A fault-plan transition fires (crash / restart / degrade or surge
    /// edge).
    kFault,
  };

  /// Arrival payload: the pending query a mediator must (re)place.
  struct Pending {
    workload::Arrival arrival;
    query::QueryId id;
    int attempts;
    /// True once the query passed the admission gate (or was reconstructed
    /// from a lost task — tasks exist only past the gate). Admitted queries
    /// skip the gate on retries: admission decides who *enters* the market,
    /// not who may finish. Union member — every creation site must set it.
    bool admitted;
  };

  Kind kind;
  /// Target server of kDeliver/kComplete.
  catalog::NodeId node;
  union {
    Pending pending;                             // kArrival
    QueryTask task;                              // kDeliver / kComplete
    faults::FaultInjector::Transition transition;  // kFault
  };

  static SimEvent MakeArrival(const Pending& pending) {
    return SimEvent(pending);
  }
  static SimEvent MakeDeliver(catalog::NodeId node, const QueryTask& task) {
    return SimEvent(Kind::kDeliver, node, task);
  }
  static SimEvent MakeComplete(catalog::NodeId node, const QueryTask& task) {
    return SimEvent(Kind::kComplete, node, task);
  }
  static SimEvent MakeMarketTick() { return SimEvent(); }
  static SimEvent MakeFault(const faults::FaultInjector::Transition& t) {
    return SimEvent(t);
  }

 private:
  // The active union member is chosen in a mem-initializer so its lifetime
  // starts in a well-defined way; all variants are trivially copyable, so
  // the implicit copy/assign/destroy of the union are trivial.
  SimEvent() : kind(Kind::kMarketTick), node(-1), task() {}
  explicit SimEvent(const Pending& p)
      : kind(Kind::kArrival), node(-1), pending(p) {}
  SimEvent(Kind k, catalog::NodeId n, const QueryTask& t)
      : kind(k), node(n), task(t) {}
  explicit SimEvent(const faults::FaultInjector::Transition& t)
      : kind(Kind::kFault), node(t.node), transition(t) {}
};

/// EventQueue's past-timestamp diagnostic hook: names the offending
/// event's kind plus the node/query it targets (see EventQueue::Schedule).
std::string DescribeEvent(const SimEvent& event);

/// The discrete-event simulator of a federation of autonomous RDBMSs:
/// arrivals from a workload trace are placed by an allocation mechanism
/// onto serial-executor nodes; completions, retries and market periods are
/// simulated in virtual time.
///
/// The Federation object is also the AllocationContext handed to the
/// mechanism: it exposes node backlogs/work to the mechanisms that probe
/// them, and charges every decision's messages to the metrics.
///
/// Execution has one path. Every run is split into a *mediator lane*
/// (arrivals, allocation, market ticks, restarts, surge markers) and
/// config.shards node lanes (deliveries, completions, crash and degrade
/// edges). The mediator runs ahead of the node lanes up to a fence; at a
/// fence every node lane drains strictly up to the fence's (time, stamp)
/// key — in parallel on config.runner when one is set, serially otherwise
/// — and the lanes' buffered effects (metrics, trace records, loss
/// resubmissions) are k-way merged with the mediator's buffered records in
/// canonical key order. The mechanism picks the fence, never the layout:
///
///  - Market mechanisms (MechanismProperties::reads_node_state false)
///    see offers, never node state, so the mediator may run a whole
///    market-tick window ahead: one fence before each market tick.
///  - Mechanisms that probe node state at every decision (Greedy, BNQRD,
///    TwoProbes, LeastImbalance) have zero lookahead: one fence before
///    every mediator event, so each decision reads current node state.
///
/// Canonical stamps (sim/shard.h) make the global order a pure function of
/// the scenario, so metrics float-accumulation order and trace bytes are
/// independent of lane count, thread count and node placement.
///
/// Threading: concurrency exists only inside the fork-join fences the
/// federation itself issues on config.runner; between fences the run is
/// single-threaded, and concurrent runs on *distinct* Federation
/// instances (sharing only the const cost model) remain safe, which is
/// what exec::ExperimentRunner exploits.
class Federation : public allocation::AllocationContext {
 public:
  /// Both pointers must outlive the federation.
  Federation(const query::CostModel* cost_model,
             allocation::Allocator* allocator, FederationConfig config);

  /// Runs the whole trace to completion and returns the metrics. The run
  /// ends when all queries completed or were dropped; a run whose metrics
  /// then fail ValidateAccounting aborts, like an invalid config.
  SimMetrics Run(const workload::Trace& trace);

  // ---- AllocationContext ----
  int num_nodes() const override { return num_nodes_; }
  const query::CostModel& cost_model() const override { return *cost_model_; }
  util::VDuration NodeBacklog(catalog::NodeId node) const override {
    // Only mechanisms with reads_node_state consult this; their
    // zero-lookahead fence drains every node lane before each mediator
    // event, so node state is current at every allocation.
    return pool_.Backlog(node, events_.now());
  }
  double NodeQueuedWork(catalog::NodeId node) const override {
    return pool_.QueuedWork(node);
  }
  double NodeCumulativeWork(catalog::NodeId node) const override {
    return pool_.CumulativeWork(node);
  }
  util::VTime now() const override { return events_.now(); }
  bool NodeOnline(catalog::NodeId node) const override;

 private:
  /// A node-lane effect, buffered during the drain and applied by the
  /// mediator at the fence merge in canonical (time, stamp) order.
  struct ShardOutcome {
    enum class Kind : uint8_t {
      kDeliverRecord,  // trace only
      kComplete,       // completion metrics + record
      kExpired,        // completion past deadline: drop accounting
      kLost,           // in-flight loss: accounting + resubmission
      kCrashRecord,    // trace only (losses arrive as kLost outcomes)
      kDegradeRecord,  // trace only
      kShed,           // bounded node queue shed: drop accounting
    };
    Kind kind;
    catalog::NodeId node = -1;
    util::VTime time = 0;
    uint64_t stamp = 0;
    QueryTask task;       // kDeliverRecord / kComplete / kExpired / kLost /
                          // kShed
    double factor = 0.0;  // kDegradeRecord
    util::VTime resubmit_time = 0;   // kLost
    uint64_t resubmit_stamp = 0;     // kLost
  };

  /// One node lane: its own queue over its own nodes, plus the effects
  /// buffered since the last fence, drained only inside fences.
  struct ShardLane {
    EventQueue<SimEvent> queue;
    std::vector<ShardOutcome> outcomes;
    /// Merge cursor into `outcomes` (reset with it after every merge).
    size_t merged = 0;
    uint64_t dispatched = 0;
  };

  /// A mediator-side trace emission buffered while the mediator runs
  /// ahead of the node lanes, flushed at the fence merge.
  struct MediatorTraceItem {
    util::VTime time = 0;
    uint64_t stamp = 0;
    bool is_snapshot = false;
    obs::EventRecord record;
    /// Materialized eagerly at the tick (allocator state moves on before
    /// the flush).
    obs::AllocatorSnapshot snapshot;
  };

  /// Where a query's terminal fate (loss, shed, drop) is accounted. On the
  /// mediator side, mid-dispatch, its record buffers at the dispatching
  /// event's key and the admission gate's view moves with the exact
  /// in-flight count. Inside a fence merge (`merge`), already in canonical
  /// order, the record goes straight to the recorder and only the exact
  /// count moves; the view resyncs at the next tick (see admission_load_).
  struct Sink {
    util::VTime time;  // when the fate happened (the record's t_us)
    bool merge;
  };
  Sink MediatorSink() const { return {events_.now(), /*merge=*/false}; }

  // ---- event dispatch ----
  /// Runs the mediator lane, fencing the node lanes per the mechanism's
  /// fence policy (see the class comment).
  void RunLanes();
  /// Drains every node lane strictly up to the fence key, then merges and
  /// applies the buffered effects. A `tick_fence` closes a whole market
  /// window (or the run) and may fork the drain onto the runner; a
  /// zero-lookahead fence drains the few events ahead of one mediator
  /// event serially. A nonzero `probe_weight` times the drain and merge
  /// for an attached metrics collector, recorded with that weight; zero
  /// reads no clock.
  void FenceAndMerge(util::VTime fence_time, uint64_t fence_stamp,
                     bool tick_fence, uint64_t probe_weight);
  void Dispatch(const SimEvent& event);
  void DispatchShard(ShardLane& lane, const SimEvent& event, util::VTime now,
                     uint64_t stamp);
  void HandleQuery(SimEvent::Pending pending);
  void DeliverTask(ShardLane& lane, catalog::NodeId node_id,
                   const QueryTask& task, util::VTime now, uint64_t stamp);
  void StartTask(catalog::NodeId node_id, util::VTime now);
  void CompleteTask(ShardLane& lane, catalog::NodeId node_id,
                    const QueryTask& task, util::VTime now, uint64_t stamp);
  void MarketTick();
  /// Mediator-side fault transition (restart: allocator re-learns).
  void HandleRestart(const faults::FaultInjector::Transition& transition);
  /// Mediator-side surge edge: the rate change itself was applied when the
  /// arrivals were scheduled; this emits the informational trace marker.
  void HandleSurge(const faults::FaultInjector::Transition& transition);
  /// Node-lane fault transition (crash flush / degrade edges).
  void HandleShardFault(ShardLane& lane,
                        const faults::FaultInjector::Transition& transition,
                        util::VTime now, uint64_t stamp);

  // ---- terminal fates: one accounting routine each, both sides ----
  /// Accounts `task` as lost in flight to `node_id` and resubmits the
  /// client's query at the given key — or, past the retry-backlog bound,
  /// sheds it.
  void LoseTask(const QueryTask& task, catalog::NodeId node_id, Sink sink,
                util::VTime resubmit_time, uint64_t resubmit_stamp);
  /// Accounts one query as shed (SimMetrics::shed ⊆ dropped, plus
  /// admission_rejects when the admission gate did it) with the schema-v4
  /// `shed` record; `node_id` names the node that turned it away, or -1.
  void ShedQuery(const SimEvent::Pending& query, catalog::NodeId node_id,
                 bool admission, Sink sink);
  /// Accounts one query as abandoned — retry budget exhausted, or
  /// `expired` (client deadline passed) — and emits the drop record.
  void DropQuery(const SimEvent::Pending& query, bool expired, Sink sink);
  /// The part every dropped query shares: conservation counters and the
  /// admission slot it held.
  void CountDrop(const SimEvent::Pending& query, Sink sink);
  /// Writes a fate's trace record where `sink` says.
  void RecordFate(const obs::EventRecord& record, Sink sink);

  // ---- fence machinery ----
  /// Buffers a node-lane effect for the next fence merge. A kLost outcome
  /// gets its resubmission key here, on the losing node's lane.
  void Emit(ShardLane& lane, ShardOutcome::Kind kind, catalog::NodeId node,
            util::VTime now, uint64_t stamp, const QueryTask& task = {},
            double factor = 0.0);
  void ApplyOutcome(const ShardOutcome& outcome);
  /// Buffers a mediator-side trace record at the dispatching event's key
  /// for the next fence merge. Traced runs only: every call site sits
  /// inside a QA_OBS gate.
  void EmitRecord(const obs::EventRecord& record);

  // ---- stamps and routing ----
  uint64_t NextMediatorStamp() {
    return EventStamp::Mediator(mediator_seq_++);
  }
  /// Mediator-allocated node-lane stamp (sublane 0: deliveries, faults).
  uint64_t NextNodeStampFromMediator(catalog::NodeId node) {
    return EventStamp::Node(node, 0, mediator_seq_++);
  }
  /// Node-allocated node-lane stamp (sublane 1: completions, losses).
  uint64_t NextNodeStamp(catalog::NodeId node) {
    return EventStamp::Node(node, 1,
                            node_seq_[static_cast<size_t>(node)]++);
  }
  /// Schedules a node-lane event into the owning lane's queue.
  void ScheduleNodeEvent(util::VTime when, uint64_t stamp, SimEvent event);

  /// Evaluates the market-health watchdogs against the allocator snapshot
  /// and emits one deterministic msample (plus any alarms) into the
  /// collector. Global-market-period cadence, plus one final sample when
  /// the run ends. Requires a collector (call sites sit in QA_METRICS
  /// gates).
  void EmitMetricsSample();
  /// First market tick strictly after `t` (node lanes pass their own
  /// event clock, the mediator its own).
  util::VTime NextMarketTick(util::VTime t) const;
  util::VDuration TickInterval() const;
  /// Cached cost_model_->Cost(k, node): one flat-array load instead of a
  /// virtual call per placement on the hot path.
  util::VDuration CachedCost(query::QueryClassId k,
                             catalog::NodeId node) const {
    return cost_cache_[static_cast<size_t>(k) *
                           static_cast<size_t>(num_nodes_) +
                       static_cast<size_t>(node)];
  }

  // Lane partition of the members below (DESIGN.md §8, machine-checked
  // by qa_lint QA-SHD-002): node-lane code — DispatchShard and the
  // RunWhileBefore drain lambdas — may touch only lane-local state
  // (pool_, lanes_, node_seq_, plan_) and read-only-shared inputs
  // (config_, cost_model_, injector_, best_cost_, num_nodes_).
  // Everything else is mediator-owned, mutated only between fences or
  // inside the canonical barrier merge.
  const query::CostModel* cost_model_;
  allocation::Allocator* allocator_;
  FederationConfig config_;
  /// Compiled fault schedule (config_.faults).
  faults::FaultInjector injector_;
  int num_nodes_ = 0;
  /// The mediator lane.
  EventQueue<SimEvent> events_;
  /// Struct-of-arrays node state (see NodePool).
  NodePool pool_;
  ShardPlan plan_;
  std::vector<ShardLane> lanes_;
  /// Canonical stamp counters: the mediator's scheduling counter and each
  /// node's own (sublane 1) counter. See sim/shard.h for why the two
  /// spaces must be separate.
  uint64_t mediator_seq_ = 0;
  std::vector<uint64_t> node_seq_;
  /// Key of the mediator event being dispatched (buffered records carry
  /// it so the fence merge can interleave them canonically).
  util::VTime current_time_ = 0;
  uint64_t current_stamp_ = 0;
  std::vector<MediatorTraceItem> med_items_;
  SimMetrics metrics_;
  /// Per-allocation-attempt link mask: while the current arrival is being
  /// negotiated, link_down_[j] != 0 means this attempt's message hops to
  /// node j were dropped — the mediator sees a timeout, i.e. a decline
  /// (NodeOnline returns false). Valid only while link_mask_active_.
  std::vector<uint8_t> link_down_;
  bool link_mask_active_ = false;
  /// Per-tick allocation outcome counters driving the mediator's
  /// escalating retry backoff: a market round where every attempt was
  /// declined (rejects > 0, assigns == 0) bumps the streak, any assign
  /// resets it.
  int64_t tick_assigns_ = 0;
  int64_t tick_rejects_ = 0;
  int consecutive_decline_rounds_ = 0;
  /// Queries currently scheduled for a future retry/defer attempt
  /// (attempts > 0 arrivals in the queue); bounded by
  /// config_.max_retry_backlog.
  int64_t retry_backlog_ = 0;
  /// Queries that passed the admission gate and have not yet terminated
  /// (completed, dropped, or shed). Exact at market ticks; between ticks
  /// node-side terminations land at whichever fence the fence policy
  /// places next, so the gate must never read this directly.
  int64_t admitted_in_flight_ = 0;
  /// The admission gate's view of admitted_in_flight_: refreshed from it at
  /// every market tick (post-fence) and tracked between ticks by
  /// mediator-lane events only. Node-side completions become visible at
  /// the next tick — the gate reads node state at market granularity,
  /// exactly like the market itself does. Reading the live counter instead
  /// would make admission decisions depend on the fence policy (a
  /// zero-lookahead run merges node outcomes between ticks, a market run
  /// only at them).
  int64_t admission_load_ = 0;
  /// Admission-control state machine, rebuilt per Run from the config and
  /// the per-class best costs.
  AdmissionController admission_;
  /// The admission controller's own market view, refilled every global
  /// period when the price-signal policy is active. Separate from
  /// market_probe_ (the watchdog feed) so admission works identically with
  /// and without a metrics collector attached.
  obs::metrics::MarketProbe admission_probe_;
  query::QueryId next_query_id_ = 0;
  /// Market ticks run so far (drives the snapshot cadence of traced runs).
  int64_t ticks_ = 0;
  /// Market-health detectors (built per run when a collector is attached).
  std::unique_ptr<obs::metrics::WatchdogSuite> watchdogs_;
  /// Reusable watchdog-feed buffer, refilled by the allocator each global
  /// period (steady state allocates nothing; see MarketProbe).
  obs::metrics::MarketProbe market_probe_;
  /// Allocation sequence number driving the sampled allocate/bid-scan
  /// phase probes (see obs::metrics::kAllocProbeStride).
  uint64_t alloc_probe_seq_ = 0;
  /// Tick sequence number driving the sampled tick/rollover phase probes
  /// (see obs::metrics::kTickProbeStride).
  uint64_t tick_probe_seq_ = 0;
  /// Best-case cost per class, precomputed for work-unit accounting.
  std::vector<double> best_cost_;
  /// Flattened (class x node) execution-cost matrix, precomputed once so
  /// HandleQuery never pays the CostModel virtual dispatch.
  std::vector<util::VDuration> cost_cache_;
};

/// Estimates the federation's saturation throughput (queries/second) for a
/// workload mix by running the synchronous market loop at overwhelming
/// demand for `periods` periods and measuring steady-state consumption.
/// `mix[k]` is the relative arrival share of class k. The paper could not
/// compute exact optima either (§5.1); this estimate is used to express
/// workloads as a percentage of system capacity (Figs. 4-5).
double EstimateCapacityQps(const query::CostModel& cost_model,
                           const std::vector<double>& mix,
                           util::VDuration period, int periods = 40);

}  // namespace qa::sim

#endif  // QAMARKET_SIM_FEDERATION_H_
