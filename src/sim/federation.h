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
  /// Market time period T; the market ticks eight times per period.
  util::VDuration period = 500 * util::kMillisecond;
  /// Queries declined by every server are resubmitted at the next market
  /// tick, at most this many times before being dropped.
  int max_retries = 200;
  /// Declarative fault schedule (crashes with state loss, degraded
  /// capacity, lossy/delayed links, partitions, surges). A partitioned
  /// node keeps its state; mechanisms that negotiate or probe get no reply
  /// from it (a decline) and route around it, while blind ones (Random,
  /// RoundRobin) bounce off it and resubmit.
  faults::FaultPlan faults;
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
  /// Allocator RNG seed, recorded in the trace meta line for provenance.
  /// Also the default seed of the fault injector's message-loss RNG (see
  /// faults::FaultPlan::seed).
  int64_t seed = 0;
  /// QA-NT offer-solicitation fanout policy. Carried here so runs record
  /// it in the trace meta line and ValidateConfig rejects bad fanouts; the
  /// experiment runner forwards it into AllocatorParams. Mechanisms other
  /// than QA-NT ignore it.
  allocation::SolicitationConfig solicitation;
  /// Hierarchical two-tier market plan (DESIGN.md §12). A plan with fewer
  /// than two clusters (the default lists none) runs the classic flat
  /// single-mediator market. With >= 2 clusters, each cluster runs its own
  /// QA-NT sub-mediator and a top-level market routes queries by aggregate
  /// supply. Validated by
  /// ValidateConfig; forwarded into AllocatorParams by the experiment
  /// runner. Mechanisms other than QA-NT ignore it.
  allocation::ClusterPlan cluster_plan;
  /// Node-lane count of the simulator core: nodes are split into this many
  /// lanes (stable id-hash, see HashShard), each draining its own event
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
/// non-positive period, negative retry budget or deadline, shards < 1,
/// shed bounds < 1, malformed admission bands, and anything
/// FaultPlan::Validate rejects.
/// Federation::Run calls this at entry and aborts on error; callers
/// building configs from external input should call it themselves and
/// surface the Status.
util::Status ValidateConfig(const FederationConfig& config, int num_nodes);

/// The tagged event payload of the federation's mediator lane.
///
/// A small POD dispatched by Federation::Dispatch on its kind: millions of
/// arrivals per run cost zero allocations and no indirect calls. It holds
/// only the mediator's kinds; node-lane events are LaneEvents. The
/// payload variants never coexist, so they share storage in a union (both
/// are trivially copyable).
struct SimEvent {
  enum class Kind : uint8_t {
    /// A query arrives at (or is resubmitted to) the client's mediator.
    kArrival,
    /// Periodic market driver (allocator period hooks, retry clock).
    kMarketTick,
    /// A mediator-lane fault-plan transition fires: a restart or a surge
    /// edge.
    kFault,
  };

  Kind kind;
  union {
    PendingQuery pending;  // kArrival: the query a mediator must (re)place
    size_t transition;     // kFault: index into FaultInjector::transitions()
  };

  static SimEvent MakeArrival(const PendingQuery& pending) {
    return SimEvent(pending);
  }
  static SimEvent MakeMarketTick() { return SimEvent(Kind::kMarketTick, 0); }
  static SimEvent MakeFault(size_t transition) {
    return SimEvent(Kind::kFault, transition);
  }

 private:
  // The active union member is chosen in a mem-initializer so its lifetime
  // starts in a well-defined way; all variants are trivially copyable, so
  // the implicit copy/assign/destroy of the union are trivial.
  explicit SimEvent(const PendingQuery& p)
      : kind(Kind::kArrival), pending(p) {}
  SimEvent(Kind k, size_t t) : kind(k), transition(t) {}
};
// A mediator queue entry is this payload plus a 16-byte key; a field added
// here grows every pending arrival.
static_assert(sizeof(SimEvent) <= 48, "SimEvent outgrew 48 bytes");

/// The tagged event payload of a node lane. It names records instead of
/// carrying them, so a lane queue entry is 32 bytes.
struct LaneEvent {
  enum class Kind : uint8_t {
    /// A shipped query reaches `node`; `arg` is its slot in the arena of
    /// the node's lane (NodePool::Ship).
    kDeliver,
    /// The task running on `node` finishes; `arg` is the node epoch it
    /// started under (a crash bumps the epoch, which makes the event
    /// stale).
    kComplete,
    /// A crash or degrade edge of `node`; `arg` is its index into
    /// FaultInjector::transitions().
    kFault,
  };
  Kind kind;
  catalog::NodeId node;
  int64_t arg;

  static LaneEvent MakeDeliver(catalog::NodeId node, int32_t slot) {
    return {Kind::kDeliver, node, slot};
  }
  static LaneEvent MakeComplete(catalog::NodeId node, int64_t epoch) {
    return {Kind::kComplete, node, epoch};
  }
  static LaneEvent MakeFault(catalog::NodeId node, size_t transition) {
    return {Kind::kFault, node, static_cast<int64_t>(transition)};
  }
};
static_assert(sizeof(LaneEvent) <= 16, "LaneEvent outgrew 16 bytes");

/// EventQueue's past-timestamp diagnostic hooks: name the offending
/// event's kind plus the node/query/transition it targets (see
/// EventQueue::Schedule).
std::string DescribeEvent(const SimEvent& event);
std::string DescribeEvent(const LaneEvent& event);

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
  /// Single use: a federation runs one trace. Its clocks, nodes and the
  /// allocator's learned state carry over, so a rerun could never
  /// reproduce the first run; a second Run aborts with a FATAL message.
  SimMetrics Run(const workload::Trace& trace);

  // ---- AllocationContext ----
  int num_nodes() const override { return pool_.num_nodes(); }
  const query::CostModel& cost_model() const override { return *cost_model_; }
  util::VDuration NodeBacklog(catalog::NodeId node) const override {
    // Only mechanisms with reads_node_state consult this; their
    // zero-lookahead fence drains every node lane before each mediator
    // event, so node state is current at every allocation.
    return pool_.Backlog(node, events_.now());
  }
  double NodeCumulativeWork(catalog::NodeId node) const override {
    return pool_.CumulativeWork(node);
  }
  util::VTime now() const override { return events_.now(); }
  bool NodeOnline(catalog::NodeId node) const override;
  /// No link mask is set and no crash or partition window is open.
  bool EveryNodeOnline() const override;

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
    EventQueue<LaneEvent> queue;
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
  void DispatchShard(ShardLane& lane, const LaneEvent& event, util::VTime now,
                     uint64_t stamp);
  void HandleQuery(PendingQuery pending);
  /// Spends one retry of `query`'s budget: bumps its attempts, then drops
  /// it past max_retries or sheds it past max_retry_backlog (`admission`:
  /// the admission gate turned it away), else takes a retry-backlog slot
  /// and counts the retry. Returns whether the query is still in the
  /// system, for the caller to reschedule.
  bool SpendRetry(PendingQuery* query, bool admission);
  /// Links the shipment in arena slot `slot` into the node's queue (or
  /// sheds or loses it, releasing the slot).
  void DeliverTask(ShardLane& lane, catalog::NodeId node_id, int32_t slot,
                   util::VTime now, uint64_t stamp);
  void StartTask(catalog::NodeId node_id, util::VTime now);
  /// Finishes the node's running task, unless `epoch` is stale.
  void CompleteTask(ShardLane& lane, catalog::NodeId node_id, int64_t epoch,
                    util::VTime now, uint64_t stamp);
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
  void ShedQuery(const PendingQuery& query, catalog::NodeId node_id,
                 bool admission, Sink sink);
  /// Accounts one query as abandoned — retry budget exhausted, or
  /// `expired` (client deadline passed) — and emits the drop record.
  void DropQuery(const PendingQuery& query, bool expired, Sink sink);
  /// The part every dropped query shares: conservation counters and the
  /// admission slot it held.
  void CountDrop(const PendingQuery& query, Sink sink);
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
  void ScheduleNodeEvent(util::VTime when, uint64_t stamp, LaneEvent event);

  /// Evaluates the market-health watchdogs against the market probe and
  /// emits one deterministic msample (plus any alarms) into the collector;
  /// the msample row is rendered here, the one place it is built.
  /// Global-market-period cadence, plus one final sample when the run
  /// ends. Fills market_probe_ first unless `probed` says this period's
  /// fill already happened. Requires a collector (call sites sit in
  /// QA_METRICS gates).
  void EmitMetricsSample(bool probed);
  /// First market tick strictly after `t` (node lanes pass their own
  /// event clock, the mediator its own).
  util::VTime NextMarketTick(util::VTime t) const;
  util::VDuration TickInterval() const;

  // Lane partition of the members below (DESIGN.md §8, machine-checked
  // by qa_lint QA-SHD-002): node-lane code — DispatchShard and the
  // RunWhileBefore drain lambdas — may touch only its own lane's state
  // (its nodes in pool_, its entry of lanes_, its nodes' node_seq_) and
  // read-only-shared inputs (config_, cost_model_, injector_, best_cost_).
  // Everything else is mediator-owned, mutated only between fences or
  // inside the canonical barrier merge.
  const query::CostModel* cost_model_;
  allocation::Allocator* allocator_;
  FederationConfig config_;
  /// Compiled fault schedule (config_.faults).
  faults::FaultInjector injector_;
  /// The mediator lane: the trace's arrivals on its stream, everything
  /// scheduled during the run in its heap.
  EventQueue<SimEvent> events_;
  /// Struct-of-arrays node state and the node -> lane map (see NodePool).
  NodePool pool_;
  /// One per lane, indexed like pool_'s arenas.
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
  query::QueryId next_query_id_ = 0;
  /// Market ticks run so far: drives the global-period cadence and the
  /// sampled tick phase probe (see obs::metrics::kTickProbeStride).
  int64_t ticks_ = 0;
  /// Market-health detectors (built per run when a collector is attached).
  std::unique_ptr<obs::metrics::WatchdogSuite> watchdogs_;
  /// The market's prices and earnings, refilled by the allocator at most
  /// once per global period, for price-signal admission and the watchdogs
  /// alike, and once more by the run's closing sample (steady state
  /// allocates nothing; see MarketProbe).
  obs::metrics::MarketProbe market_probe_;
  /// Allocation sequence number driving the sampled allocate phase probe
  /// (see obs::metrics::kAllocProbeStride).
  uint64_t alloc_probe_seq_ = 0;
  /// Best-case cost per class (0 for a class no node evaluates): the work
  /// a task charges its node's cumulative ledger, the shedding and
  /// brownout priority. The one home of that per-class fact.
  std::vector<double> best_cost_;
  /// Set by the one Run this federation may perform.
  bool ran_ = false;
};

/// Estimates the federation's saturation throughput (queries/second) for a
/// workload mix by running the synchronous market loop at overwhelming
/// demand for `periods` periods and measuring steady-state consumption.
/// `mix[k]` is the relative arrival share of class k. The paper could not
/// compute exact optima either (§5.1); this estimate is used to express
/// workloads as a percentage of system capacity (Figs. 4-5).
///
/// Cost: `periods` synchronous periods of about twice the federation's
/// per-period throughput in requests, each O(requests·log N + N·K)
/// (DESIGN.md §13): about 0.015 s at 1,000 nodes and 0.2 s at 10,000 on
/// the two-class models (4-vCPU Xeon VM, Release build).
/// Aborts with a FATAL message unless `mix` has one entry per class and a
/// positive, finite sum.
double EstimateCapacityQps(const query::CostModel& cost_model,
                           const std::vector<double>& mix,
                           util::VDuration period, int periods = 40);

}  // namespace qa::sim

#endif  // QAMARKET_SIM_FEDERATION_H_
