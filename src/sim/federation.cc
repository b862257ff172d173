#include "sim/federation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "market/market_sim.h"
#include "sim/metrics_json.h"
#include "util/logging.h"

namespace qa::sim {

namespace {

/// One-way network latency per message hop.
constexpr util::VDuration kMessageLatency = 1 * util::kMillisecond;
/// Market ticks per period T: allocator period hooks run at every tick, so
/// staggered QA-NT periods refresh supply continuously and retries need
/// not wait a whole period.
constexpr int kTicksPerPeriod = 8;
/// Cap of the mediator's escalating retry backoff, in whole periods.
constexpr int kMaxBackoffPeriods = 4;

using TraceKind = obs::EventRecord::Kind;

// Trace event records by shape, each shape filling the fields of the one
// before it. A field a shape leaves alone keeps the default the trace
// omits.

/// A market or node event: a tick, a restart, or a crash or degrade edge
/// (`node` -1 when no node is involved).
obs::EventRecord NodeRecord(TraceKind kind, util::VTime t,
                            catalog::NodeId node = -1) {
  return {.kind = kind, .t_us = t, .node = node};
}

/// A task at its node: a delivery or a completion names the query and its
/// class, but no attempt count.
obs::EventRecord TaskRecord(TraceKind kind, util::VTime t,
                            const PendingQuery& query, catalog::NodeId node) {
  obs::EventRecord record = NodeRecord(kind, t, node);
  record.query = query.id;
  record.class_id = query.arrival.class_id;
  return record;
}

/// One of a query's arrivals, bounces or fates (lost, shed, drop): a task
/// record that also counts the attempts spent so far.
obs::EventRecord QueryRecord(TraceKind kind, util::VTime t,
                             const PendingQuery& query,
                             catalog::NodeId node = -1) {
  obs::EventRecord record = TaskRecord(kind, t, query, node);
  record.attempts = query.attempts;
  return record;
}

/// An allocation attempt's outcome (assign or reject): a query record plus
/// what the negotiation cost and where the top tier routed it.
obs::EventRecord AttemptRecord(
    TraceKind kind, util::VTime t, const PendingQuery& query,
    const allocation::AllocationDecision& decision) {
  obs::EventRecord record = QueryRecord(kind, t, query, decision.node);
  record.messages = decision.messages;
  record.solicited = decision.solicited;
  record.cluster = decision.cluster;
  record.clusters_asked = decision.clusters_solicited;
  return record;
}

}  // namespace

util::Status ValidateConfig(const FederationConfig& config, int num_nodes) {
  if (config.period <= 0) {
    return util::Status::InvalidArgument(
        "period must be positive, got " + std::to_string(config.period));
  }
  if (config.max_retries < 0) {
    return util::Status::InvalidArgument(
        "max_retries must be non-negative, got " +
        std::to_string(config.max_retries));
  }
  if (config.query_deadline < 0) {
    return util::Status::InvalidArgument(
        "query_deadline must be non-negative, got " +
        std::to_string(config.query_deadline));
  }
  if (config.shards < 1) {
    return util::Status::InvalidArgument(
        "shards must be >= 1, got " + std::to_string(config.shards));
  }
  if (config.max_node_queue < 1) {
    return util::Status::InvalidArgument(
        "max_node_queue (shed bound) must be >= 1, got " +
        std::to_string(config.max_node_queue));
  }
  if (config.max_retry_backlog < 1) {
    return util::Status::InvalidArgument(
        "max_retry_backlog (shed bound) must be >= 1, got " +
        std::to_string(config.max_retry_backlog));
  }
  util::Status admission = config.admission.Validate();
  if (!admission.ok()) return admission;
  util::Status solicitation = config.solicitation.Validate();
  if (!solicitation.ok()) return solicitation;
  util::Status clusters = config.cluster_plan.Validate(num_nodes);
  if (!clusters.ok()) return clusters;
  return config.faults.Validate(num_nodes);
}

std::string DescribeEvent(const SimEvent& event) {
  switch (event.kind) {
    case SimEvent::Kind::kArrival:
      return "arrival query=" + std::to_string(event.pending.id) +
             " class=" + std::to_string(event.pending.arrival.class_id) +
             " attempts=" + std::to_string(event.pending.attempts);
    case SimEvent::Kind::kMarketTick:
      return "market-tick";
    case SimEvent::Kind::kFault:
      return "fault transition=" + std::to_string(event.transition);
  }
  return "(unknown SimEvent kind)";
}

std::string DescribeEvent(const LaneEvent& event) {
  std::string node = " node=" + std::to_string(event.node);
  std::string arg = std::to_string(event.arg);
  switch (event.kind) {
    case LaneEvent::Kind::kDeliver:
      return "deliver" + node + " slot=" + arg;
    case LaneEvent::Kind::kComplete:
      return "complete" + node + " epoch=" + arg;
    case LaneEvent::Kind::kFault:
      return "fault" + node + " transition=" + arg;
  }
  return "(unknown LaneEvent kind)";
}

Federation::Federation(const query::CostModel* cost_model,
                       allocation::Allocator* allocator,
                       FederationConfig config)
    : cost_model_(cost_model),
      allocator_(allocator),
      config_(config),
      injector_(config.faults, static_cast<uint64_t>(config.seed)) {
  assert(cost_model_ != nullptr);
  assert(allocator_ != nullptr);
  pool_.Init(cost_model_->num_nodes(), config_.shards);
  lanes_ = std::vector<ShardLane>(static_cast<size_t>(pool_.shards()));
  node_seq_.assign(static_cast<size_t>(pool_.num_nodes()), 0);

  link_down_.assign(static_cast<size_t>(pool_.num_nodes()), 0);
  best_cost_.resize(static_cast<size_t>(cost_model_->num_classes()), 0.0);
  for (int k = 0; k < cost_model_->num_classes(); ++k) {
    util::VDuration best = cost_model_->BestCost(k);
    best_cost_[static_cast<size_t>(k)] =
        best == query::kInfeasibleCost ? 0.0 : static_cast<double>(best);
  }
}

SimMetrics Federation::Run(const workload::Trace& trace) {
  // A malformed config (zero period, inverted fault window...) would not
  // crash — it would silently simulate nonsense. Fail fast instead, like
  // the experiment runner does for an unknown mechanism name.
  util::AbortUnlessOk(ValidateConfig(config_, num_nodes()),
                      "invalid FederationConfig");
  util::AbortUnlessOk(ran_ ? util::Status::InvalidArgument(
                                 "a federation runs one trace")
                           : util::Status::OK(),
                      "Federation::Run called twice");
  ran_ = true;

  size_t num_classes = static_cast<size_t>(cost_model_->num_classes());
  metrics_.dropped_per_class.resize(num_classes);
  metrics_.retries_per_class.resize(num_classes);
  admission_ = AdmissionController(config_.admission, best_cost_);

  // While this run is active, log lines on this thread carry the current
  // virtual time (interleaved parallel runs stay attributable).
  util::ScopedVTimeClock log_clock(
      [](const void* ctx) {
        return static_cast<const EventQueue<SimEvent>*>(ctx)->now();
      },
      &events_);

  QA_OBS(config_.recorder) {
    obs::MetaRecord meta;
    meta.schema = obs::kTraceSchemaVersion;
    meta.mechanism = allocator_->name();
    meta.nodes = num_nodes();
    meta.classes = cost_model_->num_classes();
    meta.period_us = config_.period;
    meta.ticks_per_period = kTicksPerPeriod;
    meta.seed = config_.seed;
    meta.solicitation = std::string(
        allocation::SolicitationPolicyName(config_.solicitation.policy));
    meta.fanout =
        config_.solicitation.sampled() ? config_.solicitation.fanout : 0;
    // Only a genuinely hierarchical run stamps cluster fields: a
    // single-cluster plan executes the flat market, and its meta line
    // must stay byte-identical to the flat run it reproduces.
    if (config_.cluster_plan.hierarchical()) {
      meta.clusters = config_.cluster_plan.num_clusters();
      meta.top_fanout = config_.cluster_plan.top.sampled()
                            ? config_.cluster_plan.top.fanout
                            : 0;
    }
    config_.recorder->Record(meta);
    // The market's initial prices, at t=0; written directly — nothing can
    // be buffered ahead of it.
    config_.recorder->RecordSnapshot(0, allocator_->Snapshot());
  }

  QA_METRICS(config_.metrics) {
    obs::metrics::RunMeta mmeta;
    mmeta.mechanism = allocator_->name();
    mmeta.nodes = num_nodes();
    mmeta.shards = pool_.shards();
    mmeta.threads =
        config_.runner != nullptr ? config_.runner->concurrency() : 1;
    mmeta.seed = static_cast<uint64_t>(config_.seed);
    mmeta.period_us = config_.period;
    config_.metrics->BeginRun(mmeta);
    config_.metrics->SetNumLanes(lanes_.size());
    watchdogs_ =
        std::make_unique<obs::metrics::WatchdogSuite>(config_.period);
  }
  // No mechanism keeps the collector (they read no clock); a wrapping
  // allocator may take this call as the run's start.
  allocator_->SetMetricsCollector(config_.metrics);
  [[maybe_unused]] int64_t run_start = 0;
  QA_METRICS(config_.metrics) {
    run_start = util::MonotonicClock::NowNanos();
  }

  // The trace's arrivals go on the mediator's stream, not its heap, so the
  // heap holds only what the run schedules as it goes (market ticks,
  // retries, resubmissions) plus the mediator-lane fault transitions.
  // Streaming is exact because the arrivals come in key order: the trace
  // is time-sorted and they take the first mediator stamps, in trace
  // order, surge copies consecutively. An arrival out of that order (a
  // hand-built trace never sorted) lands in the heap, where it fires at
  // its key all the same. Every event carries a canonical
  // placement-independent stamp (sim/shard.h), so the dispatch order is
  // the same at every lane count.
  events_.ReserveStream(trace.size());
  // Surge windows expand (or thin) the trace at schedule time: each
  // matching arrival is scheduled `multiplier` times — the integer part
  // guaranteed, the fractional part by one seeded Bernoulli draw per
  // arrival. The draw stream is a pure function of (plan, trace), never of
  // execution layout, so surged runs stay byte-identical across shard and
  // thread counts. Plans without surges consume no draws, so pre-surge
  // scenarios reproduce their old traces exactly.
  const bool surging = injector_.AnySurge();
  util::Rng surge_rng((config_.faults.seed != 0
                           ? config_.faults.seed
                           : static_cast<uint64_t>(config_.seed)) ^
                      0xc2b2ae3d27d4eb4full);
  int64_t arrivals_scheduled = 0;
  for (const workload::Arrival& arrival : trace.arrivals()) {
    int copies = 1;
    if (surging) {
      double multiplier =
          injector_.ArrivalMultiplier(arrival.class_id, arrival.time);
      // qa-lint: allow(QA-NUM-001) exact 1.0 = "no surge window matched"
      if (multiplier != 1.0) {
        copies = static_cast<int>(multiplier);
        double frac = multiplier - static_cast<double>(copies);
        if (frac > 0.0 && surge_rng.Bernoulli(frac)) ++copies;
      }
    }
    for (int c = 0; c < copies; ++c) {
      events_.Append(
          arrival.time, NextMediatorStamp(),
          SimEvent::MakeArrival({arrival, next_query_id_++, /*attempts=*/0,
                                 /*admitted=*/false}));
    }
    arrivals_scheduled += copies;
  }
  metrics_.arrivals = arrivals_scheduled;
  const auto& transitions = injector_.transitions();
  for (size_t index = 0; index < transitions.size(); ++index) {
    // Restarts are mediator-lane (the allocator re-learns the node), and
    // so are the node-less surge edges (informational trace markers);
    // crash and degrade edges act on node state and belong to the node's
    // own lane. Stamps are allocated in the injector's transition order;
    // the events carry the transition's index.
    const auto& [when, transition] = transitions[index];
    using TKind = faults::FaultInjector::Transition::Kind;
    if (transition.kind == TKind::kRestart ||
        transition.kind == TKind::kSurgeStart ||
        transition.kind == TKind::kSurgeEnd) {
      events_.Schedule(when, NextMediatorStamp(), SimEvent::MakeFault(index));
    } else {
      uint64_t stamp = NextNodeStampFromMediator(transition.node);
      ScheduleNodeEvent(when, stamp,
                        LaneEvent::MakeFault(transition.node, index));
    }
  }
  events_.Schedule(TickInterval(), NextMediatorStamp(),
                   SimEvent::MakeMarketTick());

  RunLanes();

  metrics_.end_time = events_.now();
  for (const ShardLane& lane : lanes_) {
    metrics_.end_time = std::max(metrics_.end_time, lane.queue.now());
  }
  for (catalog::NodeId j = 0; j < pool_.num_nodes(); ++j) {
    metrics_.total_busy_time += pool_.busy_time(j);
    metrics_.node_last_idle.push_back(pool_.last_idle_at(j));
    metrics_.node_completed.push_back(pool_.completed(j));
  }
  QA_METRICS(config_.metrics) {
    // One final sample so short runs (fewer ticks than a global period)
    // still close with their end-state counters on record.
    EmitMetricsSample(/*probed=*/false);
    config_.metrics->RecordPhase(obs::metrics::Phase::kRunTotal,
                                 util::MonotonicClock::NowNanos() - run_start);
  }
  util::AbortUnlessOk(ValidateAccounting(metrics_), "run accounting");
  // The run's totals close its trace: the one counter store, rendered.
  QA_OBS(config_.recorder) {
    config_.recorder->Record(obs::RunRecord{MetricsToJson(metrics_)});
  }
  return metrics_;
}

void Federation::RunLanes() {
  constexpr util::VTime kEndTime = std::numeric_limits<util::VTime>::max();
  constexpr uint64_t kEndStamp = std::numeric_limits<uint64_t>::max();
  constexpr uint64_t kStride = obs::metrics::kTickProbeStride;
  // The fence policy (DESIGN.md §8). A mechanism that reads live node
  // state needs it current at every decision: zero lookahead, a fence
  // before every mediator event. A market mechanism sees offers, never
  // node state, so the mediator may run a whole tick window ahead.
  const bool zero_lookahead = allocator_->properties().reads_node_state;
  // Fence probes are sampled like the tick probe: one tick fence in
  // kStride is timed — its drain, its merge, and the mediator-dispatch
  // window that ends at it (everything the mediator did since the
  // previous tick fence, zero-lookahead fences included) — and recorded
  // with the stride as weight. A probe at every tick would be a
  // measurable share of a small run's work; the dispatch hot path stays
  // clock-free either way.
  uint64_t tick_fences = 0;
  [[maybe_unused]] int64_t window_start = 0;
  QA_METRICS(config_.metrics) {
    window_start = util::MonotonicClock::NowNanos();
  }
  for (;;) {
    while (!events_.empty()) {
      if (events_.Peek().kind == SimEvent::Kind::kMarketTick) {
        // Before the market tick runs, every lane has drained strictly up
        // to the tick's own canonical key and all buffered effects are
        // applied — so the tick (and everything the mediator does after
        // it) observes exactly the state the canonical dispatch order
        // builds. Nothing the merge schedules can precede the tick: loss
        // resubmissions land at tick times with node-lane stamps, which
        // sort after the tick's mediator stamp.
        const uint64_t weight = tick_fences++ % kStride == 0 ? kStride : 0;
        QA_METRICS(config_.metrics) {
          if (weight != 0) {
            config_.metrics->RecordPhase(
                obs::metrics::Phase::kMediatorDispatch,
                util::MonotonicClock::NowNanos() - window_start, weight);
          }
        }
        FenceAndMerge(events_.PeekTime(), events_.PeekStamp(),
                      /*tick_fence=*/true, weight);
        QA_METRICS(config_.metrics) {
          if (tick_fences % kStride == 0) {
            window_start = util::MonotonicClock::NowNanos();
          }
        }
      } else if (zero_lookahead) {
        FenceAndMerge(events_.PeekTime(), events_.PeekStamp(),
                      /*tick_fence=*/false, /*probe_weight=*/0);
      }
      current_time_ = events_.PeekTime();
      current_stamp_ = events_.PeekStamp();
      events_.RunOne([this](const SimEvent& event) { Dispatch(event); });
    }
    // Mediator queue drained: run the lanes dry (fault transitions on
    // idle nodes may remain past the last tick) and flush every buffered
    // record. A lane can only hand the mediator new work (a loss
    // resubmission) while queries are outstanding — and then a market
    // tick would still be queued — so this loop runs at most twice in
    // practice; the re-check keeps termination an invariant rather than
    // an argument.
    FenceAndMerge(kEndTime, kEndStamp, /*tick_fence=*/true,
                  /*probe_weight=*/1);
    if (events_.empty()) break;
  }
}

void Federation::FenceAndMerge(util::VTime fence_time, uint64_t fence_stamp,
                               bool tick_fence, uint64_t probe_weight) {
  size_t lanes = lanes_.size();
  size_t queued = 0;
  for (const ShardLane& lane : lanes_) queued += lane.queue.size();
  // The fence's last clock reading; read only by a timed fence.
  [[maybe_unused]] int64_t mark = 0;
  QA_METRICS(config_.metrics) {
    if (probe_weight != 0) mark = util::MonotonicClock::NowNanos();
  }

  if (queued > 0) {
    auto drain = [this, fence_time, fence_stamp, probe_weight](int s) {
      ShardLane& lane = lanes_[static_cast<size_t>(s)];
      // Per-lane wall-time attribution on timed fences: each worker times
      // its own lane and writes a distinct slot (the fork-join publishes
      // the writes), so the lane-imbalance stats need no per-event clock
      // reads and no histogram sharing across threads. Event counts are
      // recorded at every fence.
      [[maybe_unused]] int64_t lane_start = 0;
      QA_METRICS(config_.metrics) {
        if (probe_weight != 0) lane_start = util::MonotonicClock::NowNanos();
      }
      lane.dispatched = lane.queue.RunWhileBefore(
          fence_time, fence_stamp,
          [this, &lane](const LaneEvent& event, util::VTime when,
                        uint64_t stamp) {
            DispatchShard(lane, event, when, stamp);
          });
      QA_METRICS(config_.metrics) {
        int64_t nanos = 0;
        if (probe_weight != 0) {
          nanos = (util::MonotonicClock::NowNanos() - lane_start) *
                  static_cast<int64_t>(probe_weight);
        }
        config_.metrics->RecordLaneDrain(static_cast<size_t>(s), nanos,
                                         lane.dispatched);
      }
    };
    // Small or zero-lookahead windows are not worth a fork-join round
    // trip; the drain is byte-equivalent either way (lanes are independent
    // by construction).
    if (tick_fence && config_.runner != nullptr && lanes > 1 &&
        queued >= 64) {
      config_.runner->ParallelFor(static_cast<int>(lanes), drain);
    } else {
      for (size_t s = 0; s < lanes; ++s) drain(static_cast<int>(s));
    }
    QA_METRICS(config_.metrics) {
      // The whole fork-join section, observed once from the mediator
      // thread (per-lane times above capture the imbalance inside it).
      if (probe_weight != 0) {
        int64_t now = util::MonotonicClock::NowNanos();
        config_.metrics->RecordPhase(obs::metrics::Phase::kLaneDrain,
                                     now - mark, probe_weight);
        mark = now;
      }
    }
    for (ShardLane& lane : lanes_) {
      metrics_.events_dispatched +=
          static_cast<int64_t>(lane.dispatched);
      lane.dispatched = 0;
    }
  }

  // (S+1)-way merge of the buffered effects in canonical (time, stamp)
  // order: each lane's outcome list and the mediator's record list are
  // individually key-sorted (their producers run in key order), and keys
  // never collide across lists (each stamp belongs to exactly one
  // dispatched event), so picking the smallest head reproduces the
  // canonical dispatch order exactly — including the floating-point
  // accumulation order of the metrics and the byte order of the trace.
  size_t med_index = 0;
  for (;;) {
    bool have = false;
    bool take_mediator = false;
    size_t best_lane = 0;
    util::VTime best_time = 0;
    uint64_t best_stamp = 0;
    if (med_index < med_items_.size()) {
      best_time = med_items_[med_index].time;
      best_stamp = med_items_[med_index].stamp;
      take_mediator = true;
      have = true;
    }
    for (size_t s = 0; s < lanes; ++s) {
      const ShardLane& lane = lanes_[s];
      if (lane.merged >= lane.outcomes.size()) continue;
      const ShardOutcome& outcome = lane.outcomes[lane.merged];
      if (!have || outcome.time < best_time ||
          (outcome.time == best_time && outcome.stamp < best_stamp)) {
        best_time = outcome.time;
        best_stamp = outcome.stamp;
        take_mediator = false;
        best_lane = s;
        have = true;
      }
    }
    if (!have) break;
    if (take_mediator) {
      const MediatorTraceItem& item = med_items_[med_index++];
      // Only traced runs buffer mediator items, so the recorder is set.
      QA_OBS(config_.recorder) {
        if (item.is_snapshot) {
          config_.recorder->RecordSnapshot(item.time, item.snapshot);
        } else {
          config_.recorder->Record(item.record);
        }
      }
    } else {
      ShardLane& lane = lanes_[best_lane];
      ApplyOutcome(lane.outcomes[lane.merged++]);
    }
  }
  med_items_.clear();
  for (ShardLane& lane : lanes_) {
    lane.outcomes.clear();
    lane.merged = 0;
  }
  QA_METRICS(config_.metrics) {
    if (probe_weight != 0) {
      config_.metrics->RecordPhase(obs::metrics::Phase::kMerge,
                                   util::MonotonicClock::NowNanos() - mark,
                                   probe_weight);
    }
  }
}

void Federation::Dispatch(const SimEvent& event) {
  ++metrics_.events_dispatched;
  switch (event.kind) {
    case SimEvent::Kind::kArrival:
      HandleQuery(event.pending);
      break;
    case SimEvent::Kind::kMarketTick:
      MarketTick();
      break;
    case SimEvent::Kind::kFault: {
      const faults::FaultInjector::Transition& transition =
          injector_.transitions()[event.transition].second;
      if (transition.kind ==
          faults::FaultInjector::Transition::Kind::kRestart) {
        HandleRestart(transition);
      } else {
        HandleSurge(transition);
      }
      break;
    }
  }
}

void Federation::DispatchShard(ShardLane& lane, const LaneEvent& event,
                               util::VTime now, uint64_t stamp) {
  switch (event.kind) {
    case LaneEvent::Kind::kDeliver:
      DeliverTask(lane, event.node, static_cast<int32_t>(event.arg), now,
                  stamp);
      break;
    case LaneEvent::Kind::kComplete:
      CompleteTask(lane, event.node, event.arg, now, stamp);
      break;
    case LaneEvent::Kind::kFault:
      HandleShardFault(
          lane,
          injector_.transitions()[static_cast<size_t>(event.arg)].second,
          now, stamp);
      break;
  }
}

bool Federation::NodeOnline(catalog::NodeId node) const {
  if (injector_.Unreachable(node, events_.now())) return false;
  // During an allocation attempt under an active link fault, a node whose
  // request/offer hops were dropped looks exactly like an offline one: the
  // mediator's request times out and counts as a decline.
  if (link_mask_active_ && link_down_[static_cast<size_t>(node)] != 0) {
    return false;
  }
  return true;
}

bool Federation::EveryNodeOnline() const {
  return !link_mask_active_ && !injector_.AnyNodeDown(events_.now());
}

void Federation::HandleQuery(PendingQuery pending) {
  QA_OBS(config_.recorder) {
    if (pending.attempts == 0) {
      obs::EventRecord arrival =
          QueryRecord(TraceKind::kArrival, events_.now(), pending);
      arrival.origin = pending.arrival.origin;
      EmitRecord(arrival);
    }
  }

  // A retry/defer attempt leaving the heap frees its backlog slot (the
  // bound counts scheduled future attempts, not attempts being served).
  if (pending.attempts > 0) --retry_backlog_;

  // The client abandons a query whose sojourn has reached its response
  // deadline instead of renegotiating it: a placement that cannot possibly
  // answer in time is not worth another market round. Fresh arrivals
  // (attempts == 0) are never expired — their sojourn is zero.
  if (config_.query_deadline > 0 && pending.attempts > 0 &&
      events_.now() - pending.arrival.time >= config_.query_deadline) {
    DropQuery(pending, /*expired=*/true, MediatorSink());
    return;
  }

  // The admission gate runs ahead of solicitation: a gated query never
  // reaches the market — no messages, no link-fault draws, no allocator
  // state change. Deferral re-queues it for the next market tick at the
  // price of one retry attempt; shedding drops it on the spot. Already-
  // admitted retries skip the gate — admission decides who enters the
  // market, not who may finish — and the gate's load signal is the
  // tick-refreshed admitted-in-flight view (admission_load_), never the
  // raw outstanding count: gating on "everything still unfinished" would
  // count the deferred queries against the very threshold they wait on.
  if (admission_.enabled() && !pending.admitted) {
    AdmissionController::Decision fate =
        admission_.Admit(pending.arrival.class_id, admission_load_);
    if (fate == AdmissionController::Decision::kShed) {
      ShedQuery(pending, /*node_id=*/-1, /*admission=*/true, MediatorSink());
      return;
    }
    if (fate == AdmissionController::Decision::kDefer) {
      if (SpendRetry(&pending, /*admission=*/true)) {
        events_.Schedule(NextMarketTick(events_.now()), NextMediatorStamp(),
                         SimEvent::MakeArrival(pending));
      }
      return;
    }
    pending.admitted = true;
    ++admitted_in_flight_;
    ++admission_load_;
  }

  // Under an active link fault, draw the fate of this attempt's message
  // hops once per node before the mechanism runs: a node whose hops are
  // dropped is indistinguishable from an offline one (the request times
  // out — a decline). One draw per node per attempt, in node order, keeps
  // the RNG stream a function of the plan and the event order only.
  bool link_faults = injector_.AnyLinkFaultActive(events_.now());
  if (link_faults) {
    for (catalog::NodeId j = 0; j < num_nodes(); ++j) {
      link_down_[static_cast<size_t>(j)] =
          injector_.DropMessage(j, events_.now()) ? 1 : 0;
    }
    link_mask_active_ = true;
  }

  [[maybe_unused]] int64_t alloc_start = 0;
  QA_METRICS(config_.metrics) {
    // Sampled probe: one in kAllocProbeStride allocations is timed (the
    // sequence counter makes the choice deterministic).
    if (alloc_probe_seq_++ % obs::metrics::kAllocProbeStride == 0) {
      alloc_start = util::MonotonicClock::NowNanos();
    }
  }
  allocation::AllocationDecision decision =
      allocator_->Allocate(pending.arrival, *this);
  QA_METRICS(config_.metrics) {
    if (alloc_start != 0) {
      config_.metrics->RecordPhase(obs::metrics::Phase::kAllocate,
                                   util::MonotonicClock::NowNanos() -
                                       alloc_start,
                                   obs::metrics::kAllocProbeStride);
    }
  }
  metrics_.messages += decision.messages;
  metrics_.solicited += decision.solicited;
  metrics_.clusters_solicited += decision.clusters_solicited;

  // A mechanism that cannot observe liveness (Random/RoundRobin) may pick
  // an unreachable node: the query bounces at the network layer and is
  // resubmitted like any other failed placement.
  if (decision.node != allocation::kNoNode &&
      !NodeOnline(decision.node)) {
    ++metrics_.bounced;
    QA_OBS(config_.recorder) {
      EmitRecord(QueryRecord(TraceKind::kBounce, events_.now(), pending,
                             decision.node));
    }
    decision.node = allocation::kNoNode;
  }
  // The per-attempt link mask only scopes the negotiation above; the
  // shipment hop below draws its own fate.
  link_mask_active_ = false;

  if (decision.node == allocation::kNoNode) {
    ++tick_rejects_;
    QA_METRICS(config_.metrics) {
      // Starvation-watchdog feed: how long this query has been waiting
      // since its original arrival. Virtual-time input — deterministic.
      watchdogs_->ObserveRejectSojourn(pending.arrival.class_id,
                                       events_.now() - pending.arrival.time);
    }
    if (!SpendRetry(&pending, /*admission=*/false)) return;
    QA_OBS(config_.recorder) {
      EmitRecord(AttemptRecord(TraceKind::kReject, events_.now(), pending,
                               decision));
    }
    // The client resubmits the query at the next market tick (§3.3 says
    // "next time period" — with staggered autonomous periods, some node's
    // period boundary passes every tick). Long-waiting queries back off to
    // once per full period so a deep overload costs O(backlog) retry work
    // per period instead of O(backlog * ticks). The tick event is already
    // scheduled and sorts ahead of the retry (mediator stamps issued
    // earlier are smaller), so the market refreshes before the retry runs.
    int wait_ticks = std::min(pending.attempts, kTicksPerPeriod);
    // Market-protocol hardening: when whole market rounds go by with every
    // attempt declined (a dead market — mass crash, partition, or hard
    // overload), the mediators escalate exponentially instead of hammering
    // the market in lockstep, capped at kMaxBackoffPeriods whole periods.
    if (consecutive_decline_rounds_ > 2) {
      int shift = std::min(consecutive_decline_rounds_ - 2, 3);
      wait_ticks =
          std::min(wait_ticks << shift, kMaxBackoffPeriods * kTicksPerPeriod);
    }
    events_.Schedule(
        NextMarketTick(events_.now()) + (wait_ticks - 1) * TickInterval(),
        NextMediatorStamp(), SimEvent::MakeArrival(pending));
    return;
  }

  ++tick_assigns_;
  ++metrics_.assigned;
  QA_OBS(config_.recorder) {
    EmitRecord(
        AttemptRecord(TraceKind::kAssign, events_.now(), pending, decision));
  }
  util::VDuration base =
      cost_model_->Cost(pending.arrival.class_id, decision.node);
  util::VDuration exec_time = std::max<util::VDuration>(
      static_cast<util::VDuration>(static_cast<double>(base) *
                                   pending.arrival.cost_jitter),
      1);
  const QueryTask task{pending, exec_time};

  // The shipment hop draws its own fate under an active link fault: a
  // dropped shipment loses the (already accepted) query in flight; the
  // client notices the silence and resubmits at the next market tick,
  // under a mediator stamp like every other mediator-made arrival.
  if (link_faults && injector_.DropMessage(decision.node, events_.now())) {
    LoseTask(task, decision.node, MediatorSink(),
             NextMarketTick(events_.now()), NextMediatorStamp());
    return;
  }

  // Probes run in parallel: one round trip for the negotiation (when any)
  // plus the hop that ships the query to the chosen node. A hierarchical
  // placement pays one more round trip — the top-tier cluster
  // negotiation precedes (and cannot overlap) the member negotiation.
  util::VDuration delay =
      decision.messages >= 2 ? 3 * kMessageLatency : kMessageLatency;
  if (decision.cluster >= 0) delay += 2 * kMessageLatency;
  if (link_faults) {
    delay += injector_.ExtraLatency(decision.node, events_.now());
  }
  // The task record travels in the target lane's arena; the delivery
  // event only names its slot.
  ScheduleNodeEvent(
      events_.now() + delay, NextNodeStampFromMediator(decision.node),
      LaneEvent::MakeDeliver(decision.node, pool_.Ship(decision.node, task)));
}

bool Federation::SpendRetry(PendingQuery* query, bool admission) {
  ++query->attempts;
  if (query->attempts > config_.max_retries) {
    DropQuery(*query, /*expired=*/false, MediatorSink());
    return false;
  }
  // Bounded retry backlog: the escalating backoff caps each query's
  // *delay*, but only this bound caps how many queries can sit backed off
  // at once — past it, overflow is shed instead of queued, so a long
  // outage costs O(bound) retry state, not O(arrivals).
  if (retry_backlog_ >= config_.max_retry_backlog) {
    ShedQuery(*query, /*node_id=*/-1, admission, MediatorSink());
    return false;
  }
  ++retry_backlog_;
  ++metrics_.retries;
  ++metrics_.retries_per_class[static_cast<size_t>(query->arrival.class_id)];
  return true;
}

void Federation::RecordFate(const obs::EventRecord& record, Sink sink) {
  QA_OBS(config_.recorder) {
    if (sink.merge) {
      config_.recorder->Record(record);
    } else {
      EmitRecord(record);
    }
  }
}

void Federation::CountDrop(const PendingQuery& query, Sink sink) {
  ++metrics_.dropped;
  ++metrics_.dropped_per_class[static_cast<size_t>(query.arrival.class_id)];
  if (query.admitted && admission_.enabled()) {
    --admitted_in_flight_;
    if (!sink.merge) --admission_load_;
  }
}

void Federation::DropQuery(const PendingQuery& query, bool expired,
                           Sink sink) {
  CountDrop(query, sink);
  if (expired) ++metrics_.expired;
  QA_OBS(config_.recorder) {
    RecordFate(QueryRecord(TraceKind::kDrop, sink.time, query), sink);
  }
}

void Federation::ShedQuery(const PendingQuery& query,
                           catalog::NodeId node_id, bool admission,
                           Sink sink) {
  ++metrics_.shed;
  if (admission) ++metrics_.admission_rejects;
  CountDrop(query, sink);
  QA_OBS(config_.recorder) {
    RecordFate(QueryRecord(TraceKind::kShed, sink.time, query, node_id),
               sink);
  }
}

void Federation::LoseTask(const QueryTask& task, catalog::NodeId node_id,
                          Sink sink, util::VTime resubmit_time,
                          uint64_t resubmit_stamp) {
  ++metrics_.lost;
  QA_OBS(config_.recorder) {
    RecordFate(QueryRecord(TraceKind::kLost, sink.time, task, node_id), sink);
  }
  PendingQuery pending = task;
  ++pending.attempts;
  // A resubmission is retry backlog like any other; past the bound the
  // client gives up instead of queueing (accounted as shed, not retried).
  if (retry_backlog_ >= config_.max_retry_backlog) {
    ShedQuery(pending, node_id, /*admission=*/false, sink);
    return;
  }
  ++retry_backlog_;
  // The tick event at the resubmission time is already in the heap and
  // sorts first, so the market refreshes before the retry runs.
  events_.Schedule(resubmit_time, resubmit_stamp,
                   SimEvent::MakeArrival(pending));
}

void Federation::DeliverTask(ShardLane& lane, catalog::NodeId node_id,
                             int32_t slot, util::VTime now, uint64_t stamp) {
  QueryTask& delivered = pool_.Shipped(node_id, slot);
  // The node crashed while the query was on the wire: the shipment reaches
  // a dead machine and is lost (the negotiation happened before the
  // crash). The client resubmits at the next market tick.
  if (injector_.Crashed(node_id, now)) {
    Emit(lane, ShardOutcome::Kind::kLost, node_id, now, stamp, delivered);
    pool_.Discard(node_id, slot);
    return;
  }
  // Degraded capacity: the node executes at a fraction of its advertised
  // speed, so the execution time fixed at allocation stretches. The
  // mechanism is not told — its learned costs/prices are now stale, which
  // is exactly the failure mode under study.
  double speed = injector_.SpeedFactor(node_id, now);
  if (speed < 1.0) {
    delivered.exec_time = std::max<util::VDuration>(
        static_cast<util::VDuration>(
            static_cast<double>(delivered.exec_time) / speed),
        1);
  }
  // The class's node-independent best-case cost: its shedding priority,
  // and the work the node's cumulative ledger is charged on enqueue.
  const double work =
      best_cost_[static_cast<size_t>(delivered.arrival.class_id)];
  // Bounded node queue: a delivery that would leave more than
  // max_node_queue tasks waiting sheds one task instead of growing the
  // queue. Newest-first sheds the arriving task; lowest-priority-first
  // evicts the most expensive queued task when the arrival is strictly
  // cheaper (so cheap work still completes under pressure) and otherwise
  // sheds the arrival. Pure node-lane state — deterministic at every
  // layout, and never gated on observability.
  if (pool_.QueueLength(node_id) >= config_.max_node_queue) {
    QueryTask victim;
    if (config_.shed_policy == ShedPolicy::kLowestPriorityFirst &&
        pool_.EvictWorseQueued(node_id, best_cost_, work, &victim)) {
      Emit(lane, ShardOutcome::Kind::kShed, node_id, now, stamp, victim);
    } else {
      Emit(lane, ShardOutcome::Kind::kShed, node_id, now, stamp, delivered);
      pool_.Discard(node_id, slot);
      return;
    }
  }
  QA_OBS(config_.recorder) {
    Emit(lane, ShardOutcome::Kind::kDeliverRecord, node_id, now, stamp,
         delivered);
  }
  if (pool_.Enqueue(node_id, slot, work)) {
    StartTask(node_id, now);
  }
}

void Federation::StartTask(catalog::NodeId node_id, util::VTime now) {
  const QueryTask& task = pool_.BeginNext(node_id, now);
  // Stamp the node's incarnation so this completion event can be
  // recognized as stale if a crash wipes the task before it fires.
  ScheduleNodeEvent(now + task.exec_time, NextNodeStamp(node_id),
                    LaneEvent::MakeComplete(node_id, pool_.epoch(node_id)));
}

void Federation::CompleteTask(ShardLane& lane, catalog::NodeId node_id,
                              int64_t epoch, util::VTime now,
                              uint64_t stamp) {
  // A crash bumped the node's epoch after this completion was scheduled:
  // the task it announces was wiped (and resubmitted by its client), so
  // the event is a ghost of the previous incarnation. Ignore it.
  if (epoch != pool_.epoch(node_id)) return;
  const QueryTask& task = pool_.Running(node_id);
  // The result arrived after the client's deadline: nobody is waiting for
  // it. The node's work is already spent (wasted capacity — the real cost
  // of serving a client that gave up); the query counts as expired.
  bool late = config_.query_deadline > 0 &&
              now - task.arrival.time > config_.query_deadline;
  // The outcome copies the task before CompleteCurrent frees its slot.
  Emit(lane,
       late ? ShardOutcome::Kind::kExpired : ShardOutcome::Kind::kComplete,
       node_id, now, stamp, task);
  if (pool_.CompleteCurrent(node_id, now)) StartTask(node_id, now);
}

void Federation::HandleRestart(
    const faults::FaultInjector::Transition& transition) {
  assert(transition.kind ==
         faults::FaultInjector::Transition::Kind::kRestart);
  // The node is back with empty queues and default configuration; a
  // mechanism with learned per-node state (QA-NT's price vector) resets it
  // and re-learns through ordinary market interaction.
  allocator_->OnNodeRestart(transition.node, events_.now());
  QA_OBS(config_.recorder) {
    EmitRecord(NodeRecord(TraceKind::kRestart, events_.now(), transition.node));
  }
}

void Federation::HandleSurge(
    const faults::FaultInjector::Transition& transition) {
  // The arrival-rate change was already applied when the trace was
  // expanded at schedule time; this transition exists so traced runs carry
  // a `surge` marker (analysis tools anchor recovery windows on it).
  QA_OBS(config_.recorder) {
    EmitRecord({.kind = TraceKind::kSurge,
                .t_us = events_.now(),
                .class_id = transition.class_id,
                .factor = transition.factor});
  }
}

void Federation::HandleShardFault(
    ShardLane& lane, const faults::FaultInjector::Transition& transition,
    util::VTime now, uint64_t stamp) {
  using Kind = faults::FaultInjector::Transition::Kind;
  switch (transition.kind) {
    case Kind::kCrash: {
      std::vector<QueryTask> wiped;
      pool_.Crash(transition.node, now, &wiped);
      QA_OBS(config_.recorder) {
        Emit(lane, ShardOutcome::Kind::kCrashRecord, transition.node, now,
             stamp);
      }
      // Everything queued or running there is gone with the volatile
      // state; the clients detect the silence and resubmit.
      for (const QueryTask& task : wiped) {
        Emit(lane, ShardOutcome::Kind::kLost, transition.node, now, stamp,
             task);
      }
      break;
    }
    case Kind::kRestart:
    case Kind::kSurgeStart:
    case Kind::kSurgeEnd:
      assert(false && "restart/surge transitions are mediator-lane events");
      break;
    case Kind::kDegradeStart:
    case Kind::kDegradeEnd:
      QA_OBS(config_.recorder) {
        Emit(lane, ShardOutcome::Kind::kDegradeRecord, transition.node, now,
             stamp, QueryTask(), transition.factor);
      }
      break;
  }
}

void Federation::Emit(ShardLane& lane, ShardOutcome::Kind kind,
                      catalog::NodeId node, util::VTime now, uint64_t stamp,
                      const QueryTask& task, double factor) {
  ShardOutcome& outcome = lane.outcomes.emplace_back();
  outcome.kind = kind;
  outcome.node = node;
  outcome.time = now;
  outcome.stamp = stamp;
  outcome.task = task;
  outcome.factor = factor;
  if (kind == ShardOutcome::Kind::kLost) {
    // The resubmission is keyed here, on the losing node's lane: its time
    // is the first market tick after the loss, its stamp comes from the
    // node's own counter — both pure functions of the node's event
    // history, so the arrival the merge schedules is the same at every
    // layout and fence policy.
    outcome.resubmit_time = NextMarketTick(now);
    outcome.resubmit_stamp = NextNodeStamp(node);
  }
}

void Federation::ApplyOutcome(const ShardOutcome& outcome) {
  // Runs on the mediator thread inside the fence merge, in canonical key
  // order. All times come from the outcome — the mediator clock has
  // already moved past them.
  const Sink sink{outcome.time, /*merge=*/true};
  TraceKind kind = TraceKind::kDeliver;
  double response_ms = 0.0;
  switch (outcome.kind) {
    case ShardOutcome::Kind::kDeliverRecord:
      break;
    case ShardOutcome::Kind::kCrashRecord:
      kind = TraceKind::kCrash;
      break;
    case ShardOutcome::Kind::kDegradeRecord:
      kind = TraceKind::kDegrade;
      break;
    case ShardOutcome::Kind::kComplete:
      kind = TraceKind::kComplete;
      response_ms = util::ToMillis(outcome.time - outcome.task.arrival.time);
      metrics_.response_time_ms.Add(response_ms);
      metrics_.completions.Add(
          outcome.time, static_cast<double>(outcome.task.arrival.class_id));
      ++metrics_.completed;
      // Node-side terminations update only the exact in-flight count, not
      // the gate's view, which resyncs at the tick (see admission_load_).
      if (admission_.enabled()) --admitted_in_flight_;
      break;
    case ShardOutcome::Kind::kExpired:
      DropQuery(outcome.task, /*expired=*/true, sink);
      return;
    case ShardOutcome::Kind::kLost:
      LoseTask(outcome.task, outcome.node, sink, outcome.resubmit_time,
               outcome.resubmit_stamp);
      return;
    case ShardOutcome::Kind::kShed:
      // A bounded node queue turned the task away (or evicted it).
      ShedQuery(outcome.task, outcome.node, /*admission=*/false, sink);
      return;
  }
  // The trace record of a completion or a trace-only outcome; fields an
  // outcome does not carry (a delivery's factor) hold the record's
  // omitted defaults.
  QA_OBS(config_.recorder) {
    obs::EventRecord record =
        kind == TraceKind::kDeliver || kind == TraceKind::kComplete
            ? TaskRecord(kind, outcome.time, outcome.task, outcome.node)
            : NodeRecord(kind, outcome.time, outcome.node);
    record.response_ms = response_ms;
    record.factor = outcome.factor;
    config_.recorder->Record(record);
  }
}

void Federation::MarketTick() {
  [[maybe_unused]] int64_t tick_start = 0;
  QA_METRICS(config_.metrics) {
    // Sampled like the allocate probe (kTickProbeStride).
    if (ticks_ % obs::metrics::kTickProbeStride == 0) {
      tick_start = util::MonotonicClock::NowNanos();
    }
  }
  allocator_->OnPeriodEnd(events_.now());
  allocator_->OnPeriodStart(events_.now());
  ++ticks_;
  // Backoff streak bookkeeping: a round where every allocation attempt
  // was declined bumps the streak, any successful assignment resets it,
  // and a quiet round (no attempts) leaves it alone.
  if (tick_rejects_ > 0 && tick_assigns_ == 0) {
    ++consecutive_decline_rounds_;
  } else if (tick_assigns_ > 0) {
    consecutive_decline_rounds_ = 0;
  }
  tick_assigns_ = 0;
  tick_rejects_ = 0;
  // Admission-control update, once per global period. Deliberately NOT
  // inside a QA_METRICS gate: admission changes which queries run, so it
  // must behave identically with and without a collector attached (the
  // collector-never-perturbs invariant, DESIGN.md §9). It fills the
  // period's market probe whatever the collector; the metrics sample
  // below then reads the same probe, since nothing between the two moves
  // a price or an earning.
  bool probed = false;
  if (admission_.enabled()) {
    // The fence before every market tick merged every lane, so
    // admitted_in_flight_ is exact here: resync the gate's view so
    // node-side completions since the last tick free admission slots.
    admission_load_ = admitted_in_flight_;
    if (ticks_ % kTicksPerPeriod == 0) {
      if (admission_.wants_probe()) {
        allocator_->FillMarketProbe(&market_probe_);
        probed = true;
      }
      admission_.OnPeriod(market_probe_);
    }
  }
  QA_METRICS(config_.metrics) {
    // The tick phase is the allocator's period hooks plus bookkeeping; the
    // trace snapshot below and the sample and watchdogs are not in it.
    if (tick_start != 0) {
      config_.metrics->RecordPhase(obs::metrics::Phase::kMarketTick,
                                   util::MonotonicClock::NowNanos() -
                                       tick_start,
                                   obs::metrics::kTickProbeStride);
    }
  }
  QA_OBS(config_.recorder) {
    EmitRecord(NodeRecord(TraceKind::kTick, events_.now()));
    // Snapshot once per global period (every divisor-th tick), after the
    // period hooks ran: post-rollover prices are what convergence analysis
    // wants to see. Materialized eagerly: by the time the fence flushes
    // the item the allocator has moved on.
    if (ticks_ % kTicksPerPeriod == 0) {
      med_items_.push_back({current_time_, current_stamp_,
                            /*is_snapshot=*/true, {},
                            allocator_->Snapshot()});
    }
  }
  QA_METRICS(config_.metrics) {
    // Sample once per global period (every divisor-th tick), after the
    // period hooks: the fence before this tick applied every outcome with
    // an earlier key, so the cumulative counters here are the canonical
    // order's counters byte for byte, at every layout.
    if (ticks_ % kTicksPerPeriod == 0) {
      obs::metrics::ScopedPhaseTimer timer(config_.metrics,
                                           obs::metrics::Phase::kSnapshot);
      EmitMetricsSample(probed);
    }
  }
  // The market keeps ticking while any query of the run is unfinished.
  // The fence before this tick applied every completion and drop with an
  // earlier key, so the count is exact here.
  if (metrics_.Unfinished() > 0) {
    events_.Schedule(events_.now() + TickInterval(), NextMediatorStamp(),
                     SimEvent::MakeMarketTick());
  }
}

void Federation::EmitRecord(const obs::EventRecord& record) {
  med_items_.push_back({current_time_, current_stamp_,
                        /*is_snapshot=*/false, record, {}});
}

void Federation::EmitMetricsSample(bool probed) {
  const int64_t period = ticks_ / kTicksPerPeriod;
  // Queue-depth histogram: per-node waiting-queue lengths at the period
  // fence. Virtual state, so the histogram is as deterministic as the
  // counters (the one histogram that is not a wall-clock side channel).
  for (catalog::NodeId j = 0; j < pool_.num_nodes(); ++j) {
    config_.metrics->RecordQueueDepth(pool_.QueueLength(j));
  }
  // Watchdogs first: alarms precede the sample that carries the gauges
  // they fired on, so the stream reads cause-before-effect.
  watchdogs_->ObserveOverload(metrics_.shed, admission_.brownout_level());
  if (!probed) allocator_->FillMarketProbe(&market_probe_);
  for (const obs::metrics::AlarmRecord& alarm :
       watchdogs_->EvaluatePeriod(period, events_.now(), market_probe_)) {
    config_.metrics->Alarm(alarm);
  }
  // A collect-only collector writes no line, so no row is built for it:
  // the row costs two dozen node allocations per period, which in-memory
  // phase attribution must not pay on the measured path.
  if (!config_.metrics->streaming()) return;
  obs::Json row = obs::Json::MakeObject();
  row.Set("type", "msample");
  row.Set("t_us", events_.now());
  row.Set("period", period);
  row.Set("ticks", ticks_);
  row.Set("events", metrics_.events_dispatched);
  row.Set("assigned", metrics_.assigned);
  row.Set("completed", metrics_.completed);
  row.Set("dropped", metrics_.dropped);
  row.Set("expired", metrics_.expired);
  row.Set("bounced", metrics_.bounced);
  row.Set("lost", metrics_.lost);
  row.Set("retries", metrics_.retries);
  row.Set("messages", metrics_.messages);
  row.Set("solicited", metrics_.solicited);
  row.Set("outstanding", metrics_.Unfinished());
  row.Set("shed", metrics_.shed);
  row.Set("admission_rejects", metrics_.admission_rejects);
  row.Set("brownout", admission_.brownout_level());
  row.Set("log_price_var", watchdogs_->log_price_variance());
  row.Set("osc_flip_rate", watchdogs_->osc_flip_rate());
  row.Set("max_reject_age_ms", watchdogs_->max_reject_age_ms());
  row.Set("earnings_cv", watchdogs_->earnings_cv());
  config_.metrics->Sample(row);
}

util::VDuration Federation::TickInterval() const {
  return std::max<util::VDuration>(config_.period / kTicksPerPeriod, 1);
}

util::VTime Federation::NextMarketTick(util::VTime t) const {
  util::VDuration tick = TickInterval();
  return (t / tick + 1) * tick;
}

void Federation::ScheduleNodeEvent(util::VTime when, uint64_t stamp,
                                   LaneEvent event) {
  lanes_[static_cast<size_t>(pool_.shard_of(event.node))].queue.Schedule(
      when, stamp, event);
}

namespace {

/// A capacity mix gives every class a share, and the shares sum to a
/// positive, finite total.
util::Status ValidateMix(const std::vector<double>& mix, int num_classes) {
  if (static_cast<int>(mix.size()) != num_classes) {
    return util::Status::InvalidArgument(
        "mix has " + std::to_string(mix.size()) + " entries for " +
        std::to_string(num_classes) + " query classes");
  }
  double sum = 0.0;
  for (double m : mix) sum += m;
  if (!(sum > 0.0) || !std::isfinite(sum)) {
    return util::Status::InvalidArgument(
        "mix sums to " + std::to_string(sum) +
        "; it must be positive and finite");
  }
  return util::Status::OK();
}

}  // namespace

double EstimateCapacityQps(const query::CostModel& cost_model,
                           const std::vector<double>& mix,
                           util::VDuration period, int periods) {
  int num_classes = cost_model.num_classes();
  util::AbortUnlessOk(ValidateMix(mix, num_classes), "EstimateCapacityQps");
  double mix_sum = 0.0;
  for (double m : mix) mix_sum += m;

  // Upper bound on per-period throughput: every node runs its cheapest
  // class back to back.
  double max_per_period = 0.0;
  for (catalog::NodeId j = 0; j < cost_model.num_nodes(); ++j) {
    util::VDuration cheapest = query::kInfeasibleCost;
    for (int k = 0; k < num_classes; ++k) {
      cheapest = std::min(cheapest, cost_model.Cost(k, j));
    }
    if (cheapest != query::kInfeasibleCost && cheapest > 0) {
      max_per_period +=
          static_cast<double>(period) / static_cast<double>(cheapest);
    }
  }

  if (cost_model.num_nodes() == 0) return 0.0;  // nothing is ever served
  market::MarketSimConfig sim_config;
  sim_config.period = period;
  market::MarketSimulator sim(&cost_model, sim_config);

  // Keep each class's pending queue topped up to ~2x its mix share of the
  // throughput bound so servers are always saturated without letting the
  // queues (and the per-period cost) grow unboundedly. Node 0 is the one
  // client; the buffer is reused across periods.
  std::vector<market::QuantityVector> demand(
      static_cast<size_t>(cost_model.num_nodes()),
      market::QuantityVector(num_classes));
  auto top_up = [&]() -> const std::vector<market::QuantityVector>& {
    for (int k = 0; k < num_classes; ++k) {
      double want = 2.0 * max_per_period *
                    (mix[static_cast<size_t>(k)] / mix_sum);
      market::Quantity have = 0;
      for (const auto& p : sim.pending()) have += p[k];
      market::Quantity need =
          static_cast<market::Quantity>(std::ceil(want)) - have;
      demand[0][k] = std::max<market::Quantity>(need, 0);
    }
    return demand;
  };

  int warmup = periods / 2;
  market::Quantity consumed = 0;
  for (int t = 0; t < periods; ++t) {
    market::MarketSimulator::PeriodResult result = sim.RunPeriod(top_up());
    if (t >= warmup) consumed += result.aggregate_consumption.Total();
  }
  double measured_seconds =
      util::ToSeconds(period) * static_cast<double>(periods - warmup);
  return measured_seconds > 0.0 ? static_cast<double>(consumed) /
                                      measured_seconds
                                : 0.0;
}

}  // namespace qa::sim
