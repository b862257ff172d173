#ifndef QAMARKET_OBS_TRACE_SCHEMA_H_
#define QAMARKET_OBS_TRACE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "util/status.h"

namespace qa::obs {

/// Version of the JSONL trace format. Bump when a record gains, loses or
/// renames a field; readers refuse traces from a newer schema. The format
/// itself is documented in src/obs/SCHEMA.md.
///
/// v2: event records gained the fault-injection kinds `crash`, `restart`,
/// `degrade`, `lost` and the `factor` field (degrade records).
/// v3: meta records gained `solicitation` + `fanout` (the QA-NT
/// offer-solicitation policy of the run); assign/reject event records
/// gained `solicited` (nodes asked for offers on that attempt).
/// v4: event records gained the overload kinds `shed` (a bounded queue or
/// the admission gate dropped the query; shed ⊆ dropped) and `surge` (a
/// fault-plan arrival-rate window opened/closed; `factor` carries the
/// multiplier, `class` the scope, -1 = all classes).
/// v5: hierarchical two-tier market. Meta records gained `clusters` +
/// `top_fanout` (present only when the run used a hierarchical cluster
/// plan); assign/reject event records gained `cluster` (the cluster the
/// top tier routed the attempt to, -1/omitted when flat or unrouted) and
/// `clusters_asked` (sub-mediators solicited on the attempt); snapshots
/// additionally emit `cluster` records (one per activated cluster and
/// query class: published/remaining/sold aggregate supply).
/// v6: the trailing `counter`/`gauge` block is gone; each run ends with one
/// `run` record holding its SimMetrics totals (sim::MetricsToJson).
inline constexpr int kTraceSchemaVersion = 6;

/// The typed records of the trace. Every record serializes to one JSON
/// object per line with a "type" discriminator; fields holding their
/// default value are omitted on write and restored on read, so a
/// write -> parse round trip reproduces the records exactly.

/// One per trace (first line): what produced it.
struct MetaRecord {
  int schema = kTraceSchemaVersion;
  std::string mechanism;
  int nodes = 0;
  int classes = 0;
  int64_t period_us = 0;
  /// Market ticks per period (snapshot cadence context).
  int ticks_per_period = 0;
  uint64_t seed = 0;
  /// Offer-solicitation policy name ("broadcast", "uniform-sample",
  /// "stratified-sample"); empty (omitted) in pre-v3 traces.
  std::string solicitation;
  /// Solicitation fanout d (sampled policies only; 0 under broadcast).
  int fanout = 0;
  /// Hierarchical runs only: number of clusters in the plan (0 = flat —
  /// including single-cluster plans, which run the flat market).
  int clusters = 0;
  /// Top-tier solicitation fanout (0 = top-tier broadcast or flat run).
  int top_fanout = 0;

  bool operator==(const MetaRecord&) const = default;
  Json ToJson() const;
  static MetaRecord FromJson(const Json& json);
};

/// A span of the federation's discrete-event loop.
struct EventRecord {
  enum class Kind {
    kArrival,   // a query enters the system (first attempt only)
    kAssign,    // the mechanism placed the query on a node
    kReject,    // every server declined; the client will retry
    kDrop,      // retry budget exhausted
    kBounce,    // assignment hit an unreachable node (failure injection)
    kDeliver,   // the query reached its server after the network delay
    kComplete,  // execution finished
    kTick,      // market tick (allocator period hooks ran)
    kCrash,     // node went down with state loss (fault injection)
    kRestart,   // crashed node came back; its agent re-learns from defaults
    kDegrade,   // node speed changed to `factor` (1.0 = back to full speed)
    kLost,      // a query/message was lost in flight (crash or lossy link)
    kShed,      // overload shedding dropped the query (bounded queue or
                // admission gate); every shed query is also dropped
    kSurge,     // arrival-rate surge window edge; `factor` = multiplier
                // (1.0 on the closing edge), `class` = scope (-1 = all)
  };

  Kind kind = Kind::kTick;
  int64_t t_us = 0;
  int64_t query = -1;
  int class_id = -1;
  int node = -1;
  int origin = -1;
  /// Messages the allocation attempt cost (assign/reject records).
  int messages = 0;
  /// Nodes solicited for offers on this attempt (assign/reject records of
  /// negotiating mechanisms; 0 otherwise).
  int solicited = 0;
  /// Resubmission count of this query so far (assign/reject/drop records).
  int attempts = 0;
  /// Hierarchical runs: cluster the top tier routed this attempt to
  /// (assign/reject records; -1 = flat market or no cluster offered).
  int cluster = -1;
  /// Cluster sub-mediators solicited on this attempt (0 when flat).
  int clusters_asked = 0;
  /// Response time, complete records only.
  double response_ms = 0.0;
  /// Execution speed multiplier (degrade records, 0 < factor <= 1) or
  /// arrival-rate multiplier (surge records, factor > 0).
  double factor = 0.0;

  bool operator==(const EventRecord&) const = default;
  Json ToJson() const;
  static EventRecord FromJson(const Json& json);
};

std::string_view EventKindName(EventRecord::Kind kind);
/// Returns false when `name` is not a known kind.
bool ParseEventKind(std::string_view name, EventRecord::Kind* kind);

/// One (node, query class) sample of an allocator snapshot: the node's
/// private price for the class plus its planned and still-unsold supply.
struct PriceRecord {
  int64_t t_us = 0;
  int node = -1;
  int class_id = -1;
  double price = 0.0;
  int64_t planned = 0;
  int64_t remaining = 0;

  bool operator==(const PriceRecord&) const = default;
  Json ToJson() const;
  static PriceRecord FromJson(const Json& json);
};

/// Per-agent cumulative counters at snapshot time (QA-NT).
struct AgentRecord {
  int64_t t_us = 0;
  int node = -1;
  int64_t requests = 0;
  int64_t offers = 0;
  int64_t accepted = 0;
  int64_t declined = 0;
  int64_t periods = 0;
  int64_t debt_us = 0;
  int64_t budget_us = 0;
  double earnings = 0.0;

  bool operator==(const AgentRecord&) const = default;
  Json ToJson() const;
  static AgentRecord FromJson(const Json& json);
};

/// One (cluster, query class) sample of an allocator snapshot under the
/// hierarchical market: the aggregate supply the cluster's sub-mediator
/// last published to the top tier, the ledger's remaining estimate, and
/// the cumulative units sold through the cluster.
struct ClusterRecord {
  int64_t t_us = 0;
  int cluster = -1;
  int class_id = -1;
  int64_t published = 0;
  int64_t remaining = 0;
  int64_t sold = 0;

  bool operator==(const ClusterRecord&) const = default;
  Json ToJson() const;
  static ClusterRecord FromJson(const Json& json);
};

/// One umpire price/excess-demand pair of the tâtonnement reference.
struct UmpireRecord {
  int iter = 0;
  int class_id = -1;
  double price = 0.0;
  double excess = 0.0;

  bool operator==(const UmpireRecord&) const = default;
  Json ToJson() const;
  static UmpireRecord FromJson(const Json& json);
};

/// One per run (its last line): the run's totals as sim::MetricsToJson
/// renders them, the same object the run's --report row holds. The trace
/// keeps no tallies of its own; qa_trace checks its records against these.
struct RunRecord {
  Json metrics;

  bool operator==(const RunRecord&) const = default;
  Json ToJson() const;
  static RunRecord FromJson(const Json& json);
};

}  // namespace qa::obs

#endif  // QAMARKET_OBS_TRACE_SCHEMA_H_
