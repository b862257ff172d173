#ifndef QAMARKET_DBMS_DBMS_FEDERATION_H_
#define QAMARKET_DBMS_DBMS_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "dbms/dataset.h"
#include "dbms/dbms_node.h"
#include "market/qa_nt.h"
#include "stats/summary.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::dbms {

/// Configuration of the §5.2 deployment reproduction: 5 heterogeneous
/// nodes, one behind a slow wireless link, a 20-table/80-view dataset and
/// star-query templates.
struct DbmsFederationConfig {
  DatasetConfig dataset;
  /// CPU range of the PCs (paper: 1.3-3.06 GHz).
  double min_cpu_ghz = 1.3;
  double max_cpu_ghz = 3.06;
  /// Wide I/O spread so per-template costs span the paper's ~1 s (fastest)
  /// to ~14 s (slowest) range.
  double min_io_mbps = 6.0;
  double max_io_mbps = 80.0;
  int64_t buffer_bytes = 48LL << 20;
  /// LAN latency (100 Mb full-duplex hub) and the one wireless node's
  /// latency (54 Mb P2P link).
  util::VDuration lan_latency = 1 * util::kMillisecond;
  util::VDuration wireless_latency = 8 * util::kMillisecond;
  /// Target mean execution time of the templates on the fastest node.
  /// The paper's ~1 s was measured in operation, i.e. with warm buffer
  /// pools; our calibration uses cold (buffer-blind) estimates, which run
  /// roughly 1.8x the warm executions, so the cold target is set so warm
  /// runs land at ~1 s.
  util::VDuration target_fastest_exec = 1800 * util::kMillisecond;
  /// Market period for QA-NT.
  util::VDuration period = 500 * util::kMillisecond;
  /// The §5.1 deployment recipe is applied here: agents always track
  /// prices but only restrict supply once prices signal overload (3x the
  /// initial price). Below the threshold QA-NT admits like a plain server
  /// while the economy keeps running in the background.
  market::QaNtConfig qa_nt{.activation_threshold = 1.5};
  uint64_t seed = 42;
};

/// Per-run measurements (the two bars of Fig. 7 per mechanism).
struct DbmsRunResult {
  std::string mechanism;
  /// Time from query arrival to node assignment (both mechanisms wait for
  /// every node's estimate reply before deciding).
  stats::Summary assign_ms;
  /// Time from arrival to completed execution.
  stats::Summary total_ms;
  stats::Summary exec_ms;
  int64_t completed = 0;
  int64_t retries = 0;
  int64_t dropped = 0;
};

/// The five-node minidb federation with a virtual-time driver implementing
/// the §5.2 protocol: broadcast estimate requests, wait for all replies
/// (EXPLAIN on the slowest PC takes seconds), assign per the mechanism
/// (Greedy or QA-NT), execute, and measure assign/total times.
class DbmsFederation {
 public:
  /// Aborts with a FATAL message unless `config.qa_nt` validates.
  explicit DbmsFederation(DbmsFederationConfig config);

  /// Runs `num_queries` queries with uniform inter-arrival times of mean
  /// `mean_interarrival` using `mechanism` ("Greedy" = least estimated
  /// completion, "GreedyBlind" = least estimated execution time — the
  /// information a §5.2 client really had — or "QA-NT"). Each Run resets
  /// node buffer pools, histories and agents. Any other name aborts with a
  /// FATAL message.
  DbmsRunResult Run(const std::string& mechanism, int num_queries,
                    util::VDuration mean_interarrival, uint64_t run_seed);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_templates() const {
    return static_cast<int>(dataset_.templates.size());
  }
  const DbmsNode& node(int i) const { return *nodes_[static_cast<size_t>(i)]; }
  const Fig7Dataset& dataset() const { return dataset_; }
  /// data_scale chosen by calibration.
  double data_scale() const { return data_scale_; }
  /// Static (empty-history) estimate of template `t` on node `n`, used as
  /// the QA-NT agents' unit costs; query::kInfeasibleCost when the node is
  /// not eligible.
  util::VDuration TemplateCost(int t, int n) const {
    return template_cost_[static_cast<size_t>(t)][static_cast<size_t>(n)];
  }

 private:
  void BuildNodes();
  void Calibrate();

  DbmsFederationConfig config_;
  util::Rng rng_;
  Fig7Dataset dataset_;
  std::vector<std::unique_ptr<DbmsNode>> nodes_;
  std::vector<util::VDuration> node_latency_;
  /// template x node static cost matrix (query::kInfeasibleCost where
  /// the node is not eligible).
  std::vector<std::vector<util::VDuration>> template_cost_;
  double data_scale_ = 1.0;
};

}  // namespace qa::dbms

#endif  // QAMARKET_DBMS_DBMS_FEDERATION_H_
