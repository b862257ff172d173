#include "dbms/dbms_federation.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "market/clearing_book.h"
#include "query/cost_model.h"

namespace qa::dbms {

DbmsFederation::DbmsFederation(DbmsFederationConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  util::AbortUnlessOk(config_.qa_nt.Validate(),
                      "DbmsFederation: invalid QaNtConfig");
  dataset_ = BuildFig7Dataset(config_.dataset, rng_);
  BuildNodes();
  Calibrate();
}

void DbmsFederation::BuildNodes() {
  int n = config_.dataset.num_nodes;
  // The wireless node is the last one (paper: one PC on a 54 Mb P2P link).
  for (int i = 0; i < n; ++i) {
    DbmsNodeConfig node_config;
    node_config.hw.cpu_ghz =
        rng_.UniformReal(config_.min_cpu_ghz, config_.max_cpu_ghz);
    node_config.hw.io_mbps =
        rng_.UniformReal(config_.min_io_mbps, config_.max_io_mbps);
    node_config.hw.supports_hash_join = true;
    node_config.buffer_bytes = config_.buffer_bytes;
    node_config.link_latency =
        i == n - 1 ? config_.wireless_latency : config_.lan_latency;
    nodes_.push_back(std::make_unique<DbmsNode>(
        i, std::move(dataset_.node_dbs[static_cast<size_t>(i)]),
        node_config));
    node_latency_.push_back(node_config.link_latency);
  }
  dataset_.node_dbs.clear();
}

void DbmsFederation::Calibrate() {
  // Find the fastest node and the mean buffer-blind estimate of all
  // templates on their eligible nodes; set data_scale so that the mean
  // estimate on the *fastest eligible* node hits the target.
  double sum_fastest = 0.0;
  int counted = 0;
  int num_t = num_templates();
  std::vector<std::vector<util::VDuration>> raw(
      static_cast<size_t>(num_t),
      std::vector<util::VDuration>(nodes_.size(), 0));
  for (int t = 0; t < num_t; ++t) {
    util::VDuration fastest = std::numeric_limits<util::VDuration>::max();
    for (int i : dataset_.template_nodes[static_cast<size_t>(t)]) {
      Planner planner(&nodes_[static_cast<size_t>(i)]->db(),
                      nodes_[static_cast<size_t>(i)]->config().planner);
      util::StatusOr<ExplainResult> explained =
          planner.Explain(dataset_.templates[static_cast<size_t>(t)]);
      assert(explained.ok());
      util::VDuration d = nodes_[static_cast<size_t>(i)]->EstimateToDuration(
          explained->estimate);
      raw[static_cast<size_t>(t)][static_cast<size_t>(i)] = d;
      fastest = std::min(fastest, d);
    }
    if (fastest != std::numeric_limits<util::VDuration>::max()) {
      sum_fastest += static_cast<double>(fastest);
      ++counted;
    }
  }
  double mean_fastest = counted > 0 ? sum_fastest / counted : 1.0;
  data_scale_ = mean_fastest > 0.0
                    ? static_cast<double>(config_.target_fastest_exec) /
                          mean_fastest
                    : 1.0;
  for (auto& node : nodes_) node->set_data_scale(data_scale_);

  // Static template-cost matrix at the calibrated scale.
  template_cost_.assign(
      static_cast<size_t>(num_t),
      std::vector<util::VDuration>(nodes_.size(), query::kInfeasibleCost));
  for (int t = 0; t < num_t; ++t) {
    for (int i : dataset_.template_nodes[static_cast<size_t>(t)]) {
      template_cost_[static_cast<size_t>(t)][static_cast<size_t>(i)] =
          std::max<util::VDuration>(
              static_cast<util::VDuration>(
                  static_cast<double>(
                      raw[static_cast<size_t>(t)][static_cast<size_t>(i)]) *
                  data_scale_),
              1);
    }
  }
}

DbmsRunResult DbmsFederation::Run(const std::string& mechanism,
                                  int num_queries,
                                  util::VDuration mean_interarrival,
                                  uint64_t run_seed) {
  // An unknown name would fall through to the QA-NT auction with no
  // agents built; fail fast instead, like the experiment runner does.
  const bool qa_nt = mechanism == "QA-NT";
  util::AbortUnlessOk(
      qa_nt || mechanism == "Greedy" || mechanism == "GreedyBlind"
          ? util::Status::OK()
          : util::Status::InvalidArgument(
                "unknown mechanism '" + mechanism +
                "' (accepted: Greedy, GreedyBlind, QA-NT)"),
      "DbmsFederation::Run");
  DbmsRunResult result;
  result.mechanism = mechanism;
  util::Rng rng(run_seed);
  for (auto& node : nodes_) node->ResetState();

  int n = num_nodes();
  int num_t = num_templates();
  std::vector<util::VTime> busy_until(static_cast<size_t>(n), 0);

  // QA-NT agents: unit costs = static template-cost matrix. Their book
  // lists nothing: a client asks the template's eligible nodes (Poll).
  market::ClearingBook book(n, num_t, config_.period, config_.qa_nt);
  if (qa_nt) {
    std::vector<util::VDuration> costs(static_cast<size_t>(num_t));
    for (int i = 0; i < n; ++i) {
      for (int t = 0; t < num_t; ++t) {
        costs[static_cast<size_t>(t)] = TemplateCost(t, i);
      }
      book.Put(i, costs).BeginPeriod();
    }
  }
  util::VTime next_boundary = config_.period;
  auto advance_periods = [&](util::VTime t) {
    int64_t periods = 0;
    while (next_boundary <= t) {
      ++periods;
      next_boundary += config_.period;
    }
    for (int32_t row = 0; row < book.num_rows(); ++row) {
      book.Roll(row, periods);
    }
  };

  // QA-NT converts overload into boundary retries rather than node-side
  // queueing; the cap only guards against templates that are permanently
  // unservable (it must exceed the drain time of a worst-case burst, in
  // periods).
  constexpr int kMaxRetries = 2000;
  util::VTime t_arr = 0;
  for (int q = 0; q < num_queries; ++q) {
    t_arr += rng.UniformInt(0, 2 * mean_interarrival);
    int tmpl = static_cast<int>(rng.UniformInt(0, num_t - 1));
    SelectStatement stmt =
        InstantiateTemplate(dataset_, tmpl, config_.dataset, rng);
    const std::vector<int>& eligible =
        dataset_.template_nodes[static_cast<size_t>(tmpl)];

    util::VTime t_now = t_arr;
    int chosen = -1;
    util::VTime t_dec = 0;
    int attempts = 0;
    while (chosen < 0) {
      if (qa_nt) advance_periods(t_now);

      // Broadcast estimate requests and wait for every reply (this is the
      // behavior the paper measured: both algorithms waited for all nodes,
      // and the slowest PC took seconds per EXPLAIN).
      util::VDuration slowest_reply = 0;
      std::vector<util::VDuration> est(static_cast<size_t>(n), 0);
      for (int i : eligible) {
        util::StatusOr<EstimateReply> reply =
            nodes_[static_cast<size_t>(i)]->EstimateQuery(stmt);
        assert(reply.ok());
        est[static_cast<size_t>(i)] = reply->est_exec;
        slowest_reply =
            std::max(slowest_reply, 2 * node_latency_[static_cast<size_t>(i)] +
                                        reply->explain_time);
        // The node's own estimate also refreshes its market agent's
        // execution-time belief (history-corrected once the plan shape has
        // run before) so the agent prices capacity realistically.
        if (qa_nt) book.mutable_agent(i).UpdateUnitCost(tmpl, reply->est_exec);
      }
      t_dec = t_now + slowest_reply;

      if (mechanism == "Greedy") {
        // Least estimated completion time: the node's quoted execution
        // estimate (EXPLAIN + history) on top of its current commitments.
        util::VTime best_completion = 0;
        for (int i : eligible) {
          util::VTime completion =
              std::max(busy_until[static_cast<size_t>(i)], t_dec) +
              est[static_cast<size_t>(i)];
          if (chosen < 0 || completion < best_completion) {
            chosen = i;
            best_completion = completion;
          }
        }
        break;
      }
      if (mechanism == "GreedyBlind") {
        // What a real client can actually compute without queue
        // disclosure: least estimated *execution* time. This is the §5.2
        // implementation's information set.
        for (int i : eligible) {
          if (chosen < 0 || est[static_cast<size_t>(i)] <
                                est[static_cast<size_t>(chosen)]) {
            chosen = i;
          }
        }
        break;
      }

      // QA-NT: collect offers at decision time. The cheapest offer is
      // the least estimate just revised, the offering agent's unit cost.
      if (qa_nt) advance_periods(t_dec);
      chosen = book.Poll(tmpl, eligible, market::OfferSelection::kCheapest);
      if (chosen >= 0) break;
      // All declined: resubmit at the next period boundary *after this
      // query's own clock* (next_boundary is a global cursor that earlier
      // queries may already have pushed far ahead).
      ++result.retries;
      if (++attempts > kMaxRetries) break;
      t_now = (t_now / config_.period + 1) * config_.period;
    }

    if (chosen < 0) {
      ++result.dropped;
      continue;
    }

    util::StatusOr<ExecutionOutcome> outcome =
        nodes_[static_cast<size_t>(chosen)]->ExecuteQuery(stmt);
    assert(outcome.ok());
    util::VTime start =
        std::max(busy_until[static_cast<size_t>(chosen)],
                 t_dec + node_latency_[static_cast<size_t>(chosen)]);
    util::VTime completion = start + outcome->duration;
    busy_until[static_cast<size_t>(chosen)] = completion;

    result.assign_ms.Add(util::ToMillis(t_dec - t_arr));
    result.total_ms.Add(util::ToMillis(completion - t_arr));
    result.exec_ms.Add(util::ToMillis(outcome->duration));
    ++result.completed;
  }
  return result;
}

}  // namespace qa::dbms
