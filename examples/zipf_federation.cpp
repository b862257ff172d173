// The full Table 3 federation on a heterogeneous Zipf workload.
//
// Builds the paper's simulation scenario end to end — synthetic catalog
// (1000 relations, ~5 mirrors each), 100 heterogeneous nodes, 100
// select-join-project-sort query templates calibrated to a 2 s best-case
// execution time — generates a Zipf workload and runs QA-NT over it,
// reporting throughput, response times, and market statistics.

#include <iostream>

#include "allocation/factory.h"
#include "allocation/qa_nt_allocator.h"
#include "sim/federation.h"
#include "sim/scenario.h"
#include "util/table_writer.h"
#include "workload/zipf_workload.h"

using namespace qa;
using util::kMillisecond;

int main() {
  const uint64_t seed = 2026;
  util::Rng rng(seed);

  // Scaled-down Table 3 so the example finishes in seconds; flip these to
  // the defaults for the full 100-node/1000-relation federation.
  sim::Table3Config table3;
  table3.catalog.num_relations = 300;
  table3.catalog.num_nodes = 40;
  table3.profiles.num_nodes = 40;
  table3.templates.num_classes = 40;
  sim::Scenario scenario = sim::BuildTable3Scenario(table3, rng);

  std::cout << "Federation: " << scenario.cost_model->num_nodes()
            << " nodes, " << scenario.catalog->num_relations()
            << " relations, " << scenario.cost_model->num_classes()
            << " query classes\n";

  workload::ZipfWorkloadConfig zipf;
  zipf.num_queries = 3000;
  zipf.num_classes = scenario.cost_model->num_classes();
  zipf.mean_interarrival = 4000 * kMillisecond;  // moderate overload
  zipf.num_origin_nodes = scenario.cost_model->num_nodes();
  util::Rng wl_rng(seed + 1);
  workload::Trace trace = workload::GenerateZipfWorkload(zipf, wl_rng);
  std::cout << "Workload: " << trace.size()
            << " queries, Zipf(a=1) inter-arrivals, last arrival at "
            << util::ToSeconds(trace.LastArrivalTime()) << " s\n\n";

  allocation::AllocatorParams params;
  params.cost_model = scenario.cost_model.get();
  params.period = 500 * kMillisecond;
  params.seed = seed;
  auto alloc = allocation::CreateAllocator("QA-NT", params);

  sim::FederationConfig config;
  config.period = params.period;
  config.max_retries = 5000;
  sim::Federation fed(scenario.cost_model.get(), alloc.get(), config);
  sim::SimMetrics metrics = fed.Run(trace);

  std::cout << "Response time: " << metrics.response_time_ms.ToString()
            << " ms\n"
            << "Throughput:    " << metrics.ThroughputQps()
            << " queries/s over " << util::ToSeconds(metrics.end_time)
            << " s\n"
            << "Retries:       " << metrics.retries << ", dropped "
            << metrics.dropped << "\n"
            << "Messages:      " << metrics.messages << " ("
            << static_cast<double>(metrics.messages) /
                   static_cast<double>(trace.size())
            << " per query)\n\n";

  // Market introspection: the five priciest (class, node) beliefs.
  auto* qa_nt = static_cast<allocation::QaNtAllocator*>(alloc.get());
  util::TableWriter prices({"Node", "Class", "Price", "Unit cost (ms)"});
  struct Entry {
    int node;
    int k;
    double price;
    double cost_ms;
  };
  std::vector<Entry> entries;
  for (int i = 0; i < qa_nt->num_nodes(); ++i) {
    market::QaNtAgentView agent = qa_nt->agent(i);
    for (int k = 0; k < scenario.cost_model->num_classes(); ++k) {
      if (!agent.CanEvaluate(k)) continue;
      entries.push_back({i, k, agent.prices()[k],
                         util::ToMillis(agent.unit_cost(k))});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.price > b.price; });
  for (size_t i = 0; i < entries.size() && i < 5; ++i) {
    prices.AddRow(entries[i].node, entries[i].k, entries[i].price,
                  entries[i].cost_ms);
  }
  std::cout << "Highest prices after the run (scarcity signals):\n";
  prices.Print(std::cout);
  return 0;
}
