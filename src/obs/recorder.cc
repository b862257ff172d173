#include "obs/recorder.h"

#include <utility>

namespace qa::obs {

util::StatusOr<std::unique_ptr<Recorder>> Recorder::OpenFile(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!file->is_open()) {
    return util::Status::InvalidArgument("cannot open trace file: " + path);
  }
  auto recorder = std::make_unique<Recorder>(file.get());
  recorder->file_ = std::move(file);
  return recorder;
}

void Recorder::Write(const Json& json) {
  if (sink_ == nullptr) return;
  line_buffer_.clear();
  json.DumpTo(line_buffer_);
  line_buffer_.push_back('\n');
  sink_->write(line_buffer_.data(),
               static_cast<std::streamsize>(line_buffer_.size()));
}

void Recorder::RecordSnapshot(util::VTime now,
                              const AllocatorSnapshot& snapshot) {
  if (sink_ == nullptr) return;
  for (const AgentStateSnapshot& agent : snapshot.agents) {
    for (size_t k = 0; k < agent.prices.size(); ++k) {
      PriceRecord price;
      price.t_us = now;
      price.node = agent.node;
      price.class_id = static_cast<int>(k);
      price.price = agent.prices[k];
      price.planned =
          k < agent.planned_supply.size() ? agent.planned_supply[k] : 0;
      price.remaining =
          k < agent.remaining_supply.size() ? agent.remaining_supply[k] : 0;
      Record(price);
    }
    AgentRecord record;
    record.t_us = now;
    record.node = agent.node;
    record.requests = agent.requests_seen;
    record.offers = agent.offers_made;
    record.accepted = agent.offers_accepted;
    record.declined = agent.declines_no_supply;
    record.periods = agent.periods;
    record.debt_us = agent.debt_us;
    record.budget_us = agent.remaining_budget_us;
    record.earnings = agent.earnings;
    Record(record);
  }
  for (const ClusterStateSnapshot& cluster : snapshot.clusters) {
    for (size_t k = 0; k < cluster.published.size(); ++k) {
      ClusterRecord record;
      record.t_us = now;
      record.cluster = cluster.cluster;
      record.class_id = static_cast<int>(k);
      record.published = cluster.published[k];
      record.remaining =
          k < cluster.remaining.size() ? cluster.remaining[k] : 0;
      record.sold = k < cluster.sold.size() ? cluster.sold[k] : 0;
      Record(record);
    }
  }
  for (size_t k = 0; k < snapshot.umpire_prices.size(); ++k) {
    UmpireRecord record;
    record.iter = static_cast<int>(now);
    record.class_id = static_cast<int>(k);
    record.price = snapshot.umpire_prices[k];
    record.excess =
        k < snapshot.excess_demand.size() ? snapshot.excess_demand[k] : 0.0;
    Record(record);
  }
}

void Recorder::Finish() {
  if (sink_ != nullptr) sink_->flush();
}

}  // namespace qa::obs
