#include "sim/faults/fault_injector.h"

#include <algorithm>

namespace qa::sim::faults {

namespace {

inline bool InWindow(util::VTime from, util::VTime until, util::VTime now) {
  return now >= from && now < until;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t default_seed)
    : plan_(plan),
      rng_(plan.seed != 0 ? plan.seed : default_seed ^ 0x9e3779b97f4a7c15ull) {
  for (const CrashFault& f : plan_.crashes) {
    transitions_.emplace_back(
        f.at, Transition{Transition::Kind::kCrash, f.node, 1.0});
    transitions_.emplace_back(
        f.restart_at, Transition{Transition::Kind::kRestart, f.node, 1.0});
  }
  for (const DegradeFault& f : plan_.degrades) {
    transitions_.emplace_back(
        f.from, Transition{Transition::Kind::kDegradeStart, f.node, f.factor});
    transitions_.emplace_back(
        f.until, Transition{Transition::Kind::kDegradeEnd, f.node, 1.0});
  }
  for (const SurgeFault& f : plan_.surges) {
    transitions_.emplace_back(
        f.from, Transition{Transition::Kind::kSurgeStart, /*node=*/-1,
                           f.multiplier, f.class_id});
    transitions_.emplace_back(
        f.until, Transition{Transition::Kind::kSurgeEnd, /*node=*/-1, 1.0,
                            f.class_id});
  }
  // Time-ordered, stable so simultaneous transitions keep plan order.
  std::stable_sort(transitions_.begin(), transitions_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

bool FaultInjector::Crashed(catalog::NodeId node, util::VTime now) const {
  for (const CrashFault& f : plan_.crashes) {
    if (f.node == node && InWindow(f.at, f.restart_at, now)) return true;
  }
  return false;
}

bool FaultInjector::Partitioned(catalog::NodeId node, util::VTime now) const {
  for (const PartitionFault& f : plan_.partitions) {
    if (!InWindow(f.from, f.until, now)) continue;
    for (catalog::NodeId n : f.nodes) {
      if (n == node) return true;
    }
  }
  return false;
}

bool FaultInjector::AnyNodeDown(util::VTime now) const {
  for (const CrashFault& f : plan_.crashes) {
    if (InWindow(f.at, f.restart_at, now)) return true;
  }
  for (const PartitionFault& f : plan_.partitions) {
    if (InWindow(f.from, f.until, now)) return true;
  }
  return false;
}

double FaultInjector::SpeedFactor(catalog::NodeId node,
                                  util::VTime now) const {
  double factor = 1.0;
  for (const DegradeFault& f : plan_.degrades) {
    if (f.node == node && InWindow(f.from, f.until, now)) {
      factor *= f.factor;
    }
  }
  return factor;
}

double FaultInjector::ArrivalMultiplier(int class_id, util::VTime now) const {
  for (const SurgeFault& f : plan_.surges) {
    if (f.class_id != SurgeFault::kAllClasses && f.class_id != class_id) {
      continue;
    }
    if (InWindow(f.from, f.until, now)) return f.multiplier;
  }
  return 1.0;
}

bool FaultInjector::AnyLinkFaultActive(util::VTime now) const {
  for (const LinkFault& f : plan_.links) {
    if (InWindow(f.from, f.until, now)) return true;
  }
  return false;
}

bool FaultInjector::DropMessage(catalog::NodeId node, util::VTime now) {
  bool lost = false;
  for (const LinkFault& f : plan_.links) {
    if (f.node != LinkFault::kAllNodes && f.node != node) continue;
    if (!InWindow(f.from, f.until, now)) continue;
    // Draw even when already lost so the RNG stream depends only on the
    // plan and the event order, not on earlier draw outcomes.
    if (f.drop_probability > 0.0 && rng_.Bernoulli(f.drop_probability)) {
      lost = true;
    }
  }
  return lost;
}

util::VDuration FaultInjector::ExtraLatency(catalog::NodeId node,
                                            util::VTime now) const {
  util::VDuration extra = 0;
  for (const LinkFault& f : plan_.links) {
    if (f.node != LinkFault::kAllNodes && f.node != node) continue;
    if (InWindow(f.from, f.until, now)) extra += f.extra_latency;
  }
  return extra;
}

}  // namespace qa::sim::faults
