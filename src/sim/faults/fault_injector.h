#ifndef QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_
#define QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/faults/fault_plan.h"
#include "util/rng.h"
#include "util/vtime.h"

namespace qa::sim::faults {

/// The compiled runtime of one FaultPlan for one federation run: answers
/// the simulator's reachability/speed/link questions from the plan's time
/// windows, and exposes the plan's timed transitions so the federation can
/// schedule them as discrete events (crash flushes a node, restart resets
/// the allocator's agent, degrade edges are traced).
///
/// One injector belongs to one single-threaded Federation. All message-loss
/// randomness comes from a private RNG seeded at construction; since the
/// event loop consumes draws in deterministic order, a (plan, seed) pair
/// reproduces the same run byte for byte at any experiment-grid thread
/// count.
class FaultInjector {
 public:
  /// A state change the federation must act on at a specific time.
  struct Transition {
    enum class Kind : uint8_t {
      kCrash,         // node goes down, volatile state lost
      kRestart,       // node back up, allocator re-learns it
      kDegradeStart,  // node slows to `factor` of normal speed
      kDegradeEnd,    // node back to full speed
      kSurgeStart,    // arrival rate of `class_id` multiplied by `factor`
      kSurgeEnd,      // arrival rate back to normal
    };
    Kind kind = Kind::kCrash;
    catalog::NodeId node = -1;  // -1 for the node-less surge transitions
    double factor = 1.0;   // degrade / surge transitions only
    int class_id = -1;     // surge transitions only (-1 = all classes)
  };

  /// `plan` must already be validated. `default_seed` is used when the
  /// plan's own seed is 0 (see FaultPlan::seed).
  FaultInjector(const FaultPlan& plan, uint64_t default_seed);

  bool empty() const { return plan_.empty(); }

  /// The plan's transitions, time-ordered (FIFO within a timestamp).
  const std::vector<std::pair<util::VTime, Transition>>& transitions()
      const {
    return transitions_;
  }

  /// Inside a crash window: down, state lost until restart.
  bool Crashed(catalog::NodeId node, util::VTime now) const;
  /// Inside a partition window: unreachable, state intact.
  bool Partitioned(catalog::NodeId node, util::VTime now) const;
  /// Unreachable for any reason (crashed or partitioned).
  bool Unreachable(catalog::NodeId node, util::VTime now) const {
    return Crashed(node, now) || Partitioned(node, now);
  }
  /// True when some crash or partition window covers `now`: false
  /// promises that no node is Unreachable.
  bool AnyNodeDown(util::VTime now) const;

  /// Execution speed multiplier in (0, 1]; 1.0 = full speed. Overlapping
  /// degrade windows compound.
  double SpeedFactor(catalog::NodeId node, util::VTime now) const;

  /// Arrival-rate multiplier for `class_id` at `now`: the matching surge
  /// window's multiplier, 1.0 outside every window. Validation forbids
  /// overlapping matching windows, so at most one applies.
  double ArrivalMultiplier(int class_id, util::VTime now) const;
  bool AnySurge() const { return !plan_.surges.empty(); }

  /// True when some link fault window covers `now` (fast-path gate: when
  /// false, no draw is consumed anywhere).
  bool AnyLinkFaultActive(util::VTime now) const;
  /// Draws the fate of one message hop toward `node`: true = the message
  /// is lost. Consumes one RNG draw per active matching link fault.
  bool DropMessage(catalog::NodeId node, util::VTime now);
  /// Extra one-way latency currently imposed on the link toward `node`.
  util::VDuration ExtraLatency(catalog::NodeId node, util::VTime now) const;

 private:
  FaultPlan plan_;
  std::vector<std::pair<util::VTime, Transition>> transitions_;
  util::Rng rng_;
};

}  // namespace qa::sim::faults

#endif  // QAMARKET_SIM_FAULTS_FAULT_INJECTOR_H_
