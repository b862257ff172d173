#ifndef QAMARKET_SIM_EVENT_QUEUE_H_
#define QAMARKET_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/vtime.h"

namespace qa::sim {

/// Customization point for EventQueue's past-timestamp diagnostic: provide
/// an overload of DescribeEvent for your event type (found by ADL or in
/// this namespace) that names the event's kind and the node/query it
/// targets, and scheduling bugs report *which* event time-traveled instead
/// of a bare assert. This template is the fallback for payload types that
/// do not describe themselves (ints in unit tests, micro-bench payloads).
template <typename Event>
std::string DescribeEvent(const Event& /*event*/) {
  return "(event type has no DescribeEvent overload)";
}

/// A classic discrete-event scheduler: events fire in time order, with a
/// 64-bit stamp breaking ties deterministically.
///
/// Two scheduling modes share the queue:
///  - Schedule(when, event): the stamp is a monotonically increasing
///    internal sequence number, i.e. classic FIFO tie-breaking —
///    simultaneous events run in the order they were scheduled.
///  - Schedule(when, stamp, event) and Append(when, stamp, event): the
///    caller supplies the stamp. The sharded federation uses this with
///    *placement-independent* stamps (a canonical (lane, node, counter)
///    encoding, see sim/shard.h) so that the global event order is a pure
///    function of the scenario and never of how nodes are partitioned onto
///    shards or threads.
/// The two modes must not be mixed on one queue instance: relative order
/// of internal and external stamps would depend on call history.
///
/// Events live in two structures, merged by (time, stamp) on every read:
/// a binary heap for events scheduled as the run goes, and an append-only
/// *stream* for events that arrive already in key order (a time-sorted
/// trace), read through a cursor. A streamed event costs one vector slot
/// and no sifting, and it never makes a heap operation deeper. Append
/// sends an event that would break the stream's order (or lies in the
/// past) to the heap instead, so the dispatch order is the (time, stamp)
/// order whichever structure an event sits in; on an exactly equal key
/// the streamed event runs first.
///
/// `Event` is a by-value payload (for the federation: small tagged
/// structs, see SimEvent and LaneEvent) handed back to the dispatcher
/// passed to RunOne/RunAll/RunWhileBefore. Storing plain structs instead
/// of type-erased std::function callbacks keeps the hot path
/// allocation-free: the only memory the queue ever touches is its own two
/// vectors, which Reserve() and ReserveStream() can size up front.
template <typename Event>
class EventQueue {
 public:
  /// Schedules `event` at absolute time `when` (must be >= now()) with an
  /// internal FIFO stamp. Scheduling into the past is a bug in the caller:
  /// every build prints a diagnostic naming the offending event (see
  /// DescribeEvent), debug builds then assert, and all builds clamp `when`
  /// to now() so the event cannot time-travel and corrupt the monotonic
  /// clock.
  void Schedule(util::VTime when, Event event) {
    Schedule(when, next_seq_++, std::move(event));
  }

  /// Schedules `event` with a caller-chosen tie-break stamp. Same
  /// past-timestamp policy as above.
  void Schedule(util::VTime when, uint64_t stamp, Event event) {
    if (when < now_) {
      // Diagnose loudly in every build: under NDEBUG the assert below
      // compiles away, and a silently clamped event is exactly how a
      // shard-merge ordering bug would hide. The event's own description
      // (kind, node, query) is what makes the report actionable.
      std::fprintf(stderr,
                   "EventQueue: scheduling into the past (when=%" PRId64
                   "us < now=%" PRId64 "us, stamp=%" PRIu64 "): %s\n",
                   static_cast<int64_t>(when), static_cast<int64_t>(now_),
                   stamp, DescribeEvent(event).c_str());
      assert(when >= now_ && "cannot schedule into the past");
      when = now_;
    }
    heap_.push_back(Entry{when, stamp, std::move(event)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Adds `event` to the stream when its (when, stamp) key follows every
  /// stream entry still pending; otherwise — out of key order, or in the
  /// past — it is Schedule()d into the heap, past-timestamp diagnostic
  /// included. Either way it fires at its (time, stamp) position.
  void Append(util::VTime when, uint64_t stamp, Event event) {
    if (cursor_ == stream_.size()) {
      // Everything streamed so far has fired: start over in place.
      stream_.clear();
      cursor_ = 0;
    }
    bool in_order = stream_.empty() || when > stream_.back().time ||
                    (when == stream_.back().time &&
                     stamp > stream_.back().stamp);
    if (!in_order || when < now_) {
      Schedule(when, stamp, std::move(event));
      return;
    }
    stream_.push_back(Entry{when, stamp, std::move(event)});
  }

  /// Pre-sizes the heap, for callers that know how many events will be
  /// pending at once.
  void Reserve(size_t events) { heap_.reserve(events); }
  /// Pre-sizes the stream, e.g. for every arrival of a trace.
  void ReserveStream(size_t events) { stream_.reserve(events); }

  util::VTime now() const { return now_; }
  bool empty() const { return heap_.empty() && cursor_ == stream_.size(); }
  size_t size() const { return heap_.size() + (stream_.size() - cursor_); }

  /// The next event to fire (undefined when empty()); it stays queued.
  const Event& Peek() const { return Next().event; }
  util::VTime PeekTime() const { return Next().time; }
  uint64_t PeekStamp() const { return Next().stamp; }

  /// Pops and dispatches the next event; returns false when the queue is
  /// empty. `dispatch` may schedule further events.
  template <typename Dispatch>
  bool RunOne(Dispatch&& dispatch) {
    if (empty()) return false;
    Entry entry = Pop();
    now_ = entry.time;
    dispatch(entry.event);
    return true;
  }

  /// Runs events until the queue empties or `limit` events have fired.
  /// Returns the number of events run.
  template <typename Dispatch>
  uint64_t RunAll(Dispatch&& dispatch, uint64_t limit = UINT64_MAX) {
    uint64_t ran = 0;
    while (ran < limit && RunOne(dispatch)) ++ran;
    return ran;
  }

  /// Runs events whose (time, stamp) key is strictly before the given
  /// fence key — the fenced drain of the federation's node lanes: each
  /// lane advances exactly to the fence and not one event past it. Unlike
  /// RunOne, the dispatcher receives the popped entry's key too,
  /// `dispatch(event, time, stamp)` — lane handlers use it to key their
  /// buffered effects for the canonical fence merge.
  /// Returns the number of events run. The dispatcher runs on the shard
  /// lane: qa_lint's QA-SHD-002 pass treats every lambda handed here as a
  /// shard-lane entry point and flags mediator-lane state reachable from
  /// it outside the merge fences.
  template <typename Dispatch>
  uint64_t RunWhileBefore(util::VTime fence_time, uint64_t fence_stamp,
                          Dispatch&& dispatch) {
    uint64_t ran = 0;
    while (!empty()) {
      const Entry& next = Next();
      if (next.time > fence_time ||
          (next.time == fence_time && next.stamp >= fence_stamp)) {
        break;
      }
      Entry entry = Pop();
      now_ = entry.time;
      dispatch(entry.event, entry.time, entry.stamp);
      ++ran;
    }
    return ran;
  }

 private:
  struct Entry {
    util::VTime time;
    uint64_t stamp;
    Event event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.stamp > b.stamp;
    }
  };

  /// True when the next event is the stream's: its head sorts before the
  /// heap's top, or ties it.
  bool StreamNext() const {
    if (cursor_ == stream_.size()) return false;
    return heap_.empty() || !Later{}(stream_[cursor_], heap_.front());
  }
  /// The entry to fire next. Requires !empty().
  const Entry& Next() const {
    return StreamNext() ? stream_[cursor_] : heap_.front();
  }
  /// Removes and returns the next entry. Requires !empty().
  Entry Pop() {
    if (StreamNext()) return stream_[cursor_++];
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  // A std::push_heap/pop_heap max-heap over a plain vector (rather than
  // std::priority_queue) so Reserve() is possible and the popped entry can
  // be moved out without const_cast.
  std::vector<Entry> heap_;
  // Key-sorted from cursor_ on; entries before cursor_ have fired.
  std::vector<Entry> stream_;
  size_t cursor_ = 0;
  util::VTime now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace qa::sim

#endif  // QAMARKET_SIM_EVENT_QUEUE_H_
