// event_queue.h — a deterministic virtual-clock event scheduler.
//
// The gateway's failure model (retransmit timers, exponential backoff, link
// delays, session deadlines) is all about *time*, and timeout logic tested
// against wall-clock sleeps is both slow and flaky. Everything here runs on
// a virtual clock instead: components schedule callbacks at future cycle
// counts, and the owner pumps the queue. Two properties make chaos runs
// bit-reproducible:
//
//   * total order — events fire in (time, insertion sequence) order, so two
//     events scheduled for the same cycle fire in the order they were
//     scheduled, never in hash-map or heap-internal order;
//   * single-threaded discipline — one queue is one shard's world; the
//     campaign engine scales by running many independent shard queues on
//     the thread pool and merging results in shard order (the PR 3
//     determinism contract), never by sharing a queue across threads.
//
// The idiom follows the teesoe-style component scheduler the ROADMAP names
// for the shard event loops: a monotonic cycle counter, schedule/cancel,
// and a run loop the owner controls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace medsec::core {

/// Virtual time unit. One "cycle" is whatever the owner says it is — the
/// gateway treats it as one radio-symbol-ish tick; only ratios matter.
using Cycle = std::uint64_t;

class EventQueue {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Cycle now() const { return now_; }
  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::uint64_t events_run() const { return events_run_; }

  /// Schedule `fn` to run `delay` cycles from now. Returns a handle that
  /// stays valid until the event fires or is cancelled.
  EventId schedule(Cycle delay, std::function<void()> fn) {
    const EventId id = next_id_++;
    heap_.push(Event{now_ + delay, id, std::move(fn)});
    ++live_;
    return id;
  }

  /// Cancel a scheduled event. Safe on already-fired or already-cancelled
  /// ids (returns false). Cancellation is lazy: the heap entry is skipped
  /// when it surfaces.
  bool cancel(EventId id) {
    if (id == kInvalidEvent) return false;
    // A fired or cancelled event's id is never reused, so membership in
    // the cancelled set is enough; the heap sweep erases it on surfacing.
    if (cancelled_.insert_unique(id)) {
      --live_;
      return true;
    }
    return false;
  }

  /// Deadline of the earliest live event, or nullopt when nothing is
  /// pending. Cancelled heads surfacing on the way are dropped; no event
  /// runs and the clock does not move. An owner that sleeps between
  /// pumps uses it to know how long it may sleep.
  std::optional<Cycle> next_deadline() {
    while (!heap_.empty()) {
      if (!cancelled_.erase(heap_.top().id)) return heap_.top().at;
      heap_.pop();
    }
    return std::nullopt;
  }

  /// Run the earliest pending event, advancing the clock to its deadline.
  /// Returns false when nothing is pending.
  bool run_next() {
    if (!next_deadline()) return false;
    run_top();
    return true;
  }

  /// Run every event with deadline <= t, then advance the clock to t.
  void run_until(Cycle t) {
    for (std::optional<Cycle> at; (at = next_deadline()) && *at <= t;)
      run_top();
    if (now_ < t) now_ = t;
  }

  /// Drain the queue completely, with a safety valve against runaway
  /// event chains (a retransmit loop that never converges). Returns the
  /// number of events run; hitting `limit` leaves the rest pending.
  std::uint64_t run_all(std::uint64_t limit = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < limit && run_next()) ++n;
    return n;
  }

 private:
  /// Run the heap's top, which next_deadline() has just shown is live.
  void run_top() {
    // Move the event out before running: the callback may schedule new
    // events (reallocating under the heap) or cancel others.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    --live_;
    now_ = ev.at;
    ++events_run_;
    ev.fn();
  }

  struct Event {
    Cycle at;
    EventId id;
    std::function<void()> fn;
    /// Min-heap on (time, id): std::priority_queue is a max-heap, so the
    /// comparison is inverted. The id tiebreak is the determinism rule —
    /// same-cycle events fire in scheduling order.
    bool operator<(const Event& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };

  /// Tiny sorted-vector set for cancelled ids — cancellation is rare
  /// (mostly retransmit timers beaten by their acks) and ids are
  /// near-monotonic, so a vector beats a node-based set here.
  struct CancelSet {
    std::vector<EventId> ids;
    bool insert_unique(EventId id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it != ids.end() && *it == id) return false;
      ids.insert(it, id);
      return true;
    }
    bool erase(EventId id) {
      const auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) return false;
      ids.erase(it);
      return true;
    }
  };

  std::priority_queue<Event> heap_;
  CancelSet cancelled_;
  Cycle now_ = 0;
  EventId next_id_ = 1;  // 0 is kInvalidEvent
  std::size_t live_ = 0;
  std::uint64_t events_run_ = 0;
};

/// Namespace-scope aliases: timer handles travel through component
/// headers (delivery.h) that shouldn't spell the owning class.
using EventId = EventQueue::EventId;
inline constexpr EventId kInvalidEvent = EventQueue::kInvalidEvent;

}  // namespace medsec::core
