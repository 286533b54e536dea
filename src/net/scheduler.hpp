// Discrete-event scheduler: the clock of the simulated world.
//
// A single-threaded priority queue of (time, sequence, action); equal
// times break ties by insertion order so runs are fully deterministic.
// Everything in the simulated substrate — message deliveries, workload
// think-times, crash injections, partition healing — is an action on
// this queue.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "net/latency.hpp"
#include "util/assert.hpp"

namespace ucw {

class SimScheduler {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now).
  void at(SimTime t, Action fn) {
    UCW_CHECK_MSG(t >= now_, "cannot schedule into the past");
    queue_.push(Entry{t, next_seq_++, std::move(fn)});
  }

  /// Schedules `fn` after a (non-negative) delay from now.
  void after(SimTime delay, Action fn) {
    UCW_CHECK(delay >= 0);
    at(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains or `max_events` executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (!queue_.empty() && n < max_events) {
      step();
      ++n;
    }
    return n;
  }

  /// Runs events with time <= t and leaves later events queued. The
  /// clock stays at the last executed event, so anything scheduled
  /// afterwards lands where it would have in an unbounded run.
  std::size_t run_through(SimTime t) {
    std::size_t n = 0;
    while (!queue_.empty() && queue_.top().at <= t) {
      step();
      ++n;
    }
    return n;
  }

  /// run_through(t), then advances the clock to exactly t.
  std::size_t run_until(SimTime t) {
    const std::size_t n = run_through(t);
    now_ = std::max(now_, t);
    return n;
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Action fn;
    bool operator>(const Entry& o) const {
      if (at != o.at) return at > o.at;
      return seq > o.seq;
    }
  };

  void step() {
    // Move out before popping: the action may schedule new events.
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    UCW_DCHECK(e.at >= now_);
    now_ = e.at;
    ++executed_;
    e.fn();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace ucw
