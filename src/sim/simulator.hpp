#pragma once

// Discrete-event simulation engine.
//
// Single-threaded and deterministic: components schedule callbacks,
// run()/run_until() advances the clock monotonically. All grid components
// (WMS, computing elements, clients) hold a reference to one Simulator.
//
// Periodic housekeeping (e.g. the WMS load-information refresh) is
// scheduled as *daemon* events: they fire in time order like any other
// event but do not keep run() alive, so a simulation terminates once all
// real work has drained.

#include "sim/event_queue.hpp"

namespace gridsub::sim {

class Simulator {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules at an absolute time (>= now; +inf is allowed, NaN is not).
  EventId schedule_at(SimTime time, SmallFn fn);

  /// Schedules `delay` seconds from now (delay >= 0; +inf is allowed,
  /// NaN is not).
  EventId schedule_in(SimTime delay, SmallFn fn);

  /// Daemon variant: the event fires normally but does not keep run()
  /// alive (use for self-rescheduling housekeeping).
  EventId schedule_daemon_in(SimTime delay, SmallFn fn);

  /// Cancels a pending event; false if it already fired or was canceled.
  bool cancel(EventId id);

  /// Runs until no non-daemon events remain.
  void run();

  /// Runs all events with time <= t_end, then sets the clock to t_end.
  void run_until(SimTime t_end);

  /// As run_until(t_end), but checks `done()` before each event and stops
  /// as soon as it holds, leaving the clock at the last event run. For
  /// runs whose result is read off clients that finish long before the
  /// horizon.
  template <class Done>
  void run_until(SimTime t_end, Done done) {
    while (!done()) {
      if (queue_.empty() || queue_.next_time() > t_end) {
        if (t_end > now_) now_ = t_end;
        return;
      }
      step();
    }
  }

  /// Number of events executed so far.
  [[nodiscard]] std::size_t processed_events() const { return processed_; }

  /// Live events still scheduled (daemons included).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  void step();

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::size_t processed_ = 0;
};

}  // namespace gridsub::sim
