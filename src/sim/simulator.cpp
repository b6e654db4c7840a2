#include "sim/simulator.hpp"

#include <stdexcept>

namespace gridsub::sim {

EventId Simulator::schedule_at(SimTime time, SmallFn fn) {
  if (!(time >= now_)) {  // also rejects NaN
    throw std::invalid_argument(
        "Simulator::schedule_at: time in the past or NaN");
  }
  return queue_.push(time, std::move(fn));
}

EventId Simulator::schedule_in(SimTime delay, SmallFn fn) {
  if (!(delay >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "Simulator::schedule_in: negative or NaN delay");
  }
  return queue_.push(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_daemon_in(SimTime delay,
                                      SmallFn fn) {
  if (!(delay >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "Simulator::schedule_daemon_in: negative or NaN delay");
  }
  return queue_.push(now_ + delay, std::move(fn), /*daemon=*/true);
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::step() {
  auto fired = queue_.pop();
  now_ = fired.time;
  ++processed_;
  fired.fn();
}

void Simulator::run() {
  while (queue_.live_size() > 0) step();
}

void Simulator::run_until(SimTime t_end) {
  run_until(t_end, [] { return false; });
}

}  // namespace gridsub::sim
