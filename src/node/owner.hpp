// The owner workload process.
//
// Drives a Machine's OwnerLoad over simulated time by sampling a
// WeeklyProfile through a two-state (present/away) Markov chain whose
// stationary distribution matches the profile's per-slot presence
// probability and whose dwell times follow the profile's persistence. While
// present, the owner's CPU draw is resampled every slot around the
// profile's activity mean, so the load is bursty rather than flat.
//
// The generator also records the exact presence trace it produced, giving
// experiments an oracle to score LUPA predictions against.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "node/machine.hpp"
#include "node/usage_profile.hpp"
#include "sim/engine.hpp"

namespace integrade::node {

class OwnerWorkload {
 public:
  OwnerWorkload(sim::Engine& engine, Machine& machine, WeeklyProfile profile,
                Rng rng);

  /// Begin driving the machine. Decisions re-evaluate every `tick` (default:
  /// one 5-minute sample interval, matching LUPA's sampling grain).
  void start(SimDuration tick = 5 * kMinute);
  void stop();

  [[nodiscard]] const WeeklyProfile& profile() const { return profile_; }
  [[nodiscard]] bool present() const { return present_; }

  /// Ground-truth presence changes: (time, present) transitions, for
  /// prediction-scoring oracles.
  struct Transition {
    SimTime at;
    bool present;
  };
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// True if the owner was present at historical time `t` (t must be within
  /// the simulated span so far).
  [[nodiscard]] bool was_present(SimTime t) const;

  /// Day indices (t / kDay) that were holidays, in order.
  [[nodiscard]] const std::vector<int>& holidays() const { return holidays_; }

  /// Duration from `t` until the owner next becomes present (oracle; uses
  /// the recorded trace). Returns kTimeNever-t if never within the trace.
  [[nodiscard]] SimDuration idle_run_after(SimTime t) const;

 private:
  void tick();
  void apply_state();
  void roll_day(int day);
  [[nodiscard]] double effective_presence(SimTime t) const;

  sim::Engine& engine_;
  Machine& machine_;
  WeeklyProfile profile_;
  Rng rng_;
  sim::PeriodicTimer timer_;
  bool present_ = false;
  bool holiday_today_ = false;
  int current_day_ = -1;
  double current_cpu_ = 0.0;
  std::vector<Transition> transitions_;
  std::vector<int> holidays_;
};

}  // namespace integrade::node
