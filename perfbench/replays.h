#pragma once

// Outside-in layer replays.  Each one re-runs a single layer's public entry
// point on the state a traced run left behind, after that run's timer has
// stopped, and reports the number of calls it timed (its base) with the
// time per call.  None of them counts toward an end-to-end metric.

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/update.h"
#include "des/event_queue.h"
#include "des/rng.h"
#include "gnutella/simulation.h"
#include "host_clock_sink.h"

namespace perfbench {

/// One replay's result: `calls` timed calls took `seconds` in total.
struct Replay {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  double ns_per_call() const noexcept {
    return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
  }
};

using Clock = std::chrono::steady_clock;

/// Steady-clock seconds since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// des::EventQueue hold model at the run's final population: `population`
/// events are pending, and each of `events` steps pops the earliest one,
/// dispatches it and schedules a successor.  Successor gaps are uniform
/// with the run's mean pending lifetime (population x horizon / events),
/// so the queue spans the same stretch of simulated time the run's did.
inline Replay replay_event_queue(std::size_t population, std::uint64_t events,
                                 double horizon_s, std::uint64_t seed) {
  dsf::des::EventQueue queue;
  dsf::des::Rng rng(seed);
  const double mean_gap =
      horizon_s * static_cast<double>(population) /
      static_cast<double>(events == 0 ? 1 : events);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < population; ++i)
    queue.schedule(rng.uniform(0.0, 2.0 * mean_gap), [&fired] { ++fired; });

  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < events && !queue.empty(); ++i) {
    auto [t, cb] = queue.pop();
    cb();
    queue.schedule(t + rng.uniform(0.0, 2.0 * mean_gap),
                   [&fired] { ++fired; });
  }
  return {fired, seconds_since(t0)};
}

/// LibraryPool::contains over the traced run's probe sample, on the pool
/// as the run left it (growth spills included).  `hits` receives how many
/// sampled probes found a holder.
inline Replay replay_pool(const dsf::workload::LibraryPool& pool,
                          const std::vector<Probe>& sample,
                          std::uint64_t& hits) {
  std::uint64_t found = 0;
  const auto t0 = Clock::now();
  for (const Probe& p : sample) found += pool.contains(p.user, p.item) ? 1 : 0;
  const double seconds = seconds_since(t0);
  hits = found;
  return {sample.size(), seconds};
}

/// core::plan_update over every user's final statistics and out-list,
/// repeated in whole passes until at least `min_calls` calls were timed.
inline Replay replay_plan_update(dsf::gnutella::Simulation& sim,
                                 std::uint64_t min_calls) {
  const std::uint32_t users = sim.config().num_users;
  const std::size_t capacity = sim.config().max_neighbors;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  while (calls < min_calls) {
    for (std::uint32_t u = 0; u < users; ++u) {
      dsf::core::plan_update(
          sim.stats(u), sim.overlay().out_neighbors(u), capacity,
          [&sim, u](dsf::net::NodeId n) { return n != u && sim.online(n); });
    }
    calls += users;
  }
  return {calls, seconds_since(t0)};
}

}  // namespace perfbench
