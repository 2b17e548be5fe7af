#pragma once

// Shared `--adversary-*` option group for the dsf_sim driver (and any
// other tool that wants the same knobs): builds a sim::AdversaryPlan from
// command-line flags so every scenario can run under identical structured
// adversities.  The group also carries the closed-loop arrival capture
// flag, which shares the layer's exclusion of snapshots.
//
//   --adversary-abusers F      fraction of peers turned query-flood
//                              abusers (TTL-max searches at a fixed rate)
//   --adversary-abuse-rate R   searches per second per abuser
//   --adversary-abuse-start S / --adversary-abuse-end S
//                              abuse window in sim-seconds
//   --adversary-free-riders F  fraction of non-abuser peers that serve no
//                              content but keep their full query load
//   --adversary-outage-class C correlated regional outage: crash peers of
//                              this delay class (56k | cable | lan)
//   --adversary-outage-at S    outage time in sim-seconds
//   --adversary-outage-fraction F
//                              fraction of the class that goes down
//   --adversary-storm-rate R   churn-storm kicks per second
//   --adversary-storm-start S / --adversary-storm-end S
//                              storm window in sim-seconds
//   --adversary-storm-shape A  Pareto shape of the storm offline tails
//   --adversary-storm-offline-s S
//                              mean storm offline time
//   --adversary-degree-{56k,cable,lan} N
//                              capacity-aware degree bound per bandwidth
//                              class (0: scenario default)
//   --adversary-weight-{56k,cable,lan} W
//                              per-class benefit weight on answers
//   --adversary-check          audit abuse attribution + abuser overlay
//                              (nonzero exit on violation)
//   --capture-trace PATH       write this run's closed-loop query
//                              arrivals in the "time_s peer item" trace
//                              grammar, replayable with
//                              --open-loop --load-trace PATH

#include <string>

#include "cli/flag_registry.h"
#include "sim/adversary.h"

namespace dsf::cli {

struct AdversaryOptions {
  sim::AdversaryPlan plan;
  std::string capture_path;
  bool check = false;

  /// Anything at all requested (plan, capture, or checker)?
  bool any() const noexcept {
    return plan.enabled() || !capture_path.empty() || check;
  }
};

/// Declares the whole --adversary-* group (plus --capture-trace) on `reg`.
void register_adversary_flags(FlagRegistry& reg);

/// Builds the options from a parsed registry; throws
/// std::invalid_argument on bad values (fractions outside [0, 1],
/// unknown outage class, inverted windows, ...).
AdversaryOptions adversary_options_from(const FlagRegistry& reg);

}  // namespace dsf::cli
