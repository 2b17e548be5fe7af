#pragma once

// The correctness gate every benchmark run passes through.  A run whose
// gate fails is counted as failed and none of its numbers are reported.
//
//   * fingerprint — the run's metrics::Fingerprint over the RunResult
//     fields the golden-seed regression tests fold.  The untraced and the
//     traced pass of one seed must agree on it (observing must not
//     perturb), and so must repeated passes (determinism);
//   * overlay — InvariantChecker::check_overlay over the final overlay;
//   * identities — hits <= queries, queries = favourite + side queries,
//     and one first-result delay sample per satisfied query.

#include <cstdint>
#include <string>
#include <vector>

#include "gnutella/simulation.h"
#include "metrics/digest.h"
#include "sim/invariants.h"

namespace perfbench {

/// Which fingerprint fields to fold.  kDropEvictions exists only for the
/// self-test, which proves that a fingerprint missing one field fails the
/// gate instead of producing a number.
enum class FingerprintFields { kAll, kDropEvictions };

inline dsf::metrics::Fingerprint fingerprint(
    const dsf::gnutella::RunResult& r,
    FingerprintFields fields = FingerprintFields::kAll) {
  dsf::metrics::Fingerprint fp;
  fp.add(r.queries_issued)
      .add(r.local_hits)
      .add(r.total_hits())
      .add(r.total_messages())
      .add(r.total_results())
      .add(r.reconfigurations)
      .add(r.invitations_accepted);
  if (fields == FingerprintFields::kAll) fp.add(r.evictions);
  fp.add(r.traffic.total())
      .add(r.first_result_delay_s.mean())
      .add(r.nodes_reached.mean());
  return fp;
}

/// Checks one finished run; returns the failed checks (empty = clean).
inline std::vector<std::string> check_run(dsf::gnutella::Simulation& sim,
                                          const dsf::gnutella::RunResult& r) {
  std::vector<std::string> failures;
  dsf::sim::InvariantChecker checker;
  checker.check_overlay(sim.overlay());
  if (!checker.ok()) failures.push_back("overlay: " + checker.report());

  const std::uint64_t hits = r.hits_favorite + r.hits_side;
  if (r.queries_issued == 0) failures.push_back("no queries issued");
  if (hits > r.queries_issued)
    failures.push_back("hits " + std::to_string(hits) + " > queries " +
                       std::to_string(r.queries_issued));
  if (r.total_hits() > r.queries_issued)
    failures.push_back("hit series " + std::to_string(r.total_hits()) +
                       " > queries " + std::to_string(r.queries_issued));
  if (r.queries_favorite + r.queries_side != r.queries_issued)
    failures.push_back("favourite + side queries != queries issued");
  if (r.first_result_delay_hist.count() != hits)
    failures.push_back("delay histogram holds " +
                       std::to_string(r.first_result_delay_hist.count()) +
                       " samples for " + std::to_string(hits) + " hits");
  return failures;
}

}  // namespace perfbench
