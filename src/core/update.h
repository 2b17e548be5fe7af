#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stats_store.h"
#include "net/node_id.h"

namespace dsf::core {

/// The outcome of computing a new outgoing neighborhood (Algo 3 / the
/// planning half of Algo 4): the desired list, who must be invited/added
/// and who must be evicted relative to the current list.
struct UpdatePlan {
  std::vector<net::NodeId> new_out;    ///< desired outgoing list, best first
  std::vector<net::NodeId> additions;  ///< in new_out but not current
  std::vector<net::NodeId> evictions;  ///< in current but not new_out
};

/// One plan_update candidate: a peer and its cumulative benefit.
struct RankedCandidate {
  double benefit;
  bool is_current;  ///< already in the outgoing list
  net::NodeId node;
};

/// The ranking half of plan_update: sorts the eligible candidates
/// (benefit, then current-first, then id), keeps the best `capacity` and
/// diffs them against `current_out`.
UpdatePlan rank_candidates(std::vector<RankedCandidate> ranked,
                           std::span<const net::NodeId> current_out,
                           std::size_t capacity);

/// Computes the most-beneficial neighborhood of size <= `capacity` from the
/// statistics (Algo 3; also the planning step of Algo 5's Reconfigure).
///
/// Candidates are the union of the statistics' peers and the current
/// neighbors, ranked by cumulative benefit.  Current neighbors win ties so
/// that reconfiguration never churns between equally-good peers; this also
/// means a node with sparse statistics keeps its current neighborhood
/// rather than shrinking it.
/// Neighbor lists arrive as spans so both the reference and the compact
/// overlay tables (and plain vectors in tests) can feed the planner.
/// `eligible(peer)` decides whether a peer may become a neighbor right now
/// (typically: is on-line and is not this node); it is a template
/// parameter so the per-candidate test inlines into the filter loop.
template <class Eligible>
UpdatePlan plan_update(const StatsStore& stats,
                       std::span<const net::NodeId> current_out,
                       std::size_t capacity, Eligible&& eligible) {
  const auto is_current = [current_out](net::NodeId n) {
    return std::find(current_out.begin(), current_out.end(), n) !=
           current_out.end();
  };
  // Candidate set: known peers plus current neighbors (the latter may have
  // no statistics yet, e.g. fresh random links).
  std::vector<RankedCandidate> ranked;
  ranked.reserve(stats.size() + current_out.size());
  for (const auto& [peer, b] : stats.entries()) {
    if (!eligible(peer)) continue;
    ranked.push_back({b, is_current(peer), peer});
  }
  for (net::NodeId n : current_out) {
    if (!stats.knows(n) && eligible(n)) ranked.push_back({0.0, true, n});
  }
  return rank_candidates(std::move(ranked), current_out, capacity);
}

/// How an invited node reacts to a neighboring invitation (§3.4's two
/// symmetric-update variants).
enum class InvitationPolicy : std::uint8_t {
  /// Variant (i): always accept, evicting the least beneficial incoming
  /// neighbor if the list is full.  This is what the Gnutella case study
  /// uses (§4.1: "the invited node always accepts an invitation").
  kAlwaysAccept,
  /// Variant (ii): accept only if the inviter's (estimated) benefit exceeds
  /// that of at least one current incoming neighbor.
  kBenefitGated,
  /// Variant (ii-b), §3.4 solution (b): the invitation carries summarized
  /// information (a content digest) from which the invited node estimates
  /// the inviter's potential benefit — useful when it has no statistics
  /// about the inviter yet.  Scenarios with digest support implement the
  /// estimate themselves; core's decide_invitation falls back to
  /// kBenefitGated semantics.
  kSummaryGated,
  /// Variant (ii-a), §3.4 solution (a): a *temporary relationship* — the
  /// invited node always accepts provisionally, exchanges search traffic
  /// to gather statistics, and after a time threshold either keeps the
  /// inviter (it now beats the worst other neighbor) or terminates the
  /// relationship.  The trial scheduling lives in the scenario; core's
  /// decide_invitation accepts like kAlwaysAccept.
  kTrialPeriod,
};

struct InvitationDecision {
  bool accept = false;
  /// Neighbor to evict to make room; kInvalidNode when a free slot exists.
  net::NodeId evict = net::kInvalidNode;
};

/// Decides an invitation from `inviter` given the invited node's incoming
/// list and statistics (Algo 4, "On Neighboring Invitation Arrival").
InvitationDecision decide_invitation(const StatsStore& stats,
                                     net::NodeId inviter,
                                     std::span<const net::NodeId> in_list,
                                     std::size_t capacity,
                                     InvitationPolicy policy);

/// Returns the least beneficial node of `list` according to `stats`
/// (kInvalidNode for an empty list).  Ties broken toward the higher id so
/// older/lower ids — about which more is typically known — survive.
net::NodeId least_beneficial(const StatsStore& stats,
                             std::span<const net::NodeId> list);

/// Reconfiguration trigger of the case study (§4.1/§4.3): a counter of
/// requests issued since the last reconfiguration; firing at `threshold`
/// (the paper's parameter T, swept in Fig 3b).  Invitations and evictions
/// reset the counter to damp cascading updates.
class ReconfigCounter {
 public:
  explicit ReconfigCounter(std::uint32_t threshold) : threshold_(threshold) {}

  std::uint32_t threshold() const noexcept { return threshold_; }

  /// Registers one issued request; returns true when the threshold is
  /// reached (the caller should reconfigure and the counter resets).
  bool on_request() noexcept {
    if (threshold_ == 0) return false;  // 0 disables periodic reconfiguration
    if (++count_ < threshold_) return false;
    count_ = 0;
    return true;
  }

  void reset() noexcept { count_ = 0; }
  std::uint32_t count() const noexcept { return count_; }

 private:
  std::uint32_t threshold_;
  std::uint32_t count_ = 0;
};

}  // namespace dsf::core
