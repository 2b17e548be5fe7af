#include "core/update.h"

#include <algorithm>
#include <span>

namespace dsf::core {

namespace {

bool contains(std::span<const net::NodeId> v, net::NodeId n) noexcept {
  return std::find(v.begin(), v.end(), n) != v.end();
}

}  // namespace

UpdatePlan rank_candidates(std::vector<RankedCandidate> ranked,
                           std::span<const net::NodeId> current_out,
                           std::size_t capacity) {
  std::sort(ranked.begin(), ranked.end(), [](const RankedCandidate& a,
                                             const RankedCandidate& b) {
    if (a.benefit != b.benefit) return a.benefit > b.benefit;
    if (a.is_current != b.is_current) return a.is_current;  // damp churn
    return a.node < b.node;
  });
  if (ranked.size() > capacity) ranked.resize(capacity);

  UpdatePlan plan;
  plan.new_out.reserve(ranked.size());
  for (const RankedCandidate& r : ranked) plan.new_out.push_back(r.node);
  for (net::NodeId n : plan.new_out)
    if (!contains(current_out, n)) plan.additions.push_back(n);
  for (net::NodeId n : current_out)
    if (!contains(plan.new_out, n)) plan.evictions.push_back(n);
  return plan;
}

net::NodeId least_beneficial(const StatsStore& stats,
                             std::span<const net::NodeId> list) {
  net::NodeId worst = net::kInvalidNode;
  double worst_benefit = 0.0;
  for (net::NodeId n : list) {
    const double b = stats.benefit_of(n);
    if (worst == net::kInvalidNode || b < worst_benefit ||
        (b == worst_benefit && n > worst)) {
      worst = n;
      worst_benefit = b;
    }
  }
  return worst;
}

InvitationDecision decide_invitation(const StatsStore& stats,
                                     net::NodeId inviter,
                                     std::span<const net::NodeId> in_list,
                                     std::size_t capacity,
                                     InvitationPolicy policy) {
  InvitationDecision d;
  if (contains(in_list, inviter)) return d;  // already a neighbor: reject
  if (in_list.size() < capacity) {
    d.accept = true;
    return d;
  }
  const net::NodeId worst = least_beneficial(stats, in_list);
  switch (policy) {
    case InvitationPolicy::kAlwaysAccept:
    case InvitationPolicy::kTrialPeriod:  // provisional accept; the trial
                                          // evaluation is the scenario's job
      d.accept = true;
      d.evict = worst;
      break;
    case InvitationPolicy::kBenefitGated:
    case InvitationPolicy::kSummaryGated:  // no digest here: stats fallback
      if (stats.benefit_of(inviter) > stats.benefit_of(worst)) {
        d.accept = true;
        d.evict = worst;
      }
      break;
  }
  return d;
}

}  // namespace dsf::core
