// Building a new system on the framework primitives directly: a tiny
// document-sharing overlay with a custom benefit function, assembled from
// NeighborTable + flood_search + StatsStore + plan_update, without any of
// the packaged scenario classes.  This is the path a downstream user takes
// to instantiate §3 for their own repository type.
//
//   ./build/examples/custom_policy

#include <cstdio>
#include <set>
#include <vector>

#include "core/benefit.h"
#include "core/flood_search.h"
#include "core/relations.h"
#include "core/stats_store.h"
#include "core/update.h"
#include "core/visit_stamp.h"
#include "des/rng.h"

namespace {

/// Custom benefit: results from nodes that answered quickly AND serve many
/// items count more (a blend the packaged functions don't provide).
class FreshnessBenefit final : public dsf::core::BenefitFunction {
 public:
  double benefit(const dsf::core::ResultInfo& r) const override {
    return r.items / (0.05 + r.latency_s);
  }
  std::string_view name() const override { return "freshness"; }
};

}  // namespace

int main() {
  using namespace dsf;
  constexpr std::size_t kNodes = 40;
  constexpr std::size_t kDegree = 3;
  constexpr std::uint32_t kDocs = 400;

  des::Rng rng(99);

  // Each node holds a handful of documents, clustered: node n prefers
  // documents around n*10 — so good neighborhoods exist to be discovered.
  std::vector<std::set<std::uint32_t>> docs(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n)
    for (int i = 0; i < 12; ++i)
      docs[n].insert(static_cast<std::uint32_t>(
          (n * 10 + rng.uniform_int(30)) % kDocs));

  // Asymmetric relations: every node picks its own outgoing list.
  core::NeighborTable overlay(kNodes, core::RelationKind::kPureAsymmetric,
                              kDegree, 0);
  for (net::NodeId n = 0; n < kNodes; ++n)
    while (!overlay.lists(n).out_full()) {
      const auto v = static_cast<net::NodeId>(rng.uniform_int(kNodes));
      if (v != n) overlay.link(n, v);
    }

  core::VisitStamp stamps(kNodes);
  core::SearchScratch scratch;
  std::vector<core::StatsStore> stats(kNodes);
  FreshnessBenefit benefit;

  core::SearchParams params;
  params.max_hops = 2;
  params.forward_when_hit = true;  // extensive search: collect everything

  std::uint64_t hits_before = 0, hits_after = 0;
  for (int round = 0; round < 3; ++round) {
    std::uint64_t round_hits = 0;
    for (int q = 0; q < 2000; ++q) {
      const auto initiator = static_cast<net::NodeId>(rng.uniform_int(kNodes));
      const auto doc = static_cast<std::uint32_t>(
          (initiator * 10 + rng.uniform_int(30)) % kDocs);
      const auto out = core::flood_search(
          initiator, params,
          [&](net::NodeId n) -> const std::vector<net::NodeId>& {
            return overlay.out_neighbors(n);
          },
          [&](net::NodeId n) { return docs[n].count(doc) != 0; },
          [](net::NodeId, net::NodeId) { return 0.05; },
          core::ReliableTransmit{}, stamps, scratch);
      round_hits += out.satisfied();
      for (const auto& hit : out.hits) {
        core::ResultInfo info;
        info.responder = hit.node;
        info.items = 1.0;
        info.latency_s = hit.reply_at_s;
        stats[initiator].add(hit.node, benefit.benefit(info));
      }
    }
    if (round == 0) hits_before = round_hits;
    hits_after = round_hits;

    // Algo 3 between rounds: adopt the top-k beneficial peers.
    for (net::NodeId n = 0; n < kNodes; ++n) {
      const auto plan =
          core::plan_update(stats[n], overlay.out_neighbors(n), kDegree,
                            [n](net::NodeId v) { return v != n; });
      for (net::NodeId x : plan.evictions) overlay.unlink(n, x);
      for (net::NodeId v : plan.additions) overlay.link(n, v);
    }
  }

  std::printf("custom benefit function: \"%s\"\n",
              std::string(benefit.name()).c_str());
  std::printf("hits in round 1 (random overlay):   %llu / 2000\n",
              static_cast<unsigned long long>(hits_before));
  std::printf("hits in round 3 (adapted overlay):  %llu / 2000\n",
              static_cast<unsigned long long>(hits_after));
  std::printf("overlay consistent: %s\n",
              overlay.consistent() ? "yes" : "NO");
  return hits_after >= hits_before ? 0 : 1;
}
