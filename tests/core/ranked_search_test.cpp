#include "core/ranked_search.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/flood_search.h"

namespace dsf::core {
namespace {

/// Hand-built overlay with per-node scores and unit delays: every ranked
/// property (ordering, truncation, floor pruning, accounting parity with
/// the flood) can be asserted exactly.
class RankedFixture {
 public:
  explicit RankedFixture(std::size_t n) : adj_(n), stamps_(n) {}

  void edge(net::NodeId a, net::NodeId b) {  // undirected helper
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  }
  void score(net::NodeId n, double s) { scores_[n] = s; }

  SearchOutcome search(net::NodeId from, SearchParams p, std::uint32_t k) {
    return ranked_topk_search(
        from, p, k,
        [this](net::NodeId n) -> const std::vector<net::NodeId>& {
          return adj_[n];
        },
        [this](net::NodeId n) {
          const auto it = scores_.find(n);
          return it == scores_.end() ? 0.0 : it->second;
        },
        [](net::NodeId, net::NodeId) { return 1.0; },  // unit delays
        reliable_, stamps_, scratch_);
  }

  SearchOutcome flood(net::NodeId from, SearchParams p) {
    return flood_search(
        from, p,
        [this](net::NodeId n) -> const std::vector<net::NodeId>& {
          return adj_[n];
        },
        [this](net::NodeId n) { return scores_.count(n) != 0; },
        [](net::NodeId, net::NodeId) { return 1.0; },
        ReliableTransmit{}, stamps_, scratch_);
  }

 private:
  std::vector<std::vector<net::NodeId>> adj_;
  std::map<net::NodeId, double> scores_;
  ReliableTransmit reliable_;
  VisitStamp stamps_;
  SearchScratch scratch_;
};

SearchParams params(int hops) {
  SearchParams p;
  p.max_hops = hops;
  p.forward_when_hit = false;
  p.timeout_s = 100.0;
  return p;
}

TEST(RankedSearch, ReturnsBestKSortedByScore) {
  // Star: 0 at the hub, four scored leaves.
  RankedFixture f(5);
  for (net::NodeId n = 1; n < 5; ++n) f.edge(0, n);
  f.score(1, 0.2);
  f.score(2, 0.9);
  f.score(3, 0.5);
  f.score(4, 0.7);
  const auto out = f.search(0, params(1), 2);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_EQ(out.hits[0].node, 2u);
  EXPECT_DOUBLE_EQ(out.hits[0].score, 0.9);
  EXPECT_EQ(out.hits[1].node, 4u);
  EXPECT_DOUBLE_EQ(out.hits[1].score, 0.7);
  EXPECT_EQ(out.k_target, 2u);
  EXPECT_TRUE(out.k_satisfied());
}

TEST(RankedSearch, ZeroKReturnsNothingAndSendsNothing) {
  RankedFixture f(3);
  f.edge(0, 1);
  f.score(1, 1.0);
  const auto out = f.search(0, params(1), 0);
  EXPECT_TRUE(out.hits.empty());
  EXPECT_EQ(out.query_messages, 0u);
}

TEST(RankedSearch, ContentlessLastHopForwardsArePruned) {
  // Star with unscored leaves: the digest bound (0) never clears the
  // floor (0 until k fills, and nothing fills it), so every last-hop
  // forward is withheld.  The flood would send all four.
  RankedFixture f(5);
  for (net::NodeId n = 1; n < 5; ++n) f.edge(0, n);
  const auto out = f.search(0, params(1), 1);
  EXPECT_TRUE(out.hits.empty());
  EXPECT_EQ(out.query_messages, 0u);
  EXPECT_EQ(out.pruned_subtrees, 4u);
  const auto fl = f.flood(0, params(1));
  EXPECT_EQ(fl.query_messages, 4u);
}

TEST(RankedSearch, HitVerdictMatchesFloodOnEveryTopology) {
  // Two-hop tree with mixed holders: pruning only withholds last-hop
  // forwards whose digest bound cannot beat the floor, so the
  // has-a-result verdict must match the flood exactly.
  RankedFixture f(7);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(1, 3);
  f.edge(1, 4);
  f.edge(2, 5);
  f.edge(2, 6);
  f.score(4, 0.3);
  f.score(6, 0.8);
  const auto ranked = f.search(0, params(2), 1);
  const auto flood = f.flood(0, params(2));
  EXPECT_EQ(ranked.hits.empty(), flood.hits.empty());
  ASSERT_EQ(ranked.hits.size(), 1u);
  EXPECT_EQ(ranked.hits[0].node, 6u);
  // Savings are real: the ranked walk sent strictly fewer queries.
  EXPECT_LT(ranked.query_messages, flood.query_messages);
  EXPECT_GT(ranked.pruned_subtrees, 0u);
}

TEST(RankedSearch, MovingFloorPrunesWeakSubtreesOnlyAfterKFills) {
  // Hub 0 with a near strong holder (score 0.9 at hop 1) and a far weak
  // leaf behind 2 (score 0.1 at hop 2).  With k=1 the strong reply
  // arrives (reply_at 2.0) before the hop-2 forward is expanded
  // (arrival 1.0 -> forward at 1.0... the forward happens at arrival
  // time 1.0 < 2.0), so time-ordering decides: the weak leaf's bound
  // (0.1) is still above the unfilled floor (0) when expanded, and the
  // weak hit is collected, then truncated by the final top-k sort.
  RankedFixture f(4);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(2, 3);
  f.score(1, 0.9);
  f.score(3, 0.1);
  const auto out = f.search(0, params(2), 1);
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].node, 1u);
  EXPECT_DOUBLE_EQ(out.hits[0].score, 0.9);
}

TEST(RankedSearch, FloorPrunesOnceRepliesArrive) {
  // Long chain to the weak subtree so its last-hop forward expands
  // *after* the strong reply reaches the initiator: 0-1 (score 0.9,
  // reply at 2.0); 0-2-3-4 where 4 scores 0.2 and the forward 3->4
  // happens at arrival(3) = 3.0 > 2.0.  The floor is then 0.9 and the
  // 0.2-bound forward is withheld.
  RankedFixture f(5);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(2, 3);
  f.edge(3, 4);
  f.score(1, 0.9);
  f.score(4, 0.2);
  const auto out = f.search(0, params(3), 1);
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].node, 1u);
  EXPECT_EQ(out.pruned_subtrees, 1u);
}

TEST(RankedSearch, AccountingMatchesFloodWhenNothingPrunes) {
  // Every node scored: no last-hop bound can fall at or below the floor
  // before k fills... with k large, the floor never fills, every bound
  // (> 0) clears 0, so message accounting must equal the flood's.
  RankedFixture f(6);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(1, 3);
  f.edge(2, 4);
  f.edge(4, 5);
  for (net::NodeId n = 1; n < 6; ++n) f.score(n, 0.1 * (n + 1));
  SearchParams p = params(3);
  p.forward_when_hit = true;  // keep propagation identical to the flood
  const auto ranked = f.search(0, p, 100);
  const auto flood = f.flood(0, p);
  EXPECT_EQ(ranked.query_messages, flood.query_messages);
  EXPECT_EQ(ranked.reply_messages, flood.reply_messages);
  EXPECT_EQ(ranked.nodes_reached, flood.nodes_reached);
  EXPECT_EQ(ranked.pruned_subtrees, 0u);
  EXPECT_EQ(ranked.hits.size(), flood.hits.size());
}

TEST(RankedSearch, TiesBreakTowardEarlierRepliesThenLowerIds) {
  RankedFixture f(4);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(0, 3);
  f.score(1, 0.5);
  f.score(2, 0.5);
  f.score(3, 0.5);
  const auto out = f.search(0, params(1), 2);
  ASSERT_EQ(out.hits.size(), 2u);
  // Equal scores and equal reply times: node id decides.
  EXPECT_EQ(out.hits[0].node, 1u);
  EXPECT_EQ(out.hits[1].node, 2u);
}

}  // namespace
}  // namespace dsf::core
