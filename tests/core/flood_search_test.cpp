#include "core/flood_search.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace dsf::core {
namespace {

/// Tiny fixture: a hand-built directed adjacency with unit delays and a
/// content set, so every flood property can be asserted exactly.
class FloodFixture {
 public:
  explicit FloodFixture(std::size_t n) : adj_(n), stamps_(n) {}

  void edge(net::NodeId a, net::NodeId b) {  // undirected helper
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  }
  void content(net::NodeId n) { holders_.insert(n); }

  SearchOutcome search(net::NodeId from, SearchParams p) {
    return flood_search(
        from, p,
        [this](net::NodeId n) -> const std::vector<net::NodeId>& {
          return adj_[n];
        },
        [this](net::NodeId n) { return holders_.count(n) != 0; },
        [](net::NodeId, net::NodeId) { return 1.0; },  // unit delays
        ReliableTransmit{}, stamps_, scratch_);
  }

 private:
  std::vector<std::vector<net::NodeId>> adj_;
  std::set<net::NodeId> holders_;
  VisitStamp stamps_;
  SearchScratch scratch_;
};

TEST(VisitStamp, MarksOncePerSearch) {
  VisitStamp v(4);
  v.begin_search();
  EXPECT_TRUE(v.mark(2));
  EXPECT_FALSE(v.mark(2));
  EXPECT_TRUE(v.visited(2));
  EXPECT_FALSE(v.visited(1));
  v.begin_search();
  EXPECT_FALSE(v.visited(2));
  EXPECT_TRUE(v.mark(2));
}

TEST(FloodSearch, FindsContentAtNeighbor) {
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(1, 2);
  f.content(1);
  SearchParams p;
  p.max_hops = 2;
  const auto out = f.search(0, p);
  ASSERT_TRUE(out.satisfied());
  EXPECT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].node, 1u);
  EXPECT_EQ(out.hits[0].hop, 1);
}

TEST(FloodSearch, HopLimitStopsPropagation) {
  // Line: 0 - 1 - 2 - 3, content at 3.
  FloodFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  p.max_hops = 2;
  EXPECT_FALSE(f.search(0, p).satisfied());
  p.max_hops = 3;
  EXPECT_TRUE(f.search(0, p).satisfied());
}

TEST(FloodSearch, HitNodeDoesNotForwardByDefault) {
  // Line: 0 - 1 - 2; both 1 and 2 hold content, but 1 absorbs the query.
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(1, 2);
  f.content(1);
  f.content(2);
  SearchParams p;
  p.max_hops = 5;
  const auto out = f.search(0, p);
  EXPECT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].node, 1u);
}

TEST(FloodSearch, ForwardWhenHitCollectsAll) {
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(1, 2);
  f.content(1);
  f.content(2);
  SearchParams p;
  p.max_hops = 5;
  p.forward_when_hit = true;
  const auto out = f.search(0, p);
  EXPECT_EQ(out.hits.size(), 2u);
}

TEST(FloodSearch, NeverEchoesToSender) {
  // 0 - 1 only: 1 must not send the query back to 0.
  FloodFixture f(2);
  f.edge(0, 1);
  SearchParams p;
  p.max_hops = 5;
  const auto out = f.search(0, p);
  EXPECT_EQ(out.query_messages, 1u);
  EXPECT_EQ(out.nodes_reached, 1u);
}

TEST(FloodSearch, DuplicateDeliveriesCountedButDiscarded) {
  // Triangle 0-1-2: 1 and 2 both forward to each other at hop 2.
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(0, 2);
  f.edge(1, 2);
  SearchParams p;
  p.max_hops = 2;
  const auto out = f.search(0, p);
  // 0→1, 0→2, 1→2, 2→1 = 4 transmissions, 2 distinct nodes.
  EXPECT_EQ(out.query_messages, 4u);
  EXPECT_EQ(out.nodes_reached, 2u);
}

TEST(FloodSearch, MessageCountOnFullTree) {
  // Star-of-stars: root 0 with 4 children, each child with 3 extra leaves
  // (degree 4 like the paper).  hops=2 floods everything exactly once.
  FloodFixture f(17);
  for (net::NodeId c = 1; c <= 4; ++c) {
    f.edge(0, c);
    for (net::NodeId l = 0; l < 3; ++l)
      f.edge(c, static_cast<net::NodeId>(4 + (c - 1) * 3 + l + 1));
  }
  SearchParams p;
  p.max_hops = 2;
  const auto out = f.search(0, p);
  EXPECT_EQ(out.query_messages, 4u + 4u * 3u);  // 16 = 4 + 4·(4−1)
  EXPECT_EQ(out.nodes_reached, 16u);
}

TEST(FloodSearch, FirstResultDelayIsMinOverHits) {
  // 0 connected to 1 and 2; both hold content; unit delays → both reply at
  // 2.0 (1 hop out + 1 hop back).
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(0, 2);
  f.content(1);
  f.content(2);
  SearchParams p;
  p.max_hops = 1;
  const auto out = f.search(0, p);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_DOUBLE_EQ(out.first_result_delay_s(), 2.0);
  EXPECT_EQ(out.reply_messages, 2u);
}

TEST(FloodSearch, DeeperHitsHaveLargerDelay) {
  FloodFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  p.max_hops = 3;
  const auto out = f.search(0, p);
  ASSERT_TRUE(out.satisfied());
  // 3 hops out (3.0) + direct reply (1.0).
  EXPECT_DOUBLE_EQ(out.first_result_delay_s(), 4.0);
  EXPECT_EQ(out.hits[0].hop, 3);
}

TEST(FloodSearch, TimeoutDropsLateReplies) {
  FloodFixture f(4);
  f.edge(0, 1);
  f.edge(1, 2);
  f.edge(2, 3);
  f.content(3);
  SearchParams p;
  p.max_hops = 3;
  p.timeout_s = 3.5;  // reply would land at 4.0
  EXPECT_FALSE(f.search(0, p).satisfied());
}

TEST(FloodSearch, InitiatorHoldingContentStillSearches) {
  // The framework's local check happens before flooding; the flood itself
  // must not treat the initiator as a responder.
  FloodFixture f(2);
  f.edge(0, 1);
  f.content(0);
  SearchParams p;
  p.max_hops = 1;
  const auto out = f.search(0, p);
  EXPECT_FALSE(out.satisfied());
}

TEST(FloodSearch, DisconnectedInitiatorProducesNothing) {
  FloodFixture f(3);
  f.edge(1, 2);
  f.content(2);
  SearchParams p;
  p.max_hops = 5;
  const auto out = f.search(0, p);
  EXPECT_FALSE(out.satisfied());
  EXPECT_EQ(out.query_messages, 0u);
}

TEST(FloodSearch, ZeroHopsSendsNothing) {
  FloodFixture f(2);
  f.edge(0, 1);
  f.content(1);
  SearchParams p;
  p.max_hops = 0;
  const auto out = f.search(0, p);
  // Initiator is at hop 0 and may not forward at all...
  EXPECT_EQ(out.hits.size(), 0u);
}

TEST(FloodSearch, UnsatisfiedSearchAnswersZeroDelaySentinel) {
  // Pinned contract: an empty outcome answers 0.0 — finite, never NaN —
  // the same documented sentinel as an empty histogram's quantile, so
  // aggregation paths (span tables, bench reducers) need no NaN guard.
  // Callers that must distinguish "instant" from "missed" check
  // satisfied() first.
  const SearchOutcome empty;
  EXPECT_FALSE(empty.satisfied());
  EXPECT_EQ(empty.first_hit(), nullptr);
  EXPECT_DOUBLE_EQ(empty.first_result_delay_s(), 0.0);
  EXPECT_FALSE(std::isnan(empty.first_result_delay_s()));
  EXPECT_DOUBLE_EQ(empty.best_score(), 0.0);

  // A missed search through the real machinery answers the same sentinel.
  FloodFixture f(3);
  f.edge(0, 1);
  f.edge(1, 2);
  SearchParams p;
  p.max_hops = 2;
  const auto out = f.search(0, p);
  EXPECT_FALSE(out.satisfied());
  EXPECT_DOUBLE_EQ(out.first_result_delay_s(), 0.0);
}

}  // namespace
}  // namespace dsf::core
