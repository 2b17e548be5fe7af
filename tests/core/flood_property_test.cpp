#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/flood_search.h"
#include "des/rng.h"

namespace dsf::core {
namespace {

/// Property sweep over random overlays: (degree, hop limit, holder density)
/// parameterized; invariants of the flood algorithm must hold on every
/// instance.
class FloodProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {
 protected:
  void SetUp() override {
    degree_ = std::get<0>(GetParam());
    hops_ = std::get<1>(GetParam());
    density_ = std::get<2>(GetParam());

    des::Rng rng(1234 + degree_ * 100 + hops_ * 10 +
                 static_cast<int>(density_ * 100));
    adj_.assign(kNodes, {});
    for (net::NodeId u = 0; u < kNodes; ++u) {
      int attempts = 40;
      while (adj_[u].size() < static_cast<std::size_t>(degree_) &&
             attempts-- > 0) {
        const auto v = static_cast<net::NodeId>(rng.uniform_int(kNodes));
        if (v == u) continue;
        if (std::find(adj_[u].begin(), adj_[u].end(), v) != adj_[u].end())
          continue;
        if (adj_[v].size() >= static_cast<std::size_t>(degree_) + 2) continue;
        adj_[u].push_back(v);
        adj_[v].push_back(u);
      }
    }
    holder_.assign(kNodes, false);
    for (std::size_t i = 0; i < kNodes; ++i) holder_[i] = rng.bernoulli(density_);
  }

  SearchOutcome run(net::NodeId from, std::uint64_t delay_seed) {
    des::Rng delay_rng(delay_seed);
    VisitStamp stamps(kNodes);
    SearchScratch scratch;
    SearchParams p;
    p.max_hops = hops_;
    return flood_search(
        from, p,
        [this](net::NodeId n) -> const std::vector<net::NodeId>& {
          return adj_[n];
        },
        [this](net::NodeId n) { return static_cast<bool>(holder_[n]); },
        [&delay_rng](net::NodeId, net::NodeId) {
          return 0.01 + 0.1 * delay_rng.uniform();
        },
        ReliableTransmit{}, stamps, scratch);
  }

  static constexpr std::size_t kNodes = 200;
  int degree_ = 0;
  int hops_ = 0;
  double density_ = 0.0;
  std::vector<std::vector<net::NodeId>> adj_;
  std::vector<bool> holder_;
};

TEST_P(FloodProperty, Deterministic) {
  for (net::NodeId from = 0; from < 10; ++from) {
    const auto a = run(from, 7);
    const auto b = run(from, 7);
    EXPECT_EQ(a.query_messages, b.query_messages);
    EXPECT_EQ(a.nodes_reached, b.nodes_reached);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t i = 0; i < a.hits.size(); ++i) {
      EXPECT_EQ(a.hits[i].node, b.hits[i].node);
      EXPECT_DOUBLE_EQ(a.hits[i].reply_at_s, b.hits[i].reply_at_s);
    }
  }
}

TEST_P(FloodProperty, ReachNeverExceedsMessages) {
  for (net::NodeId from = 0; from < 20; ++from) {
    const auto out = run(from, 11);
    EXPECT_LE(out.nodes_reached, out.query_messages);
    EXPECT_LE(out.hits.size(), out.nodes_reached);
  }
}

TEST_P(FloodProperty, HitsAreDistinctHoldersWithinHopLimit) {
  for (net::NodeId from = 0; from < 20; ++from) {
    const auto out = run(from, 13);
    std::set<net::NodeId> seen;
    for (const auto& h : out.hits) {
      EXPECT_TRUE(holder_[h.node]);
      EXPECT_NE(h.node, from);  // the initiator never replies to itself
      EXPECT_GE(h.hop, 1);
      EXPECT_LE(h.hop, hops_);
      EXPECT_GT(h.reply_at_s, h.arrival_s);
      EXPECT_TRUE(seen.insert(h.node).second) << "duplicate hit";
    }
    EXPECT_EQ(out.reply_messages, out.hits.size());
  }
}

TEST_P(FloodProperty, MessageCountBoundedByTheoreticalFlood) {
  // Upper bound: every reached node (plus the initiator) sends to at most
  // (its degree) neighbors.
  for (net::NodeId from = 0; from < 20; ++from) {
    const auto out = run(from, 17);
    std::uint64_t bound = 0;
    for (const auto& nbrs : adj_) bound += nbrs.size();
    EXPECT_LE(out.query_messages, bound);
  }
}

TEST_P(FloodProperty, WiderHopLimitNeverReachesFewer) {
  if (hops_ < 2) return;
  VisitStamp stamps(kNodes);
  SearchScratch scratch;
  for (net::NodeId from = 0; from < 10; ++from) {
    SearchParams narrow;
    narrow.max_hops = hops_ - 1;
    SearchParams wide;
    wide.max_hops = hops_;
    const auto neighbors = [this](net::NodeId n) -> const std::vector<net::NodeId>& {
      return adj_[n];
    };
    const auto never_hold = [](net::NodeId) { return false; };
    const auto unit = [](net::NodeId, net::NodeId) { return 1.0; };
    const auto a =
        flood_search(from, narrow, neighbors, never_hold, unit,
                     ReliableTransmit{}, stamps, scratch);
    const auto b =
        flood_search(from, wide, neighbors, never_hold, unit,
                     ReliableTransmit{}, stamps, scratch);
    EXPECT_LE(a.nodes_reached, b.nodes_reached);
    EXPECT_LE(a.query_messages, b.query_messages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreeHopsDensity, FloodProperty,
    ::testing::Combine(::testing::Values(2, 4, 8),      // degree
                       ::testing::Values(1, 2, 4),      // hop limit
                       ::testing::Values(0.01, 0.2)),   // holder density
    [](const auto& info) {
      return "deg" + std::to_string(std::get<0>(info.param)) + "_hops" +
             std::to_string(std::get<1>(info.param)) + "_dens" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

}  // namespace
}  // namespace dsf::core
