// Randomized differential test: LibraryPool against a std::set per user.
// A seeded stream of appends and downloads drives both; after every phase
// each user's membership (over the whole catalog), size and construction-
// time base must match the reference exactly.  The pool's category
// directory is a pure filter in front of the binary search, so any
// verdict it changed would show up here.  Catalogs cover one category
// (every song shares bit 0), the paper's 50, and more categories than the
// directory has bits (high categories fold into bit 63).

#include "workload/library_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "des/rng.h"
#include "workload/catalog.h"
#include "workload/library.h"

namespace dsf::workload {
namespace {

Catalog make_catalog(std::uint32_t num_categories,
                     std::uint32_t songs_per_category) {
  CatalogParams p;
  p.num_categories = num_categories;
  p.num_songs = num_categories * songs_per_category;
  return Catalog(p);
}

class PoolDifferential {
 public:
  PoolDifferential(const Catalog& catalog, std::uint32_t num_users,
                   std::uint64_t seed)
      : catalog_(catalog), pool_(catalog), rng_(seed) {
    pool_.reserve(num_users, 0);
    for (std::uint32_t u = 0; u < num_users; ++u) {
      const std::vector<SongId> songs = draw_library(u);
      const Library lib(songs);
      pool_.append(lib);
      base_.push_back(lib.songs());
      ref_.emplace_back(songs.begin(), songs.end());
    }
  }

  /// `ops` downloads: a third of an owned song (a no-op), a third of a
  /// song from a category the user's base lacks, a third anywhere.
  void grow(std::size_t ops) {
    const auto users = static_cast<std::uint32_t>(ref_.size());
    for (std::size_t i = 0; i < ops; ++i) {
      const auto u = static_cast<std::uint32_t>(rng_.uniform_int(users));
      SongId s = random_song();
      switch (rng_.uniform_int(3)) {
        case 0:
          if (!ref_[u].empty()) {
            auto it = ref_[u].begin();
            std::advance(it, rng_.uniform_int(ref_[u].size()));
            s = *it;
          }
          break;
        case 1:
          for (int tries = 0; tries < 16 && base_has_category(u, s); ++tries)
            s = random_song();
          if (!base_has_category(u, s)) ++new_category_adds_;
          break;
        default:
          break;
      }
      pool_.add(u, s);
      ref_[u].insert(s);
    }
  }

  void expect_matches() const {
    ASSERT_EQ(pool_.num_users(), ref_.size());
    for (std::uint32_t u = 0; u < ref_.size(); ++u) {
      ASSERT_EQ(pool_.size(u), ref_[u].size()) << "user " << u;
      const auto base = pool_.base(u);
      ASSERT_EQ(std::vector<SongId>(base.begin(), base.end()), base_[u])
          << "user " << u << ": growth moved the base slice";
      for (SongId s = 0; s < catalog_.num_songs(); ++s)
        ASSERT_EQ(pool_.contains(u, s), ref_[u].count(s) != 0)
            << "user " << u << ", song " << s;
    }
  }

  std::size_t new_category_adds() const { return new_category_adds_; }

 private:
  SongId random_song() {
    return static_cast<SongId>(rng_.uniform_int(catalog_.num_songs()));
  }

  bool base_has_category(std::uint32_t u, SongId s) const {
    for (SongId b : base_[u])
      if (catalog_.category_of(b) == catalog_.category_of(s)) return true;
    return false;
  }

  /// Every fifth user starts empty; the rest hold up to 40 songs from up
  /// to six categories, as §4.2 libraries do (duplicates included, which
  /// Library's constructor removes).
  std::vector<SongId> draw_library(std::uint32_t u) {
    std::vector<SongId> songs;
    if (u % 5 == 0) return songs;
    const std::uint64_t categories = 1 + rng_.uniform_int(6);
    for (std::uint64_t c = 0; c < categories; ++c) {
      const auto cat = static_cast<CategoryId>(
          rng_.uniform_int(catalog_.num_categories()));
      const std::uint64_t count = 1 + rng_.uniform_int(8);
      for (std::uint64_t i = 0; i < count; ++i)
        songs.push_back(catalog_.song_at(
            cat, static_cast<std::uint32_t>(
                     rng_.uniform_int(catalog_.songs_per_category()))));
    }
    return songs;
  }

  const Catalog& catalog_;
  LibraryPool pool_;
  des::Rng rng_;
  std::vector<std::vector<SongId>> base_;
  std::vector<std::set<SongId>> ref_;
  std::size_t new_category_adds_ = 0;
};

void run_differential(std::uint32_t num_categories,
                      std::uint32_t songs_per_category, std::uint64_t seed) {
  const Catalog catalog = make_catalog(num_categories, songs_per_category);
  PoolDifferential d(catalog, 150, seed);
  d.expect_matches();
  for (int phase = 0; phase < 4; ++phase) {
    d.grow(200);
    d.expect_matches();
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (num_categories > 1) {
    EXPECT_GT(d.new_category_adds(), 0u);
  }
}

TEST(LibraryPoolDifferential, OneCategory) { run_differential(1, 400, 11); }

TEST(LibraryPoolDifferential, PaperCategories) {
  run_differential(50, 12, 12);
}

TEST(LibraryPoolDifferential, MoreCategoriesThanMaskBits) {
  run_differential(130, 4, 13);
}

TEST(LibraryPool, EmptyLibrariesHoldNothingUntilGrown) {
  const Catalog catalog = make_catalog(70, 10);
  LibraryPool pool(catalog);
  pool.append(Library{});
  pool.append(Library{});
  EXPECT_EQ(pool.num_users(), 2u);
  for (SongId s = 0; s < catalog.num_songs(); ++s)
    EXPECT_FALSE(pool.contains(0, s));
  pool.add(1, 695);  // category 69, folded into the directory's bit 63
  EXPECT_TRUE(pool.contains(1, 695));
  EXPECT_FALSE(pool.contains(1, 694));
  EXPECT_FALSE(pool.contains(1, 635));  // category 63, same bit, not held
  EXPECT_EQ(pool.size(0), 0u);
  EXPECT_EQ(pool.size(1), 1u);
  EXPECT_TRUE(pool.base(1).empty());
}

TEST(LibraryPool, AddOfOwnedSongIsNoop) {
  const Catalog catalog = make_catalog(50, 10);
  LibraryPool pool(catalog);
  pool.append(Library({3, 17, 42}));
  pool.add(0, 17);
  EXPECT_EQ(pool.size(0), 3u);
  EXPECT_TRUE(pool.spill().empty());
  pool.add(0, 480);
  pool.add(0, 480);
  EXPECT_EQ(pool.size(0), 4u);
  ASSERT_EQ(pool.spill().size(), 1u);
  EXPECT_EQ(pool.spill().at(0), (std::vector<SongId>{480}));
}

TEST(LibraryPool, MemoryBytesCountsTheCategoryDirectory) {
  // Empty libraries own no songs: what is left is the slice table and the
  // directory, one 64-bit bound plus one 64-bit mask per user.
  const Catalog catalog = make_catalog(50, 10);
  LibraryPool pool(catalog);
  constexpr std::uint32_t kUsers = 1000;
  pool.reserve(kUsers, 0);
  for (std::uint32_t u = 0; u < kUsers; ++u) pool.append(Library{});
  const std::size_t before = pool.memory_bytes();
  EXPECT_GE(before, (kUsers + 1) * sizeof(std::uint64_t) +
                        kUsers * sizeof(std::uint64_t));
  pool.add(7, 123);
  EXPECT_GT(pool.memory_bytes(), before);
}

}  // namespace
}  // namespace dsf::workload
