#pragma once

// Pooled library storage for million-peer populations.
//
// workload::Library owns a std::vector per user — a heap block, a 24-byte
// header and malloc slack each, which at a million peers is a million
// allocations before the overlay exists.  LibraryPool keeps every user's
// songs in ONE sorted-slices arena: user u's library is the half-open
// range [start_[u], start_[u+1]) of songs_, laid down once at population
// build time in user-id order.  Lookup stays the same binary search over
// the same sorted data, so `contains` answers exactly what Library's did.
//
// The library_growth ablation (users download what they find) is the one
// writer after construction.  Grown songs go to a per-user spill list,
// allocated lazily only for users that actually download — the arena
// slices never move.  `contains` checks base then spill; both are sorted
// and mutually deduplicated, so base ∪ spill is byte-for-byte the set the
// old insert-in-place Library would have held.
//
// In front of both sits a category directory: one 64-bit mask per user
// with bit min(category_of(s), 63) set for every song s in base ∪ spill.
// §4.2 libraries span at most six categories, so most flood probes miss
// on the mask and never touch the arena.  The mask is a superset of the
// user's categories (high categories share bit 63), so a clear bit proves
// absence and the filter never changes a verdict.

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "workload/catalog.h"
#include "workload/library.h"

namespace dsf::workload {

class LibraryPool {
 public:
  /// The directory's category width (songs per category) is the
  /// catalog's: songs are laid out contiguously by category.
  explicit LibraryPool(const Catalog& catalog)
      : per_category_(catalog.songs_per_category()) {}

  /// Pre-sizes the arena (`expected_songs` may be an estimate).
  void reserve(std::size_t num_users, std::size_t expected_songs);

  /// Appends the next user's library; users must be appended in id order.
  /// The Library's songs are already sorted and duplicate-free.
  void append(const Library& lib);

  std::size_t num_users() const noexcept { return categories_.size(); }

  /// The user's construction-time songs, sorted ascending (what digest
  /// builders iterate; growth spills are intentionally not included, same
  /// as the digests-stay-as-built rule in the gnutella scenario).
  std::span<const SongId> base(std::uint32_t u) const {
    return {songs_.data() + start_[u], start_[u + 1] - start_[u]};
  }

  bool contains(std::uint32_t u, SongId s) const noexcept {
    return (categories_[u] & category_bit(s)) != 0 && search(u, s);
  }

  /// Library size including grown songs.
  std::size_t size(std::uint32_t u) const;

  /// Adds a downloaded song to the user's library (no-op if owned).
  void add(std::uint32_t u, SongId s);

  /// Bytes owned by the pool (arena + slice table + category directory +
  /// spill lists) — what the scale tests pin per-peer budgets against.
  std::size_t memory_bytes() const noexcept;

  /// Growth-spill lists, for checkpointing.  The map is unordered: the
  /// snapshot writer sorts by user id so identical state always produces
  /// identical bytes.  Restore replays each entry through add(), which
  /// re-establishes the sorted/disjoint invariant and the directory.
  const std::unordered_map<std::uint32_t, std::vector<SongId>>& spill()
      const noexcept {
    return spill_;
  }

 private:
  std::uint64_t category_bit(SongId s) const noexcept {
    return std::uint64_t{1} << std::min<SongId>(s / per_category_, 63);
  }

  /// Exact membership, once the user's category bit for `s` is set.
  bool search(std::uint32_t u, SongId s) const noexcept;

  SongId per_category_;              ///< the catalog's category width
  std::vector<SongId> songs_;        ///< all users' songs, concatenated
  std::vector<std::uint64_t> start_{0};  ///< slice bounds; num_users()+1
  /// Category directory: per user, one bit per category present in
  /// base ∪ spill, and whether the user has a spill list at all.
  std::vector<std::uint64_t> categories_;
  std::vector<bool> spilled_;
  /// Growth spills, keyed by user; absent for the (typical) non-growing
  /// population.  Each list is kept sorted and disjoint from the base.
  std::unordered_map<std::uint32_t, std::vector<SongId>> spill_;
};

}  // namespace dsf::workload
