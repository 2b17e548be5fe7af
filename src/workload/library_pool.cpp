#include "workload/library_pool.h"

namespace dsf::workload {

void LibraryPool::reserve(std::size_t num_users, std::size_t expected_songs) {
  start_.reserve(num_users + 1);
  categories_.reserve(num_users);
  spilled_.reserve(num_users);
  songs_.reserve(expected_songs);
}

void LibraryPool::append(const Library& lib) {
  std::uint64_t categories = 0;
  for (SongId s : lib.songs()) categories |= category_bit(s);
  songs_.insert(songs_.end(), lib.songs().begin(), lib.songs().end());
  start_.push_back(songs_.size());
  categories_.push_back(categories);
  spilled_.push_back(false);
}

bool LibraryPool::search(std::uint32_t u, SongId s) const noexcept {
  const auto b = base(u);
  if (std::binary_search(b.begin(), b.end(), s)) return true;
  if (!spilled_[u]) return false;
  const auto& spill = spill_.find(u)->second;
  return std::binary_search(spill.begin(), spill.end(), s);
}

std::size_t LibraryPool::size(std::uint32_t u) const {
  std::size_t n = base(u).size();
  if (spilled_[u]) n += spill_.find(u)->second.size();
  return n;
}

void LibraryPool::add(std::uint32_t u, SongId s) {
  const auto b = base(u);
  if (std::binary_search(b.begin(), b.end(), s)) return;
  auto& spill = spill_[u];
  const auto it = std::lower_bound(spill.begin(), spill.end(), s);
  if (it == spill.end() || *it != s) spill.insert(it, s);
  categories_[u] |= category_bit(s);
  spilled_[u] = true;
}

std::size_t LibraryPool::memory_bytes() const noexcept {
  std::size_t bytes = songs_.capacity() * sizeof(SongId) +
                      start_.capacity() * sizeof(std::uint64_t) +
                      categories_.capacity() * sizeof(std::uint64_t) +
                      spilled_.capacity() / 8;
  for (const auto& [u, spill] : spill_) {
    (void)u;
    bytes += sizeof(spill) + spill.capacity() * sizeof(SongId) +
             64;  // rough per-entry hash-table overhead
  }
  return bytes;
}

}  // namespace dsf::workload
