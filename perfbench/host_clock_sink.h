#pragma once

// HostClockSink: the benchmark's own flight-recorder consumer.  It is
// attached only to the traced pass and measures the run from outside the
// library, through the public obs::TraceSink contract:
//
//   * search spans — the host clock is read on every kSearchBegin and
//     kSearchEnd record.  A gnutella search runs synchronously between the
//     two (they bracket run_search), so the sum of the gaps is the host
//     time spent expanding searches.  The clock is read only on these two
//     kinds: a read on every wire record would land inside the spans and
//     inflate the very time being measured;
//   * query copies — kSend records of query messages inside a span;
//   * content probes — the first kRecv of a query at each receiver within
//     a span is exactly one has_content() call of the flood (duplicates
//     are discarded before the probe), so the sink counts those and keeps
//     a strided sample of (receiver, target item) pairs for the
//     LibraryPool replay.  When the sample buffer fills, every other entry
//     is dropped and the stride doubles, so the sample always spans the
//     whole run at a fixed memory cost.
//
// record() never allocates: the sample buffer and the per-span visit
// stamps are sized up front.

#include <chrono>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "obs/record.h"
#include "obs/sink.h"

namespace perfbench {

/// One sampled content probe: did `user` hold `item` (a SongId)?
struct Probe {
  std::uint32_t user = 0;
  std::uint32_t item = 0;
};

class HostClockSink final : public dsf::obs::TraceSink {
 public:
  /// Samples probes with a stride that starts at 1 and doubles whenever
  /// `max_sample` (at least 2) entries are held.
  HostClockSink(std::size_t num_users, std::size_t max_sample)
      : max_sample_(max_sample), stamp_(num_users, 0) {
    sample_.reserve(max_sample);
  }

  void record(const dsf::obs::Record& r) noexcept override {
    ++records_;
    using dsf::obs::RecordKind;
    switch (r.kind) {
      case RecordKind::kSearchBegin:
        open_span_ = r.span;
        item_ = static_cast<std::uint32_t>(r.a);
        ++epoch_;
        visit(r.from);  // the initiator never probes itself
        ++spans_;
        span_start_ = Clock::now();
        break;
      case RecordKind::kSearchEnd:
        if (r.span == open_span_ && open_span_ != 0) {
          search_time_ += Clock::now() - span_start_;
          open_span_ = 0;
        }
        break;
      case RecordKind::kSend:
        if (is_query_in_span(r)) query_copies_ += r.b;
        break;
      case RecordKind::kRecv:
        if (is_query_in_span(r) && visit(r.to)) {
          if (probes_ % stride_ == 0) keep({r.to, item_});
          ++probes_;
        }
        break;
      default:
        break;
    }
  }

  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t spans() const noexcept { return spans_; }
  double search_host_s() const noexcept {
    return std::chrono::duration<double>(search_time_).count();
  }
  std::uint64_t query_copies() const noexcept { return query_copies_; }
  std::uint64_t probes() const noexcept { return probes_; }
  const std::vector<Probe>& sample() const noexcept { return sample_; }

 private:
  using Clock = std::chrono::steady_clock;

  bool is_query_in_span(const dsf::obs::Record& r) const noexcept {
    return open_span_ != 0 && r.span == open_span_ &&
           r.type == static_cast<std::uint8_t>(dsf::net::MessageType::kQuery);
  }

  void keep(Probe p) noexcept {
    if (sample_.size() == max_sample_) {
      for (std::size_t i = 0; 2 * i < sample_.size(); ++i)
        sample_[i] = sample_[2 * i];
      sample_.resize((sample_.size() + 1) / 2);
      stride_ *= 2;
      if (probes_ % stride_ != 0) return;
    }
    sample_.push_back(p);
  }

  /// Marks `u` visited in the open span; true on the first visit.
  bool visit(std::uint32_t u) noexcept {
    if (u >= stamp_.size() || stamp_[u] == epoch_) return false;
    stamp_[u] = epoch_;
    return true;
  }

  std::uint64_t stride_ = 1;
  std::size_t max_sample_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::uint32_t open_span_ = 0;
  std::uint32_t item_ = 0;
  Clock::time_point span_start_{};
  Clock::duration search_time_{};
  std::uint64_t records_ = 0;
  std::uint64_t spans_ = 0;
  std::uint64_t query_copies_ = 0;
  std::uint64_t probes_ = 0;
  std::vector<Probe> sample_;
};

}  // namespace perfbench
