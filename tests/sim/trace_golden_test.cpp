// Flight-recorder zero-perturbation regression: attaching a trace sink
// must leave every scenario's metrics byte-identical to the untraced
// baseline.  This is stronger than "tracing off is free": the recorder
// rides the same traced transmit path as the fault layer but never draws
// from any RNG lane, so even a fully armed RingSink cannot move a single
// counter.  The NullSink variant additionally proves the disabled sink
// collapses to the plain path (set_trace_sink drops it to nullptr), and
// the heartbeat variant proves a periodic pulse adds records but no event.
//
// Full golden configurations (same as determinism_test.cpp), so this file
// lives in the slow suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "obs/ring_sink.h"
#include "obs/sink.h"
#include "sim_fingerprints.h"

namespace dsf {
namespace {

using simtest::fingerprint;

template <typename Sim, typename Config>
void expect_tracing_is_noop(const Config& config) {
  const auto baseline = fingerprint(Sim(config).run());

  // A disabled sink must collapse to no sink at all.
  Sim null_sim(config);
  null_sim.set_trace_sink(&obs::NullSink::instance());
  EXPECT_EQ(null_sim.trace_sink(), nullptr);
  const auto with_null = fingerprint(null_sim.run());
  EXPECT_EQ(baseline.value(), with_null.value())
      << "NullSink perturbed the run";

  // A live ring records the run without moving any metric.
  obs::RingSink ring;
  Sim traced_sim(config);
  traced_sim.set_trace_sink(&ring);
  EXPECT_EQ(traced_sim.trace_sink(), &ring);
  const auto traced = fingerprint(traced_sim.run());
  EXPECT_EQ(baseline.value(), traced.value()) << "RingSink perturbed the run";
  EXPECT_GT(ring.total(), 0u) << "sink attached but nothing was recorded";

  // A heartbeat is recorded between run segments, never scheduled: it adds
  // one record per period boundary and moves no metric.  The ring is sized
  // to hold the whole run, so every pulse is still there to count.
  const double period_s = 600.0;
  const auto pulses = static_cast<std::uint64_t>(
      std::floor(config.sim_hours * 3600.0 / period_s));
  obs::RingSink hb_ring(static_cast<std::size_t>(ring.total() + pulses));
  Sim hb_sim(config);
  hb_sim.set_trace_sink(&hb_ring);
  hb_sim.set_heartbeat_period(period_s);
  const auto with_heartbeat = fingerprint(hb_sim.run());
  EXPECT_EQ(baseline.value(), with_heartbeat.value())
      << "the heartbeat perturbed the run";
  ASSERT_EQ(hb_ring.overwritten(), 0u);
  std::uint64_t heartbeats = 0;
  for (const obs::Record& r : hb_ring.snapshot())
    if (r.kind == obs::RecordKind::kHeartbeat) ++heartbeats;
  EXPECT_EQ(heartbeats, pulses);
  EXPECT_EQ(hb_ring.total(), ring.total() + pulses);
}

TEST(TraceGolden, GnutellaTracedRunMatchesBaseline) {
  expect_tracing_is_noop<gnutella::Simulation>(
      simtest::golden_gnutella_config());
}

TEST(TraceGolden, DigLibTracedRunMatchesBaseline) {
  expect_tracing_is_noop<diglib::DigLibSim>(simtest::golden_diglib_config());
}

TEST(TraceGolden, OlapTracedRunMatchesBaseline) {
  expect_tracing_is_noop<olap::OlapSim>(simtest::golden_olap_config());
}

TEST(TraceGolden, WebCacheTracedRunMatchesBaseline) {
  expect_tracing_is_noop<webcache::WebCacheSim>(
      simtest::golden_webcache_config());
}

}  // namespace
}  // namespace dsf
