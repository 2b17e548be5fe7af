// The resume-equals-straight-through battery (DESIGN.md §1.9's contract):
// for every simulator, running to sim-second T, writing a snapshot,
// loading it into a freshly constructed simulation and running to the
// horizon must produce metric fingerprints byte-identical to the
// uninterrupted run — and the save itself must not perturb the saving
// run's trajectory.  Saving at the same T twice must produce identical
// file bytes (the format sorts every unordered container at write time).
//
// Variants cover every keyed-event kind and domain container: gnutella's
// trial-period invitations and probe periodics, the summary-gated policy
// with growing libraries (recent-query rings + spill lists), the crash
// process (dead set + pending crash tick), webcache's Squid hierarchy
// (parent-only digest periodics) and the LRU/Bloom/StatsStore codecs in
// olap/webcache/diglib.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "../sim/sim_fingerprints.h"
#include "load/schedule.h"
#include "obs/ring_sink.h"
#include "sim/fault.h"
#include "sim/invariants.h"

namespace dsf {
namespace {

using simtest::fingerprint;

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Straight-through vs save-run vs resumed-run fingerprints, plus
/// save-twice byte identity.  `arm` configures each simulation identically
/// (fault plans, crash models) before anything runs; `inspect` sees the
/// resumed simulation right after the load, i.e. the state at `save_at_s`.
template <typename Sim, typename Config, typename Arm, typename Inspect>
void expect_resume_equals_straight(const Config& cfg, double save_at_s,
                                   const std::string& tag, Arm arm,
                                   Inspect inspect) {
  const std::string path = ::testing::TempDir() + "dsf_" + tag + ".snap";
  const std::string path2 = path + ".again";

  std::uint64_t straight_fp = 0;
  {
    Sim straight(cfg);
    arm(straight);
    straight_fp = fingerprint(straight.run()).value();
  }
  {
    Sim saver(cfg);
    arm(saver);
    saver.request_snapshot_save(path, save_at_s);
    EXPECT_EQ(straight_fp, fingerprint(saver.run()).value())
        << tag << ": the save perturbed the saving run";
  }
  {
    Sim resumer(cfg);
    arm(resumer);
    resumer.load_snapshot(path);
    EXPECT_TRUE(resumer.resumed());
    inspect(static_cast<const Sim&>(resumer));
    EXPECT_EQ(straight_fp, fingerprint(resumer.run()).value())
        << tag << ": resumed trajectory diverged";
  }
  {
    Sim saver(cfg);
    arm(saver);
    saver.request_snapshot_save(path2, save_at_s);
    saver.run();
  }
  EXPECT_EQ(slurp(path), slurp(path2))
      << tag << ": saving at the same T twice produced different bytes";
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

template <typename Sim, typename Config, typename Arm>
void expect_resume_equals_straight(const Config& cfg, double save_at_s,
                                   const std::string& tag, Arm arm) {
  expect_resume_equals_straight<Sim>(cfg, save_at_s, tag, arm,
                                     [](const Sim&) {});
}

template <typename Sim, typename Config>
void expect_resume_equals_straight(const Config& cfg, double save_at_s,
                                   const std::string& tag) {
  expect_resume_equals_straight<Sim>(cfg, save_at_s, tag, [](Sim&) {});
}

// Small configs keep the battery inside the fast tier; they are derived
// from the golden fingerprint configs so the workloads stay representative.
gnutella::Config small_gnutella() {
  gnutella::Config c = simtest::golden_gnutella_config();
  c.num_users = 120;
  c.sim_hours = 2.0;
  c.warmup_hours = 0.5;
  return c;
}

olap::OlapConfig small_olap() {
  olap::OlapConfig c = simtest::golden_olap_config();
  c.sim_hours = 0.5;
  c.warmup_hours = 0.1;
  return c;
}

TEST(ResumeDifferential, Gnutella) {
  expect_resume_equals_straight<gnutella::Simulation>(small_gnutella(), 3600.0,
                                                      "gnutella");
}

TEST(ResumeDifferential, GnutellaTrialPeriodAndProbes) {
  // Exercises the trial keyed events (pending cross-user evaluations at T)
  // and the probe periodic / ProbeSample restore.
  gnutella::Config c = small_gnutella();
  c.invitation_policy = core::InvitationPolicy::kTrialPeriod;
  c.probe_period_s = 600.0;
  expect_resume_equals_straight<gnutella::Simulation>(c, 3600.0,
                                                      "gnutella_trial");
}

TEST(ResumeDifferential, GnutellaSummaryGatedWithLibraryGrowth) {
  // Exercises the recent-query rings (summary-gated invitations) and the
  // library-pool spill lists (downloads at T must survive the resume).
  gnutella::Config c = small_gnutella();
  c.invitation_policy = core::InvitationPolicy::kSummaryGated;
  c.library_growth = true;
  expect_resume_equals_straight<gnutella::Simulation>(c, 3600.0,
                                                      "gnutella_summary");
}

TEST(ResumeDifferential, GnutellaLibraryGrowthIntoNewCategories) {
  // With §4.2's library sizes every profile category is already in the
  // base library, so downloads never open a new category.  Libraries of
  // under ten songs hold no side-category songs at all: side-category
  // hits then land in categories the base lacks, and the checkpoint must
  // carry them so the resumed pool rebuilds its category directory from
  // the spill lists alone.
  gnutella::Config c = small_gnutella();
  c.library_growth = true;
  c.library.mean_size = 5.0;
  c.library.stddev_size = 2.0;
  c.library.min_size = 1.0;
  c.library.max_size = 9.0;
  const workload::Catalog catalog(c.catalog);
  const auto expect_new_category_spill =
      [&catalog](const gnutella::Simulation& sim) {
        std::size_t n = 0;
        for (const auto& [u, songs] : sim.libraries().spill()) {
          const auto base = sim.libraries().base(u);
          for (workload::SongId s : songs) {
            const auto cat = catalog.category_of(s);
            n += std::none_of(base.begin(), base.end(),
                              [&](workload::SongId b) {
                                return catalog.category_of(b) == cat;
                              });
          }
        }
        EXPECT_GT(n, 0u) << "no download into a new category before the save";
      };
  expect_resume_equals_straight<gnutella::Simulation>(
      c, 3600.0, "gnutella_new_category", [](gnutella::Simulation&) {},
      expect_new_category_spill);
}

TEST(ResumeDifferential, GnutellaWithCrashes) {
  // Exercises the crash process: the dead set, the pending crash tick and
  // the fault RNG lane all cross the snapshot.
  gnutella::Config c = small_gnutella();
  sim::CrashModel crashes;
  crashes.rate_per_hour = 6.0;
  expect_resume_equals_straight<gnutella::Simulation>(
      c, 3600.0, "gnutella_crash",
      [&crashes](gnutella::Simulation& sim) { sim.set_crash_model(crashes); });
}

TEST(ResumeDifferential, Olap) {
  expect_resume_equals_straight<olap::OlapSim>(small_olap(), 900.0, "olap");
}

TEST(ResumeDifferential, Webcache) {
  expect_resume_equals_straight<webcache::WebCacheSim>(
      simtest::golden_webcache_config(), 1800.0, "webcache");
}

TEST(ResumeDifferential, WebcacheHierarchy) {
  // Squid-hierarchy mode: parents register only the digest periodic, so
  // the per-node periodic registration order differs from the flat mesh.
  webcache::WebCacheConfig c = simtest::golden_webcache_config();
  c.num_parents = 4;
  expect_resume_equals_straight<webcache::WebCacheSim>(c, 1800.0,
                                                       "webcache_hier");
}

TEST(ResumeDifferential, Diglib) {
  expect_resume_equals_straight<diglib::DigLibSim>(
      simtest::golden_diglib_config(), 900.0, "diglib");
}

TEST(ResumeDifferential, CrashModelArmedOnlyOnResumeStillFires) {
  // The EXPERIMENTS.md warm-start recipe: bootstrap once without faults,
  // then fork a crash scenario from the checkpoint.  The saved run carried
  // no crash tick, so the resumed engine must start the process itself,
  // from the restored clock — and only after the fork point.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_fork.snap";
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 1800.0);
    saver.run();
  }
  gnutella::Simulation fork(cfg);
  sim::CrashModel crashes;
  crashes.rate_per_hour = 30.0;
  fork.set_crash_model(crashes);
  fork.load_snapshot(path);
  fork.run();
  EXPECT_GT(fork.crashes(), 0u)
      << "crash model armed on a resumed run never fired";
  std::remove(path.c_str());
}

TEST(ResumeDifferential, EventsExecutedContinuesAcrossResume) {
  // The lifetime event counter is part of the engine core section, so a
  // resumed run reports the same total as the uninterrupted one.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_events.snap";
  const auto straight = gnutella::Simulation(cfg).run();
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 3600.0);
    saver.run();
  }
  gnutella::Simulation resumer(cfg);
  resumer.load_snapshot(path);
  EXPECT_EQ(straight.events_executed, resumer.run().events_executed);
  std::remove(path.c_str());
}

TEST(ResumeDifferential, HeartbeatStaysOutOfTheCheckpoint) {
  // A heartbeat is an observation: it takes no periodic slot, so a run
  // saved with one resumes without it, and a plain checkpoint resumes with
  // one.  Every leg must match the straight run.  With the recorder on
  // both sides, the heartbeat must not change a byte of the file either.
  const gnutella::Config cfg = small_gnutella();
  const std::string dir = ::testing::TempDir();
  const std::uint64_t straight_fp =
      fingerprint(gnutella::Simulation(cfg).run()).value();
  const auto run = [&cfg](const std::string& save, const std::string& load,
                          obs::RingSink* ring, double heartbeat_s) {
    gnutella::Simulation sim(cfg);
    if (!load.empty()) sim.load_snapshot(load);
    if (!save.empty()) sim.request_snapshot_save(save, 3600.0);
    if (ring != nullptr) sim.set_trace_sink(ring);
    if (heartbeat_s > 0.0) sim.set_heartbeat_period(heartbeat_s);
    return fingerprint(sim.run()).value();
  };
  obs::RingSink ring;
  const std::string beat = dir + "dsf_heartbeat_on.snap";
  const std::string plain = dir + "dsf_heartbeat_off.snap";
  const std::string traced = dir + "dsf_heartbeat_traced.snap";
  EXPECT_EQ(straight_fp, run(beat, "", &ring, 600.0));
  EXPECT_EQ(straight_fp, run("", beat, nullptr, 0.0))
      << "a checkpoint saved with a heartbeat did not resume without one";
  EXPECT_EQ(straight_fp, run(plain, "", nullptr, 0.0));
  EXPECT_EQ(straight_fp, run("", plain, &ring, 600.0))
      << "a plain checkpoint did not resume with a heartbeat";
  EXPECT_EQ(straight_fp, run(traced, "", &ring, 0.0));
  EXPECT_EQ(slurp(beat), slurp(traced))
      << "the heartbeat changed the checkpoint's bytes";
  for (const std::string& path : {beat, plain, traced})
    std::remove(path.c_str());
}

TEST(ResumeDifferential, ObservationLeavesTheCheckpointBytesUnchanged) {
  // Saved at the same T, a plain run, a traced run, a traced run with a
  // heartbeat and a checked run write the same file: neither the span
  // counter nor the ledger's fate counters (which an observer fills in on
  // a fault-free run) depend on who is watching.
  const gnutella::Config cfg = small_gnutella();
  const std::string dir = ::testing::TempDir();
  const auto save = [&cfg](const std::string& path, obs::RingSink* ring,
                           double heartbeat_s, sim::InvariantChecker* c) {
    gnutella::Simulation sim(cfg);
    sim.request_snapshot_save(path, 3600.0);
    if (ring != nullptr) sim.set_trace_sink(ring);
    if (heartbeat_s > 0.0) sim.set_heartbeat_period(heartbeat_s);
    sim.attach_checker(c);
    sim.run();
  };
  obs::RingSink ring;
  sim::InvariantChecker checker;
  const std::string plain = dir + "dsf_observe_plain.snap";
  const std::string traced = dir + "dsf_observe_traced.snap";
  const std::string beat = dir + "dsf_observe_heartbeat.snap";
  const std::string checked = dir + "dsf_observe_checked.snap";
  save(plain, nullptr, 0.0, nullptr);
  save(traced, &ring, 0.0, nullptr);
  save(beat, &ring, 600.0, nullptr);
  save(checked, nullptr, 0.0, &checker);
  EXPECT_TRUE(checker.ok()) << checker.report();
  const std::vector<char> plain_bytes = slurp(plain);
  EXPECT_EQ(plain_bytes, slurp(traced)) << "the recorder changed the bytes";
  EXPECT_EQ(plain_bytes, slurp(beat)) << "the heartbeat changed the bytes";
  EXPECT_EQ(plain_bytes, slurp(checked)) << "the checker changed the bytes";
  for (const std::string& path : {plain, traced, beat, checked})
    std::remove(path.c_str());
}

TEST(ResumeDifferential, TracedResumeFromAPlainCheckpointNumbersSpans) {
  // A traced resume from a plain checkpoint records what the straight
  // traced run records after T, span ids included.  Both rings hold the
  // tail of the same run, so their common suffix must match record for
  // record.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_spans_plain.snap";
  {
    gnutella::Simulation saver(cfg);
    saver.request_snapshot_save(path, 3600.0);
    saver.run();
  }
  obs::RingSink straight_ring;
  {
    gnutella::Simulation straight(cfg);
    straight.set_trace_sink(&straight_ring);
    straight.run();
  }
  obs::RingSink resumed_ring;
  {
    gnutella::Simulation resumer(cfg);
    resumer.load_snapshot(path);
    resumer.set_trace_sink(&resumed_ring);
    resumer.run();
  }
  std::remove(path.c_str());
  const auto straight = straight_ring.snapshot();
  const auto resumed = resumed_ring.snapshot();
  const std::size_t n = std::min(straight.size(), resumed.size());
  std::size_t spans = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const obs::Record& s = straight[straight.size() - i];
    const obs::Record& r = resumed[resumed.size() - i];
    ASSERT_EQ(s.kind, r.kind) << "record " << i << " from the end";
    ASSERT_EQ(s.span, r.span) << "record " << i << " from the end";
    ASSERT_EQ(s.time_s, r.time_s) << "record " << i << " from the end";
    ASSERT_EQ(s.from, r.from) << "record " << i << " from the end";
    ASSERT_EQ(s.to, r.to) << "record " << i << " from the end";
    ASSERT_EQ(s.a, r.a) << "record " << i << " from the end";
    if (r.kind == obs::RecordKind::kSearchBegin) ++spans;
  }
  EXPECT_GT(spans, 0u) << "the compared tail holds no search span";
}

TEST(ResumeDifferential, MisuseIsRejected) {
  const olap::OlapConfig cfg = small_olap();
  const std::string path = ::testing::TempDir() + "dsf_misuse.snap";
  {
    olap::OlapSim saver(cfg);
    saver.request_snapshot_save(path, 60.0);
    saver.run();
  }
  {
    // The save point must lie inside the run.
    olap::OlapSim sim(cfg);
    EXPECT_THROW(sim.request_snapshot_save(path, 0.0), std::invalid_argument);
    EXPECT_THROW(sim.request_snapshot_save(path, -5.0), std::invalid_argument);
  }
  {
    // Resuming twice (or into a used simulation) is rejected: restore
    // targets must be freshly constructed.
    olap::OlapSim sim(cfg);
    sim.load_snapshot(path);
    EXPECT_THROW(sim.load_snapshot(path), std::logic_error);
  }
  {
    olap::OlapSim sim(cfg);
    sim.run();
    EXPECT_THROW(sim.load_snapshot(path), std::logic_error);
  }
  std::remove(path.c_str());
}

TEST(ResumeDifferential, UncheckpointedFeaturesAreTypedFlagConflicts) {
  // Open-loop load, the adversary layer and --capture-trace keep state no
  // snapshot section carries.  Arming one with a snapshot, in either
  // order, throws sim::FlagConflict, which dsf_sim reports as exit 2.
  const gnutella::Config cfg = small_gnutella();
  const std::string path = ::testing::TempDir() + "dsf_conflict.snap";
  load::OpenLoopOptions load;
  load.enabled = true;
  load.schedule = load::make_schedule(load::ScheduleKind::kConstant, 1.0,
                                      1.0, cfg.sim_hours * 3600.0);
  sim::AdversaryPlan adversary;
  adversary.free_rider_fraction = 0.1;
  const std::vector<std::function<void(gnutella::Simulation&)>> features = {
      [&](gnutella::Simulation& s) { s.set_open_loop(load); },
      [&](gnutella::Simulation& s) { s.set_adversary(adversary); },
      [](gnutella::Simulation& s) { s.set_capture_trace("unused.trace"); },
  };
  for (std::size_t i = 0; i < features.size(); ++i) {
    gnutella::Simulation feature_first(cfg);
    features[i](feature_first);
    EXPECT_THROW(feature_first.request_snapshot_save(path, 60.0),
                 sim::FlagConflict)
        << "feature " << i;
    EXPECT_THROW(feature_first.load_snapshot(path), sim::FlagConflict)
        << "feature " << i;
    gnutella::Simulation snapshot_first(cfg);
    snapshot_first.request_snapshot_save(path, 60.0);
    EXPECT_THROW(features[i](snapshot_first), sim::FlagConflict)
        << "feature " << i;
  }
}

}  // namespace
}  // namespace dsf
