// bench_sweep: the four checker-certified parameter sweeps behind one
// command line.  Every point is one full Gnutella run with the invariant
// checker attached; the program prints one line per point and writes one
// versioned JSON document, which scripts/check_sweep.py validates.
//
//   fault   hit ratio vs query/reply loss, static vs dynamic (hops = 2)
//           -> dsf-fault-sweep-v1
//   load    sojourn latency and goodput vs offered open-loop load under a
//           per-peer admission cap -> dsf-load-sweep-v1
//   abuse   abuser containment vs amplification across abuser fractions,
//           static vs dynamic, plus a one-abuser Chrome-trace case study
//           -> dsf-abuse-sweep-v1
//   scheme  one static run per search scheme (top-k vs flood at equal hit
//           verdicts) plus a planted-duplicates LSH recall stanza
//           -> dsf-scheme-sweep-v1
//
// Usage: bench_sweep <fault|load|abuse|scheme> [--out PATH] [--schedule S]
//
// Exit status: 0 when every run is checker-clean, 2 on a usage error, 1
// when an output file cannot be written, 4 on any invariant violation.
// Honours DSF_FAST / DSF_SEED like the figure benches.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/flag_registry.h"
#include "core/lsh.h"
#include "des/rng.h"
#include "fig_common.h"
#include "load/open_loop.h"
#include "load/report.h"
#include "load/schedule.h"
#include "metrics/json_emitter.h"
#include "obs/chrome_trace.h"
#include "obs/ring_sink.h"
#include "sim/adversary.h"
#include "sim/fault.h"
#include "sim/invariants.h"

namespace {

using namespace dsf;

// Parameters every published document was produced with; each document
// records its own value.
constexpr std::size_t kAdmissionCap = 4;  ///< load: per-peer admission cap
constexpr double kOverload = 4.0;   ///< load: peak multiplier, shaped schedules
constexpr double kAbuseRate = 0.5;  ///< abuse: TTL-max searches/s per abuser
constexpr std::uint32_t kTopK = 4;  ///< scheme: results per ranked query
constexpr double kSimThreshold = 0.2;  ///< scheme: lsh arm's Jaccard floor

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// What a sweep reads and records across its runs.
struct Sweep {
  std::string out_path;
  load::ScheduleKind schedule = load::ScheduleKind::kConstant;
  bool clean = true;
  std::size_t runs = 0;

  /// Runs the configured `sim` with an InvariantChecker attached, then
  /// audits the final overlay, the message ledger (with exact send
  /// reconciliation for the `exact_sent` types), the admission accounting,
  /// the abuse ledger and the abusers' overlay.  The last three are
  /// no-op-clean on a disabled layer.  A violation is reported on stderr
  /// under `label` and makes the sweep unclean.
  gnutella::RunResult certified_run(
      gnutella::Simulation& sim, const std::string& label,
      std::initializer_list<net::MessageType> exact_sent = {}) {
    sim::InvariantChecker checker;
    sim.attach_checker(&checker);
    gnutella::RunResult r = sim.run();
    checker.check_overlay(sim.overlay());
    checker.check_ledger(sim.ledger(), exact_sent);
    checker.check_admission(sim.load_stats());
    checker.check_abuse(sim.adversary_stats(), sim.abuse_ledger(),
                        sim.ledger());
    checker.check_abuser_overlay(sim.overlay(), sim.abusers());
    ++runs;
    if (!checker.ok()) {
      std::fprintf(stderr, "%s: %s", label.c_str(), checker.report().c_str());
      clean = false;
    }
    return r;
  }
};

/// The Fig-1 comparison repeated under increasing query/reply loss: does
/// the dynamic overlay's advantage survive an unreliable transport, and
/// how fast does the hit ratio decay as the network drops messages?
void fault_sweep(Sweep& sw, metrics::JsonEmitter& j) {
  gnutella::Config base = bench::paper_config(2);
  if (!bench::fast_mode()) {
    // Ten full-population runs: trim the horizon, keeping several
    // post-warmup hours per point.
    base.sim_hours = std::min(base.sim_hours, 36.0);
    base.warmup_hours = std::min(base.warmup_hours, 6.0);
  }
  struct Arm {
    std::uint64_t queries = 0, hits = 0, dropped = 0;
  };
  const std::vector<double> losses = {0.0, 0.05, 0.10, 0.15, 0.20};
  std::vector<std::array<Arm, 2>> points;  // [static, dynamic] per loss
  for (double loss : losses) {
    sim::FaultPlan plan;
    if (loss > 0.0) {
      sim::FaultRule rule;
      rule.drop_prob = loss;
      plan.set_rule(net::MessageType::kQuery, rule);
      plan.set_rule(net::MessageType::kQueryReply, rule);
    }
    auto& p = points.emplace_back();
    for (const bool dynamic : {false, true}) {
      gnutella::Config c = base;
      c.dynamic = dynamic;
      gnutella::Simulation sim(c);
      sim.set_fault_plan(plan);
      // The flood transmits every query and reply individually, so the
      // traced send counts must match the ledger exactly.
      const auto r = sw.certified_run(
          sim, "loss " + std::to_string(loss) + (dynamic ? " dynamic" : ""),
          {net::MessageType::kQuery, net::MessageType::kQueryReply});
      p[dynamic] = {r.queries_issued, r.total_hits(),
                    sim.ledger().total_dropped()};
    }
    std::printf("loss %.0f%%: static hit ratio %.3f, dynamic %.3f\n",
                loss * 100, ratio(p[0].hits, p[0].queries),
                ratio(p[1].hits, p[1].queries));
  }

  j.schema("fault-sweep", 1);
  j.field("max_hops", base.max_hops);
  j.field("sim_hours", base.sim_hours, 1);
  j.field("clean", sw.clean);
  j.begin_array("points");
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const auto& [sta, dyn] = points[i];
    j.begin_object();
    j.field("loss", losses[i], 2);
    j.field("hit_ratio_static", ratio(sta.hits, sta.queries), 4);
    j.field("hit_ratio_dynamic", ratio(dyn.hits, dyn.queries), 4);
    j.field("queries_static", sta.queries);
    j.field("queries_dynamic", dyn.queries);
    j.field("dropped_total", sta.dropped + dyn.dropped);
    j.end_object();
  }
  j.end_array();
}

/// Open-loop saturation: as offered load crosses the federation's service
/// capacity, sojourn percentiles must grow monotonically while goodput
/// decouples from offered load (admission sheds the excess instead of
/// collapsing).  The sweep axis is the schedule's base rate.
void load_sweep(Sweep& sw, metrics::JsonEmitter& j) {
  // A small federation puts the saturation knee at a few queries per
  // second: per-peer service time is dominated by the query timeout on
  // misses, so capacity ~ peers / mean service seconds.
  gnutella::Config base = bench::paper_config(2);
  base.num_users = 100;
  base.catalog.num_songs = 50'000;
  base.sim_hours = bench::fast_mode() ? 0.5 : 1.5;
  base.warmup_hours = bench::fast_mode() ? 0.1 : 0.25;
  const double horizon_s = base.sim_hours * 3600.0;
  const double measure_s = (base.sim_hours - base.warmup_hours) * 3600.0;

  // From comfortably under-loaded to 2-3x past the ~0.1 q/s-per-peer
  // service capacity.
  const std::vector<double> rates = {2.0, 5.0, 10.0, 15.0, 20.0, 30.0};
  std::vector<load::LoadStats> points;
  for (double qps : rates) {
    load::OpenLoopOptions o;
    o.enabled = true;
    o.schedule = load::make_schedule(
        sw.schedule, qps,
        sw.schedule == load::ScheduleKind::kConstant ? 1.0 : kOverload,
        horizon_s);
    o.admission_cap = kAdmissionCap;
    gnutella::Simulation sim(base);
    sim.set_open_loop(std::move(o));
    sw.certified_run(sim, "offered " + std::to_string(qps) + " q/s");
    const load::LoadStats& s = points.emplace_back(sim.load_stats());
    std::printf("offered %5.1f q/s: goodput %6.2f q/s, rejected %5.1f%%, "
                "p99 %8.0f ms\n",
                qps,
                static_cast<double>(s.completed_after_warmup) / measure_s,
                100.0 * ratio(s.rejected, s.offered),
                s.sojourn_hist.quantile(0.99) * 1e3);
  }

  j.schema("load-sweep", 1);
  j.field("scenario", "gnutella");
  j.field("schedule", load::schedule_name(sw.schedule));
  j.field("admission_cap", static_cast<std::uint64_t>(kAdmissionCap));
  j.field("peers", static_cast<std::uint64_t>(base.num_users));
  j.field("sim_hours", base.sim_hours, 2);
  j.field("warmup_hours", base.warmup_hours, 2);
  j.field("clean", sw.clean);
  j.begin_array("points");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    j.begin_object();
    j.field("offered_qps", rates[i], 2);
    load::write_load_stats(j, points[i], measure_s);
    j.end_object();
  }
  j.end_array();
}

struct AbusePoint {
  double fraction = 0.0;
  bool dynamic = false;
  sim::AdversaryStats adversary;
  std::uint64_t queries = 0, hits = 0;
  std::uint64_t total_messages = 0, abuse_messages = 0;
  std::uint64_t total_bytes = 0, abuse_bytes = 0;
  double abuser_mean_degree = 0.0, good_mean_degree = 0.0;
};

/// One certified run with a fraction of the population turned into
/// query-flood abusers; `ring` (optional) records the run.
AbusePoint abuse_run(Sweep& sw, const gnutella::Config& config,
                     double fraction, obs::RingSink* ring = nullptr) {
  sim::AdversaryPlan plan;
  plan.abuser_fraction = fraction;
  plan.abuse_rate_per_s = fraction > 0.0 ? kAbuseRate : 0.0;
  gnutella::Simulation sim(config);
  if (plan.enabled()) sim.set_adversary(plan);
  if (ring) sim.set_trace_sink(ring);
  const auto r = sw.certified_run(
      sim, "fraction " + std::to_string(fraction) +
               (config.dynamic ? " dynamic" : ""));

  AbusePoint p;
  p.fraction = fraction;
  p.dynamic = config.dynamic;
  p.adversary = sim.adversary_stats();
  p.queries = r.queries_issued;
  p.hits = r.total_hits();
  p.total_messages = sim.ledger().stats().total();
  p.abuse_messages = sim.abuse_ledger().stats().total();
  p.total_bytes = sim.ledger().total_bytes();
  p.abuse_bytes = sim.abuse_ledger().total_bytes();
  // Mean out-degree of the abusers vs everyone else, both over the full
  // roster: off-line users hold zero links in either group.
  std::uint64_t deg[2] = {0, 0}, count[2] = {0, 0};
  for (net::NodeId u = 0; u < sim.overlay().size(); ++u) {
    deg[sim.is_abuser(u)] += sim.overlay().lists(u).out().size();
    ++count[sim.is_abuser(u)];
  }
  p.good_mean_degree = ratio(deg[0], count[0]);
  p.abuser_mean_degree = ratio(deg[1], count[1]);
  return p;
}

/// Contain or amplify: as the abuser fraction grows, does dynamic
/// reorganization shrink the abusers' overlay degree (good peers learn
/// they contribute nothing), while static Gnutella keeps wiring them in at
/// random?  Per point: abuser vs good-peer degree, good-peer hit ratio
/// (abuse sprays never inflate it) and the blast-radius traffic share.
void abuse_sweep(Sweep& sw, metrics::JsonEmitter& j) {
  // A small federation keeps 2 x |fractions| full runs tractable; the
  // degree divergence under --dynamic shows within a few simulated hours.
  gnutella::Config base = bench::paper_config(2);
  base.num_users = 250;
  base.catalog.num_songs = 50'000;
  base.sim_hours = bench::fast_mode() ? 1.0 : 6.0;
  base.warmup_hours = bench::fast_mode() ? 0.25 : 1.0;
  const std::vector<double> fractions =
      bench::fast_mode() ? std::vector<double>{0.0, 0.1}
                         : std::vector<double>{0.0, 0.05, 0.1, 0.2};

  std::vector<AbusePoint> points;
  for (const bool dynamic : {false, true}) {
    gnutella::Config config = base;
    config.dynamic = dynamic;
    for (double f : fractions) {
      const AbusePoint& p = points.emplace_back(abuse_run(sw, config, f));
      std::printf(
          "%-7s f=%.2f: %3llu abusers, abuse share %5.1f%%, good hit "
          "%5.1f%%, degree %.2f vs %.2f\n",
          dynamic ? "dynamic" : "static", f,
          static_cast<unsigned long long>(p.adversary.abusers),
          100.0 * ratio(p.abuse_messages, p.total_messages),
          100.0 * ratio(p.hits, p.queries), p.abuser_mean_degree,
          p.good_mean_degree);
    }
  }

  // Case study: exactly one abuser (fraction 1/N rounds to one peer) under
  // the dynamic scheme with the flight recorder on; the exported Chrome
  // trace holds every span and transmission of its blast radius.
  obs::RingSink ring(1 << 20);
  gnutella::Config case_config = base;
  case_config.dynamic = true;
  const AbusePoint c = abuse_run(
      sw, case_config, 1.0 / static_cast<double>(base.num_users), &ring);
  const std::string stem =
      sw.out_path.ends_with(".json")
          ? sw.out_path.substr(0, sw.out_path.size() - 5)
          : sw.out_path;
  const std::string trace_path = stem + "_case_study_trace.json";
  const auto records = ring.snapshot();
  if (!obs::write_chrome_trace_file(trace_path, records, ring.overwritten()))
    throw std::runtime_error("cannot write " + trace_path);
  std::printf(
      "case study: 1 abuser, %llu abuse queries, %5.1f%% traffic share, "
      "%zu trace records -> %s\n",
      static_cast<unsigned long long>(c.adversary.abuse_queries),
      100.0 * ratio(c.abuse_messages, c.total_messages), records.size(),
      trace_path.c_str());

  j.schema("abuse-sweep", 1);
  j.field("scenario", "gnutella");
  j.field("abuse_rate_per_s", kAbuseRate, 3);
  j.field("peers", static_cast<std::uint64_t>(base.num_users));
  j.field("sim_hours", base.sim_hours, 2);
  j.field("warmup_hours", base.warmup_hours, 2);
  j.field("clean", sw.clean);
  j.begin_array("points");
  for (const AbusePoint& p : points) {
    j.begin_object();
    j.field("abuser_fraction", p.fraction, 3);
    j.field("dynamic", p.dynamic);
    j.field("abusers", p.adversary.abusers);
    j.field("abuse_queries", p.adversary.abuse_queries);
    j.field("abuse_hits", p.adversary.abuse_hits);
    j.field("queries", p.queries);
    j.field("hits", p.hits);
    j.field("good_hit_ratio", ratio(p.hits, p.queries), 4);
    j.field("total_messages", p.total_messages);
    j.field("abuse_messages", p.abuse_messages);
    j.field("abuse_traffic_share", ratio(p.abuse_messages, p.total_messages),
            4);
    j.field("total_bytes", p.total_bytes);
    j.field("abuse_bytes", p.abuse_bytes);
    j.field("abuse_bytes_share", ratio(p.abuse_bytes, p.total_bytes), 4);
    j.field("abuser_mean_degree", p.abuser_mean_degree, 3);
    j.field("good_mean_degree", p.good_mean_degree, 3);
    j.end_object();
  }
  j.end_array();
  j.begin_object("case_study");
  j.field("abusers", c.adversary.abusers);
  j.field("dynamic", true);
  j.field("abuse_queries", c.adversary.abuse_queries);
  j.field("abuse_traffic_share", ratio(c.abuse_messages, c.total_messages),
          4);
  j.field("trace_records", static_cast<std::uint64_t>(records.size()));
  j.field("trace_path", trace_path);
  j.end_object();
}

double true_jaccard(const std::vector<std::uint64_t>& a,
                    const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> inter, uni;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(uni));
  return ratio(inter.size(), uni.size());
}

/// Planted-duplicates LSH recall at Jaccard threshold 0.5: peers copy one
/// of a handful of disjoint prototypes and mutate ~7% of the items, so
/// within-family true Jaccard (~0.76) clears the threshold and
/// cross-family (~0) never does.  A retrieved neighbor must pass both the
/// band-bucket gate and the signature-estimate threshold, exactly the gate
/// lsh_similarity_search applies per visited peer.
void lsh_recall_stanza(std::uint64_t seed, metrics::JsonEmitter& j) {
  constexpr double kThreshold = 0.5;
  constexpr std::uint32_t kPeers = 200;
  constexpr std::uint32_t kProtos = 8;
  constexpr std::uint64_t kSetSize = 80;
  des::Rng rng(seed);

  std::vector<std::vector<std::uint64_t>> sets(kPeers);
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    auto& s = sets[p];
    const std::uint64_t proto = p % kProtos;
    for (std::uint64_t i = 0; i < kSetSize; ++i)
      s.push_back(rng.uniform() < 0.07 ? 1'000'000 + p * kSetSize + i
                                       : proto * kSetSize + i);
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  core::LshIndex idx;
  idx.reserve(kPeers);
  for (const auto& s : sets)
    idx.append_node(std::span<const std::uint64_t>(s));

  std::uint64_t true_pairs = 0, retrieved = 0, false_hits = 0;
  for (std::uint32_t a = 0; a < kPeers; ++a) {
    for (std::uint32_t b = 0; b < kPeers; ++b) {
      if (a == b) continue;
      const bool is_true = true_jaccard(sets[a], sets[b]) >= kThreshold;
      const bool is_hit = idx.candidate(a, b) &&
                          idx.estimated_similarity(a, b) >= kThreshold;
      true_pairs += is_true;
      retrieved += is_true && is_hit;
      false_hits += !is_true && is_hit;
    }
  }
  std::printf("lsh planted-duplicates recall: %.4f (%llu/%llu true pairs, "
              "%llu false hits)\n",
              ratio(retrieved, true_pairs),
              static_cast<unsigned long long>(retrieved),
              static_cast<unsigned long long>(true_pairs),
              static_cast<unsigned long long>(false_hits));

  j.begin_object("lsh_recall");
  j.field("threshold", kThreshold, 3);
  j.field("peers", static_cast<std::uint64_t>(kPeers));
  j.field("true_pairs", true_pairs);
  j.field("retrieved", retrieved);
  j.field("recall", ratio(retrieved, true_pairs), 4);
  j.field("false_hits", false_hits);
  j.end_object();
}

/// The ranked query plane end to end: one static run per search scheme.
/// The static overlay and the four-lane RNG layout give every arm the same
/// peers, sessions and query arrivals, so traffic differences are the
/// scheme's alone.  FD-style top-k prunes last-hop forwards through
/// one-hop scored digests, cutting query traffic versus the flood while
/// answering the exact same set of queries.
void scheme_sweep(Sweep& sw, metrics::JsonEmitter& j) {
  gnutella::Config base = bench::paper_config(2);
  base.dynamic = false;
  base.num_users = 250;
  base.catalog.num_songs = 50'000;
  base.sim_hours = bench::fast_mode() ? 1.0 : 6.0;
  base.warmup_hours = bench::fast_mode() ? 0.25 : 1.0;
  base.top_k = kTopK;
  base.sim_threshold = kSimThreshold;

  struct Arm {
    sim::SearchStrategyKind kind;
    gnutella::RunResult r;
    std::uint64_t total_messages = 0, total_bytes = 0;
    std::uint64_t query_messages() const {
      return r.traffic.total(net::MessageType::kQuery);
    }
  };
  std::vector<Arm> arms;
  for (const auto kind : {sim::SearchStrategyKind::kFlood,
                          sim::SearchStrategyKind::kIterativeDeepening,
                          sim::SearchStrategyKind::kDirectedBft,
                          sim::SearchStrategyKind::kLocalIndices,
                          sim::SearchStrategyKind::kTopK,
                          sim::SearchStrategyKind::kLsh}) {
    gnutella::Config config = base;
    config.search_strategy = kind;
    gnutella::Simulation sim(config);
    const auto r = sw.certified_run(
        sim, std::string("scheme ") + sim::to_string(kind));
    const Arm& a = arms.emplace_back(Arm{kind, r, sim.ledger().stats().total(),
                                         sim.ledger().total_bytes()});
    std::printf("%-13s: %7llu queries, hit ratio %5.1f%%, %9llu query msgs, "
                "%7llu results\n",
                sim::to_string(kind),
                static_cast<unsigned long long>(r.queries_issued),
                100.0 * ratio(r.total_hits(), r.queries_issued),
                static_cast<unsigned long long>(a.query_messages()),
                static_cast<unsigned long long>(r.total_results()));
  }
  const Arm& flood = arms[0];
  const Arm& topk = arms[4];
  const double reduction = ratio(flood.query_messages(), topk.query_messages());
  std::printf("top-k vs flood: %.2fx query-traffic reduction, hit ratio "
              "%.4f vs %.4f\n",
              reduction,
              ratio(topk.r.total_hits(), topk.r.queries_issued),
              ratio(flood.r.total_hits(), flood.r.queries_issued));

  j.schema("scheme-sweep", 1);
  j.field("scenario", "gnutella-static");
  j.field("peers", static_cast<std::uint64_t>(base.num_users));
  j.field("sim_hours", base.sim_hours, 2);
  j.field("warmup_hours", base.warmup_hours, 2);
  j.field("top_k", static_cast<std::uint64_t>(kTopK));
  j.field("sim_threshold", kSimThreshold, 3);
  j.field("clean", sw.clean);
  j.begin_array("arms");
  for (const Arm& a : arms) {
    j.begin_object();
    j.field("scheme", sim::to_string(a.kind));
    j.field("queries", a.r.queries_issued);
    j.field("hits", a.r.total_hits());
    j.field("hit_ratio", ratio(a.r.total_hits(), a.r.queries_issued), 4);
    j.field("results", a.r.total_results());
    j.field("query_messages", a.query_messages());
    j.field("reply_messages", a.r.traffic.total(net::MessageType::kQueryReply));
    j.field("total_messages", a.total_messages);
    j.field("total_bytes", a.total_bytes);
    j.field("first_result_delay_mean_s", a.r.first_result_delay_s.mean(), 6);
    j.end_object();
  }
  j.end_array();
  j.begin_object("topk_vs_flood");
  j.field("traffic_reduction", reduction, 3);
  j.field("flood_hit_ratio",
          ratio(flood.r.total_hits(), flood.r.queries_issued), 4);
  j.field("topk_hit_ratio", ratio(topk.r.total_hits(), topk.r.queries_issued),
          4);
  j.field("flood_hits", flood.r.total_hits());
  j.field("topk_hits", topk.r.total_hits());
  j.end_object();
  lsh_recall_stanza(base.seed, j);
}

struct SweepDef {
  const char* name;
  void (*run)(Sweep&, metrics::JsonEmitter&);
};
constexpr SweepDef kSweeps[] = {{"fault", fault_sweep},
                                {"load", load_sweep},
                                {"abuse", abuse_sweep},
                                {"scheme", scheme_sweep}};

}  // namespace

int main(int argc, char** argv) {
  cli::FlagRegistry reg(
      "bench_sweep <fault|load|abuse|scheme> [--out PATH] [--schedule S]",
      "Checker-certified parameter sweeps, one JSON document each: fault "
      "(hit ratio vs loss), load (latency vs offered load), abuse (abuser "
      "containment; also writes <out stem>_case_study_trace.json), scheme "
      "(top-k vs flood, LSH recall).  Exit 2 usage, 1 I/O, 4 invariant "
      "violation.  Honours DSF_FAST / DSF_SEED.");
  reg.add_string("out", "", "JSON output path (default <sweep>_sweep.json)")
      .add_string("schedule", "constant",
                  "load only: offered-load shape per point: "
                  "constant|diurnal|flash|step");
  const SweepDef* sweep = nullptr;
  Sweep sw;
  try {
    const cli::Args& args = reg.parse(argc, argv);
    if (reg.help_requested()) {
      std::fputs(reg.help().c_str(), stdout);
      return 0;
    }
    const std::string name =
        args.positional().size() == 1 ? args.positional().front() : "";
    for (const SweepDef& s : kSweeps)
      if (name == s.name) sweep = &s;
    if (!sweep)
      throw cli::FlagError("expected one sweep: fault, load, abuse or scheme");
    if (name != "load" && reg.was_set("schedule"))
      throw cli::FlagError("--schedule applies to the load sweep only");
    sw.schedule = load::parse_schedule(reg.get_string("schedule"));
    sw.out_path = reg.get_string("out");
    if (sw.out_path.empty()) sw.out_path = name + "_sweep.json";
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::ofstream out(sw.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", sw.out_path.c_str());
    return 1;
  }
  try {
    metrics::JsonEmitter j(out);
    j.begin_object();
    sweep->run(sw, j);
    j.finish();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("wrote %s\n", sw.out_path.c_str());
  if (!sw.clean) {
    std::fprintf(stderr, "%s sweep: invariant violations detected\n",
                 sweep->name);
    return 4;
  }
  std::printf("all %zu runs checker-clean\n", sw.runs);
  return 0;
}
