// dsf_perfbench: the repository's benchmark program.  One invocation runs
// one named Gnutella workload for one seed through the public
// gnutella::Simulation API and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   dsf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--git-rev REV] [--perturb none|seed|drop-field]
//
// --trace 0 repeats untraced runs of --seed and two seeds derived from it
// for S seconds and reports the end-to-end metrics, then makes one traced
// pass of --seed whose fingerprint must match.  --trace 1 repeats
// (untraced, traced) pairs of --seed for S seconds and reports the
// per-layer metrics: span timing and probe sampling from HostClockSink,
// plus outside-in replays of the event queue, the library pool and the
// neighbourhood planner on each traced run's final state.  Every run goes
// through the gate in gate.h; if any fails, the result line carries no
// metrics and the exit code is 1.
// --perturb is the self-test hook: it breaks the traced pass on purpose
// (another seed, or a fingerprint missing a field).  See README.md.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "des/rng.h"
#include "gate.h"
#include "gnutella/simulation.h"
#include "host_clock_sink.h"
#include "replays.h"

namespace {

using dsf::gnutella::Config;
using dsf::gnutella::RunResult;
using dsf::gnutella::Simulation;
using perfbench::Clock;
using perfbench::seconds_since;

// --- workloads -----------------------------------------------------------

struct Workload {
  std::string_view name;
  Config (*make)(std::uint64_t seed);
};

Config flood_base(std::uint64_t seed) {
  Config c;
  c.search_strategy = dsf::gnutella::SearchStrategy::kFlood;
  c.seed = seed;
  return c;
}

constexpr Workload kWorkloads[] = {
    // The paper's own configuration (§4.3): 2,000 users, four days.
    // Runnable by name but not listed in BENCHMARK.json: its peak RSS
    // lands on one of a few levels from seed to seed (see README.md).
    {"paper_dynamic_2k",
     [](std::uint64_t seed) {
       Config c = flood_base(seed);
       c.num_users = 2000;
       c.dynamic = true;
       c.max_hops = 2;
       c.sim_hours = 96.0;
       c.warmup_hours = 12.0;
       return c;
     }},
    // Ten times the population: the library arena outgrows L2.
    {"scale_dynamic_20k",
     [](std::uint64_t seed) {
       Config c = flood_base(seed);
       c.num_users = 20000;
       c.dynamic = true;
       c.max_hops = 2;
       c.sim_hours = 6.0;
       c.warmup_hours = 1.0;
       return c;
     }},
    // No neighbourhood updates at all; deep floods; downloads write into
    // the pool's spill lists.  Two hours keep one run of three seeds plus
    // the traced pass inside the time budget on a busy host.
    {"static_growth_20k_hops3",
     [](std::uint64_t seed) {
       Config c = flood_base(seed);
       c.num_users = 20000;
       c.dynamic = false;
       c.max_hops = 3;
       c.library_growth = true;
       c.sim_hours = 2.0;
       c.warmup_hours = 1.0;
       return c;
     }},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// --- command line --------------------------------------------------------

enum class Perturb { kNone, kSeed, kDropField };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_rev = "unknown";
  Perturb perturb = Perturb::kNone;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dsf_perfbench: " << why << "\n"
            << "usage: dsf_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--git-rev REV] [--perturb none|seed|drop-field]\n"
            << "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = find_workload(value);
        if (!o.workload) usage("unknown workload '" + value + "'");
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && o.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--git-rev") {
        o.git_rev = value;
      } else if (flag == "--perturb") {
        if (value == "none") o.perturb = Perturb::kNone;
        else if (value == "seed") o.perturb = Perturb::kSeed;
        else if (value == "drop-field") o.perturb = Perturb::kDropField;
        else usage("--perturb takes none, seed or drop-field");
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + std::string(flag));
    }
  }
  if (!o.workload) usage("--workload is required");
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (!have_seconds) usage("--seconds needs a positive number");
  if (!have_trace) usage("--trace is required");
  return o;
}

// --- small helpers -------------------------------------------------------

/// CPU seconds consumed by the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos)
        return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- one run -------------------------------------------------------------

/// One constructed-and-run Simulation.  setup_s and run_s are CPU seconds
/// of the benchmark thread: the simulator is single-threaded, so on an idle
/// core they equal wall seconds, and on a shared host they leave out the
/// time slices other processes took.  run_wall_s is run()'s steady-clock
/// time, the clock the trace spans use.
struct Run {
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_wall_s = 0.0;
  RunResult result;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> failures;
};

/// Constructs and runs `config`, with `sink` attached when non-null, gates
/// the result, then hands the finished simulation to `after` (replays).
Run run_once(const Config& config, dsf::obs::TraceSink* sink,
             perfbench::FingerprintFields fields,
             const std::function<void(Simulation&, const Run&)>& after = {}) {
  Run run;
  const double c0 = thread_cpu_s();
  Simulation sim(config);
  run.setup_s = thread_cpu_s() - c0;
  if (sink) sim.set_trace_sink(sink);
  const auto w1 = Clock::now();
  const double c1 = thread_cpu_s();
  run.result = sim.run();
  run.run_s = thread_cpu_s() - c1;
  run.run_wall_s = seconds_since(w1);
  run.fingerprint = perfbench::fingerprint(run.result, fields).value();
  run.failures = perfbench::check_run(sim, run.result);
  if (after) after(sim, run);
  return run;
}

/// CPU seconds to construct `config` without running it.
double setup_only(const Config& config) {
  const double c0 = thread_cpu_s();
  const Simulation sim(config);
  return thread_cpu_s() - c0;
}

// --- reporting -----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

class Report {
 public:
  explicit Report(const Options& o) : opt_(o) {}

  /// Logs one run with its gate verdict and counts it.
  void log_run(const std::string& label, const Run& run,
               std::vector<std::string> extra_failures = {}) {
    ++attempted_;
    std::vector<std::string> failures = run.failures;
    failures.insert(failures.end(), extra_failures.begin(),
                    extra_failures.end());
    std::cout << "run " << attempted_ << ' ' << label
              << " setup_s=" << json_number(run.setup_s)
              << " run_s=" << json_number(run.run_s)
              << " run_wall_s=" << json_number(run.run_wall_s)
              << " events=" << run.result.events_executed << " fingerprint="
              << std::hex << run.fingerprint << std::dec << " verdict="
              << (failures.empty() ? "ok" : "FAILED") << '\n';
    for (const std::string& f : failures) std::cout << "  gate: " << f << '\n';
    if (!failures.empty()) ++failed_;
  }

  void add(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value});
  }

  /// `seeds`: every seed the invocation simulates.
  void manifest(const Config& c,
                const std::vector<std::uint64_t>& seeds) const {
    std::ostringstream m;
    m << "{\"manifest\": {\"workload\": " << json_string(opt_.workload->name)
      << ", \"seed\": " << opt_.seed << ", \"simulated_seeds\": [";
    for (std::size_t i = 0; i < seeds.size(); ++i)
      m << (i ? ", " : "") << seeds[i];
    m << "], \"trace\": " << opt_.trace
      << ", \"seconds\": " << json_number(opt_.seconds)
      << ", \"settings\": {\"scenario\": \"gnutella\", \"scheme\": \"flood\""
      << ", \"population\": " << c.num_users
      << ", \"dynamic\": " << (c.dynamic ? "true" : "false")
      << ", \"max_hops\": " << c.max_hops
      << ", \"library_growth\": " << (c.library_growth ? "true" : "false")
      << ", \"horizon_h\": " << json_number(c.sim_hours)
      << ", \"warmup_h\": " << json_number(c.warmup_hours)
      << ", \"threads\": 1, \"sharded\": false}"
      << ", \"git_revision\": " << json_string(opt_.git_rev)
      << ", \"compiler\": " << json_string(compiler())
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(cpu_model());
    if (opt_.perturb != Perturb::kNone)
      m << ", \"perturb\": "
        << json_string(opt_.perturb == Perturb::kSeed ? "seed" : "drop-field");
    m << "}}";
    std::cout << m.str() << '\n';
  }

  /// Prints the metric table and the result line; returns the exit code.
  int finish() const {
    const bool correct = failed_ == 0 && attempted_ > 0;
    if (correct)
      for (const Metric& m : metrics_)
        std::cout << "metric " << m.name << ' ' << json_number(m.value) << ' '
                  << m.unit << '\n';
    std::cout << "verdict " << (correct ? "ok" : "FAILED")
              << " failed/attempted " << failed_ << '/' << attempted_ << '\n';
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
    if (correct)
      for (std::size_t i = 0; i < metrics_.size(); ++i)
        line << (i ? ", " : "") << json_string(metrics_[i].name)
             << ": {\"value\": " << json_number(metrics_[i].value)
             << ", \"unit\": " << json_string(metrics_[i].unit) << '}';
    line << "}}";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
  }

 private:
  const Options& opt_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// The traced pass's configuration and fingerprint fields, perturbed for
/// the self-test when asked.
Config traced_config(const Options& o, const Config& config) {
  Config c = config;
  if (o.perturb == Perturb::kSeed) c.seed += 1;
  return c;
}
perfbench::FingerprintFields traced_fields(const Options& o) {
  return o.perturb == Perturb::kDropField
             ? perfbench::FingerprintFields::kDropEvictions
             : perfbench::FingerprintFields::kAll;
}

std::vector<std::string> compare(const Run& untraced, const Run& traced) {
  if (untraced.fingerprint == traced.fingerprint) return {};
  std::ostringstream s;
  s << "traced fingerprint " << std::hex << traced.fingerprint
    << " != untraced " << untraced.fingerprint;
  return {s.str()};
}

// --- the two modes --------------------------------------------------------

/// The probe sample keeps at most this many entries.
constexpr std::size_t kMaxSample = std::size_t{1} << 19;
/// setup_s is a median over at least this many constructions.
constexpr std::size_t kMinSetups = 5;
/// plan_update replay base: at least this many calls.
constexpr std::uint64_t kMinPlanCalls = 100'000;
/// --trace 0 simulates this many seeds derived from --seed and pools their
/// simulated metrics: at 2,000 users the median first-result delay of a
/// single seed moves by a tenth from seed to seed.
constexpr std::size_t kSubRuns = 3;

/// The seeds a --trace 0 invocation simulates: --seed itself, then seeds
/// derived from it.  --trace 1 simulates --seed only.
std::vector<std::uint64_t> simulated_seeds(const Options& o) {
  std::vector<std::uint64_t> seeds{o.seed};
  if (!o.trace)
    for (std::size_t i = 1; i < kSubRuns; ++i)
      seeds.push_back(dsf::des::hash_seed(o.seed, i));
  return seeds;
}

/// --trace 0: untraced runs, cycling over the simulated seeds, until every
/// seed ran once and the budget is spent; then one traced pass of --seed
/// that must reproduce its untraced fingerprint.  Host times are medians
/// over all runs; peak RSS and the simulated metrics cover the first run
/// of every seed.
void end_to_end(const Options& o, const Config& config, Report& rep) {
  std::vector<Config> configs;
  for (std::uint64_t seed : simulated_seeds(o)) {
    configs.push_back(config);
    configs.back().seed = seed;
  }
  std::vector<Run> firsts;  // the first run of each seed
  std::vector<double> setups, runs, rates;
  double rss_mb = 0.0;
  const auto start = Clock::now();
  for (std::size_t n = 0;
       n < configs.size() || seconds_since(start) < o.seconds; ++n) {
    const std::size_t i = n % configs.size();
    Run run = run_once(configs[i], nullptr, perfbench::FingerprintFields::kAll);
    std::vector<std::string> extra;
    if (n >= configs.size() && run.fingerprint != firsts[i].fingerprint)
      extra.push_back("repeated run of the seed changed its fingerprint");
    rep.log_run("untraced seed=" + std::to_string(configs[i].seed), run,
                extra);
    setups.push_back(run.setup_s);
    runs.push_back(run.run_s);
    rates.push_back(ratio(static_cast<double>(run.result.events_executed),
                          run.run_s));
    // The peak over one run of each seed, taken before repeated runs can
    // grow the heap.
    if (n + 1 == configs.size()) rss_mb = peak_rss_mb();
    if (n < configs.size()) firsts.push_back(std::move(run));
  }
  while (setups.size() < kMinSetups) setups.push_back(setup_only(config));

  perfbench::HostClockSink sink(config.num_users, kMaxSample);
  const Run traced =
      run_once(traced_config(o, config), &sink, traced_fields(o));
  rep.log_run("traced seed=" + std::to_string(config.seed), traced,
              compare(firsts[0], traced));

  double queries = 0.0, hits = 0.0, messages = 0.0;
  dsf::metrics::Histogram delay = firsts[0].result.first_result_delay_hist;
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    const RunResult& r = firsts[i].result;
    queries += static_cast<double>(r.queries_issued);
    hits += static_cast<double>(r.hits_favorite + r.hits_side);
    messages += static_cast<double>(r.total_messages());
    if (i > 0) delay += r.first_result_delay_hist;
  }
  std::cout << "first_result samples " << delay.count() << ", beyond p99 "
            << delay.count() / 100 << '\n';
  rep.add("run_s", "s", median(runs));
  rep.add("setup_s", "s", median(setups));
  rep.add("events_per_s", "1/s", median(rates));
  rep.add("peak_rss_mb", "MB", rss_mb);
  rep.add("hit_ratio", "ratio", ratio(hits, queries));
  rep.add("query_msgs_per_query", "msgs/query", ratio(messages, queries));
  rep.add("first_result_ms_p50", "ms", 1e3 * delay.quantile(0.50));
  rep.add("first_result_ms_p99", "ms", 1e3 * delay.quantile(0.99));
}

/// Per-layer numbers of one traced run, taken while its simulation is
/// still alive.  Times are steady-clock seconds, the clock of the trace
/// spans; `untraced_wall_s` is the paired untraced run's run() time.
std::vector<Metric> layer_metrics(Simulation& sim, const Run& run,
                                  const perfbench::HostClockSink& sink,
                                  double untraced_wall_s) {
  const Config& c = sim.config();
  const RunResult& r = run.result;
  const double traced_s = run.run_wall_s;
  const auto events = static_cast<double>(r.events_executed);

  const std::size_t pending = sim.simulator().pending();
  const perfbench::Replay queue = perfbench::replay_event_queue(
      pending, r.events_executed, c.sim_hours * 3600.0, c.seed);

  // Median of three passes over the probe sample.
  std::uint64_t holders = 0;
  std::vector<perfbench::Replay> passes;
  for (int i = 0; i < 3; ++i)
    passes.push_back(
        perfbench::replay_pool(sim.libraries(), sink.sample(), holders));
  std::sort(passes.begin(), passes.end(),
            [](const auto& a, const auto& b) { return a.seconds < b.seconds; });
  const perfbench::Replay pool = passes[1];

  const perfbench::Replay plan =
      perfbench::replay_plan_update(sim, kMinPlanCalls);

  std::uint64_t spill = 0;
  for (std::uint32_t u = 0; u < c.num_users; ++u)
    spill += sim.libraries().size(u) - sim.libraries().base(u).size();

  using dsf::net::MessageType;
  const auto& ledger = sim.ledger();
  std::uint64_t control = 0;
  for (MessageType t : {MessageType::kPing, MessageType::kPong,
                        MessageType::kInvitation, MessageType::kInvitationReply,
                        MessageType::kEviction})
    control += ledger.stats().total(t);

  const double search_s = sink.search_host_s();
  const auto spans = static_cast<double>(sink.spans());
  const auto probes = static_cast<double>(sink.probes());
  const double queue_est_s = queue.ns_per_call() * events * 1e-9;
  const double pool_est_s = pool.ns_per_call() * probes * 1e-9;
  const double plan_est_s =
      plan.ns_per_call() * static_cast<double>(r.reconfigurations) * 1e-9;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"des.events", "count", events},
      {"des.pending_end", "count", n(pending)},
      {"des.replay_events", "count", n(queue.calls)},
      {"des.queue_ns_per_event", "ns", queue.ns_per_call()},
      {"des.queue_est_s", "s", queue_est_s},
      {"des.queue_share", "ratio", ratio(queue_est_s, traced_s)},
      {"core.search.spans", "count", spans},
      {"core.search.host_s", "s", search_s},
      {"core.search.share", "ratio", ratio(search_s, traced_s)},
      {"core.search.us_per_span", "us", 1e6 * ratio(search_s, spans)},
      {"core.search.copies_per_span", "count",
       ratio(n(sink.query_copies()), spans)},
      {"workload.pool.probes", "count", probes},
      {"workload.pool.sample", "count", n(pool.calls)},
      {"workload.pool.ns_per_probe", "ns", pool.ns_per_call()},
      {"workload.pool.holder_ratio", "ratio", ratio(n(holders), n(pool.calls))},
      {"workload.pool.est_s", "s", pool_est_s},
      {"workload.pool.share", "ratio", ratio(pool_est_s, traced_s)},
      {"workload.pool.spill_songs", "count", n(spill)},
      {"workload.pool.bytes", "bytes", n(sim.libraries().memory_bytes())},
      {"core.update.reconfigurations", "count", n(r.reconfigurations)},
      {"core.update.invitations_accepted", "count", n(r.invitations_accepted)},
      {"core.update.evictions", "count", n(r.evictions)},
      {"core.update.plan_calls", "count", n(plan.calls)},
      {"core.update.plan_ns", "ns", plan.ns_per_call()},
      {"core.update.plan_est_s", "s", plan_est_s},
      {"core.update.plan_share", "ratio", ratio(plan_est_s, traced_s)},
      {"core.update.nonsearch_s", "s", traced_s - search_s},
      {"net.query_msgs", "count", n(ledger.stats().total(MessageType::kQuery))},
      {"net.reply_msgs", "count",
       n(ledger.stats().total(MessageType::kQueryReply))},
      {"net.control_msgs", "count", n(control)},
      {"net.bytes", "bytes", n(ledger.total_bytes())},
      {"obs.records", "count", n(sink.records())},
      {"obs.traced_run_s", "s", traced_s},
      {"obs.trace_overhead", "ratio", ratio(traced_s, untraced_wall_s) - 1.0},
  };
}

/// Prints one traced run's coverage line: search spans plus the rest add
/// up to the traced run time, and the replay estimates as shares of it.
void print_coverage(const std::vector<Metric>& layers) {
  auto value = [&](std::string_view name) {
    for (const Metric& m : layers)
      if (m.name == name) return m.value;
    return 0.0;
  };
  const double traced_s = value("obs.traced_run_s");
  auto pct = [&](std::string_view name) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(1)
      << 100.0 * ratio(value(name), traced_s) << '%';
    return s.str();
  };
  std::cout << "coverage core.search.host_s " << value("core.search.host_s")
            << " s + core.update.nonsearch_s "
            << value("core.update.nonsearch_s") << " s = traced run_s "
            << traced_s << " s; replay estimates as shares of it: des.queue "
            << pct("des.queue_est_s") << ", workload.pool "
            << pct("workload.pool.est_s") << ", core.update.plan "
            << pct("core.update.plan_est_s") << '\n';
}

/// --trace 1: (untraced, traced) pairs for the whole budget; each traced
/// run is replayed layer by layer and the metrics are medians over pairs.
void per_layer(const Options& o, const Config& config, Report& rep) {
  std::vector<std::vector<Metric>> pairs;
  const auto start = Clock::now();
  do {
    const Run untraced =
        run_once(config, nullptr, perfbench::FingerprintFields::kAll);
    rep.log_run("untraced", untraced);
    perfbench::HostClockSink sink(config.num_users, kMaxSample);
    std::vector<Metric> layers;
    const Run traced =
        run_once(traced_config(o, config), &sink, traced_fields(o),
                 [&](Simulation& sim, const Run& run) {
                   layers =
                       layer_metrics(sim, run, sink, untraced.run_wall_s);
                 });
    rep.log_run("traced", traced, compare(untraced, traced));
    print_coverage(layers);
    pairs.push_back(std::move(layers));
  } while (seconds_since(start) < o.seconds);

  for (std::size_t i = 0; i < pairs.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& p : pairs) values.push_back(p[i].value);
    rep.add(pairs.front()[i].name, pairs.front()[i].unit, median(values));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Config config = o.workload->make(o.seed);
  Report rep(o);
  rep.manifest(config, simulated_seeds(o));
  try {
    if (o.trace)
      per_layer(o, config, rep);
    else
      end_to_end(o, config, rep);
  } catch (const std::exception& e) {
    std::cerr << "dsf_perfbench: " << e.what() << '\n';
    return 3;
  }
  return rep.finish();
}
