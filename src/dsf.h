#pragma once

// DSF — Distributed Search Framework
// ===================================
//
// Umbrella header: pulls in the full public API.  Individual modules are
// cheap to include on their own; this exists for quick experiments and
// for documentation tooling.
//
// Layering (lower layers never include higher ones):
//
//   des/        discrete-event engine, RNG, distributions, sweeps
//   net/        node ids, bandwidth/delay model, messages, Bloom digests
//   metrics/    series, summaries, tables, CSV/JSON, replication CIs
//   workload/   the paper's synthetic content & behaviour models
//   core/       the framework itself (relations, search, exploration,
//               neighbor update, benefit functions, graph statistics)
//   gnutella/   §4 case study           (symmetric relations)
//   webcache/   Squid-like proxies       (pure asymmetric; hierarchy)
//   olap/       PeerOlap-like chunk cache (asymmetric)
//   diglib/     digital-library federation (all-to-all vs bounded)
//
// Entry points:
//   * run a packaged scenario: gnutella::Simulation, webcache::WebCacheSim,
//     olap::OlapSim, diglib::DigLibSim — construct from a Config, call
//     run(), read the result struct.
//   * build your own repository type: start from examples/custom_policy.cpp
//     and the four core primitives (NeighborTable, flood_search,
//     StatsStore, plan_update/decide_invitation).

// Substrates
#include "des/distributions.h"
#include "des/event_queue.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "des/sweep.h"
#include "metrics/csv.h"
#include "metrics/json.h"
#include "metrics/replication.h"
#include "metrics/table.h"
#include "metrics/time_series.h"
#include "net/bandwidth.h"
#include "net/bloom.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "net/node_id.h"

// The framework
#include "core/benefit.h"
#include "core/event_flood.h"
#include "core/flood_search.h"
#include "core/graph_stats.h"
#include "core/relations.h"
#include "core/search_strategies.h"
#include "core/stats_store.h"
#include "core/update.h"
#include "core/visit_stamp.h"

// Workload models
#include "workload/catalog.h"
#include "workload/library.h"
#include "workload/query_gen.h"
#include "workload/session.h"
#include "workload/user_profile.h"

// Scenarios
#include "diglib/diglib_sim.h"
#include "gnutella/config.h"
#include "gnutella/simulation.h"
#include "olap/olap_sim.h"
#include "webcache/lru_cache.h"
#include "webcache/webcache_sim.h"
