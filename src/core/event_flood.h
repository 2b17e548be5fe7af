#pragma once

// Message-level reference implementation of the query flood: every
// transmission is a discrete event on a Simulator.  This exists to
// validate the eager expansion of flood_search() (DESIGN.md §1.4): with a
// deterministic delay function the two produce identical message counts,
// hit sets and reply times.  The eager version is what the experiment
// harness uses (it is ~50× faster); this one is the ground truth the
// equivalence tests compare against, and a template for users who need
// queries that interact mid-flight.  It models a reliable network only,
// so it takes no transport: the tests compare it with flood_search under
// core::ReliableTransmit.
//
// The fan-out follows the batched DES dispatch contract (DESIGN.md §1.5):
// one node's expansion counts and stamps every neighbor first, then issues
// a single bulk insertion into the event queue.  Each scheduled hop
// captures a raw pointer to the flood context — which lives on the
// caller's stack for the whole drain — plus the hop coordinates, 32 bytes
// in total, so steady-state flooding never touches the heap allocator for
// callbacks.

#include <utility>
#include <vector>

#include "core/flood_search.h"
#include "des/simulator.h"

namespace dsf::core {

/// Runs one query flood by scheduling each hop as a simulator event,
/// starting at the simulator's current time.  Returns when the simulator
/// drains (the caller's simulator must not hold unrelated events).
/// Semantics mirror flood_search: forward to every neighbor except the
/// sender, duplicates counted-then-discarded, holders reply directly to
/// the initiator and do not forward unless `forward_when_hit`.
template <typename NeighborsFn, typename HasContentFn, typename DelayFn>
SearchOutcome event_flood_search(des::Simulator& sim, net::NodeId initiator,
                                 const SearchParams& params,
                                 NeighborsFn&& neighbors,
                                 HasContentFn&& has_content, DelayFn&& delay,
                                 VisitStamp& stamps) {
  // All flood state lives in this frame: sim.run() below drains every
  // scheduled hop before the function returns, so events reference the
  // context by plain pointer instead of a shared_ptr copy per hop.
  struct Ctx {
    des::Simulator& sim;
    const SearchParams& params;
    NeighborsFn& neighbors;
    HasContentFn& has_content;
    DelayFn& delay;
    VisitStamp& stamps;
    net::NodeId initiator;
    double start;
    SearchOutcome out;

    /// One expansion's accepted deliveries, gathered before the bulk
    /// schedule.  Reused across expansions: send_from never recurses (it
    /// only schedules future events), so one buffer suffices.
    struct Pending {
      net::NodeId nbr;
      double arrival;
    };
    std::vector<Pending> fanout;

    void send_from(net::NodeId node, net::NodeId sender, int hop,
                   double now_rel) {
      if (hop >= params.max_hops) return;
      fanout.clear();
      for (net::NodeId nbr : neighbors(node)) {
        if (nbr == sender) continue;
        ++out.query_messages;
        if (!stamps.mark(nbr)) continue;  // counted, but receiver will drop
        const double arrival = now_rel + delay(node, nbr);
        ++out.nodes_reached;
        fanout.push_back({nbr, arrival});
      }
      const int next_hop = hop + 1;
      Ctx* ctx = this;
      sim.schedule_at_batch(fanout.size(), [&](std::size_t i) {
        const Pending p = fanout[i];
        auto hop_cb = [ctx, p, node, next_hop] {
          ctx->arrive(p.nbr, node, next_hop, p.arrival);
        };
        static_assert(des::Callback::stores_inline<decltype(hop_cb)>(),
                      "event-flood hop capture must fit the callback SBO");
        return std::pair<des::SimTime, des::Callback>(start + p.arrival,
                                                      std::move(hop_cb));
      });
    }

    void arrive(net::NodeId node, net::NodeId sender, int hop,
                double arrival) {
      bool forward = true;
      if (has_content(node)) {
        const double reply_at = arrival + delay(node, initiator);
        if (reply_at <= params.timeout_s) {
          ++out.reply_messages;
          out.hits.push_back({node, hop, arrival, reply_at});
        }
        if (!params.forward_when_hit) forward = false;
      }
      if (forward) send_from(node, sender, hop, arrival);
    }
  };

  Ctx ctx{sim,    params,    neighbors, has_content, delay,
          stamps, initiator, sim.now(), {},          {}};
  ctx.stamps.begin_search();
  ctx.stamps.mark(initiator);
  ctx.send_from(initiator, net::kInvalidNode, 0, 0.0);
  sim.run();
  return ctx.out;
}

}  // namespace dsf::core
