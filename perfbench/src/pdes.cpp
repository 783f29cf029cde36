// pdes: the stochastic scenario of bench/pdes_kernel on the parallel
// kernel.  300 members of a 1500-node bounded-degree tree, 8 sources of 40
// packets each, a scripted congested link per source, and a FaultPlan with
// two keyed Gilbert-Elliott burst epochs and one link flap near the root,
// on a fixed map of 8 regions.  The only workload that runs PDES windows,
// cross-region mail, keyed drop draws, the FaultInjector and journal routing
// repairs.
#include <algorithm>
#include <memory>
#include <numeric>

#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/scenario.h"
#include "net/drop_policy.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 1500;
constexpr std::size_t kMembers = 300;
constexpr std::size_t kSources = 8;
constexpr std::size_t kPackets = 40;
// One worker: the region/window machinery without thread-scheduling noise
// (README.md, "Noise discipline"); the traced run also times two workers.
constexpr unsigned kKernelThreads = 1;
constexpr std::uint32_t kKernelRegions = 8;
// Members, sources, congested links and the burst epochs' keyed loss chains
// are drawn from this constant; the run's seed drives the protocol's own
// randomness (README.md, "Seeds").
constexpr std::uint64_t kScenarioSeed = 7;

srm::fault::FaultPlan make_fault_plan(const srm::net::Topology& topo) {
  srm::net::GilbertElliottDrop::Params burst;
  burst.p_good_bad = 0.02;  // rare, short bursts: recovery still terminates
  burst.p_bad_good = 0.5;
  srm::fault::FaultPlan plan;
  plan.burst_on(2.0, burst).burst_off(6.0);
  plan.burst_on(8.0, burst).burst_off(11.0);
  // One flap of the link under the root's first child (a quarter of the
  // tree).
  const srm::net::LinkId flapped = topo.link_between(0, 1);
  plan.link_down(4.0, flapped).link_up(5.0, flapped);
  return plan;
}

}  // namespace

RepResult run_pdes(const RepOptions& opts) {
  namespace net = srm::net;
  RepResult r(opts.traced);
  TraceCapture capture;
  srm::trace::Tracer tracer;
  StoryBook stories;
  Counts& c = r.counts;

  const double setup_start = now_s();
  const int root = r.spans.open("workload.pdes");
  net::Topology topo;
  {
    ScopedSpan span(r.spans, "topo.build");
    topo = srm::topo::make_bounded_degree_tree(kNodes, 4);
  }
  std::vector<net::NodeId> members;
  std::vector<net::NodeId> sources;
  std::vector<srm::harness::DirectedLink> congested;
  {
    ScopedSpan span(r.spans, "harness.scenario");
    srm::util::Rng rng(kScenarioSeed);
    std::vector<net::NodeId> all(kNodes);
    std::iota(all.begin(), all.end(), net::NodeId{0});
    rng.shuffle(all);
    members.assign(all.begin(), all.begin() + kMembers);
    std::sort(members.begin(), members.end());
    sources.assign(members.begin(), members.begin() + kSources);
    net::Routing routing(topo);
    for (net::NodeId src : sources) {
      congested.push_back(
          srm::harness::choose_congested_link(routing, src, members, rng));
    }
    add_routing_stats(routing.stats(), c);
  }
  const srm::fault::FaultPlan plan = make_fault_plan(topo);
  std::unique_ptr<srm::harness::SimSession> session;
  {
    ScopedSpan span(r.spans, "harness.session_build");
    srm::harness::SimSession::Options options;
    options.srm.timers = srm::paper_fixed_params(kMembers);
    options.srm.backoff_factor = 3.0;
    options.seed = opts.seed;
    options.kernel_threads = opts.kernel_threads >= 0
                                 ? static_cast<unsigned>(opts.kernel_threads)
                                 : kKernelThreads;
    options.kernel_regions = kKernelRegions;
    session = std::make_unique<srm::harness::SimSession>(std::move(topo),
                                                         members, options);
  }
  stories.attach_all(*session);
  if (opts.traced) {
    tracer.set_mask(srm::trace::kMaskAll);
    tracer.set_sink(&capture);
    session->set_tracer(&tracer);
  }
  NetProbe probe(*session, opts);

  // Every 4th packet of each source is dropped once on its congested link;
  // the predicate is a pure function of the packet, so the drop set does not
  // depend on how regions interleave.
  auto drops = std::make_shared<net::CompositeDrop>();
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const auto id = static_cast<srm::SourceId>(sources[s]);
    drops->add(std::make_shared<net::ScriptedLinkDrop>(
        congested[s].from, congested[s].to,
        [id](const net::Packet& p) {
          const auto* d =
              dynamic_cast<const srm::DataMessage*>(p.payload.get());
          return d != nullptr && d->name().page.creator == id &&
                 d->name().seq % 4 == 0;
        },
        /*max_drops=*/std::size_t{1} << 30));
  }
  session->network().set_drop_policy(drops);
  srm::fault::FaultInjector injector(session->queue(),
                                     session->mutable_topology(),
                                     session->network(), plan,
                                     srm::util::Rng(kScenarioSeed));
  injector.set_tracer(session->control_tracer());
  injector.arm();
  // Sends are scheduled on the global queue, as today's public API allows;
  // each one is a serialized global phase (see README.md).
  for (std::size_t s = 0; s < sources.size(); ++s) {
    srm::SrmAgent& agent = session->agent_at(sources[s]);
    for (std::size_t i = 0; i < kPackets; ++i) {
      const double when =
          1.0 + static_cast<double>(s) * 0.04 + static_cast<double>(i) * 0.25;
      session->queue().schedule_at(when, [&agent, s] {
        agent.send_data(srm::PageId{agent.id(), 0},
                        srm::Payload{static_cast<std::uint8_t>(s)});
      });
    }
  }
  r.setup_s.push_back(now_s() - setup_start);

  const double run_start = now_s();
  {
    ScopedSpan span(r.spans, "sim.run");
    c.sim_events += session->run();
  }
  r.run_s = r.sim_run_s = now_s() - run_start;
  r.spans.close(root);
  session->network().set_drop_policy(nullptr);

  c.stories = stories.distinct();
  add_session_counts(*session, c);
  r.check_many(c.losses, c.losses - c.recoveries, "pdes: losses not recovered");
  probe.add_to(r);
  add_kernel_stats(*session, r);

  const auto& fs = injector.stats();
  r.layer["fault.plan_events"] = {
      static_cast<double>(fs.links_taken_down + fs.links_brought_up +
                          fs.burst_epochs),
      "count"};
  r.check(fs.links_taken_down == 1 && fs.links_brought_up == 1 &&
              fs.burst_epochs == 2,
          "pdes: fault plan not applied");
  if (opts.traced) {
    r.trace = capture.counts();
    const Folded folded = fold_stream(
        capture.kept(), injector.disruption_windows(), session->now(), {}, r);
    r.check(folded.timeline.total_requests() == c.requests &&
                folded.timeline.total_repairs() == c.repairs,
            "pdes: trace fold disagrees with agent counters");
  }
  return r;
}

}  // namespace perfbench
