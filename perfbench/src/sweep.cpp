// sweep: the Sec. V figure sweep.  Fig. 3-style random trees (every node a
// member) and Fig. 4-style sparse sessions on a 1000-node bounded-degree
// tree; each trial builds a fresh world, drops one packet on a random link
// of the source's tree, and runs request/repair recovery with oracle
// distances to completion.  World construction and the suppression timers
// do the work; the session estimator, the parallel kernel and the fault
// layer do none.
#include <memory>
#include <numeric>

#include "harness/replication.h"
#include "harness/scenario.h"
#include "net/drop_policy.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kFig3TrialsPerSize = 12;
constexpr std::size_t kFig4TrialsPerSize = 6;
constexpr std::size_t kFig4Nodes = 1000;
// The trial worlds are drawn once from this constant; the run's seed drives
// the protocol's own randomness (README.md, "Seeds").
constexpr std::uint64_t kScenarioSeed = 42;

struct TrialPlan {
  bool fig4 = false;
  std::size_t size = 0;            // N (fig3) or G (fig4)
  std::uint64_t scenario_seed = 0;  // topology, members, source, link
  std::uint64_t session_seed = 0;   // the agents' timer draws
};

std::vector<TrialPlan> make_plan(std::uint64_t seed) {
  srm::util::Rng scenario(kScenarioSeed);
  srm::util::Rng session(seed);
  std::vector<TrialPlan> plan;
  for (std::size_t n = 10; n <= 100; n += 10) {
    for (std::size_t t = 0; t < kFig3TrialsPerSize; ++t) {
      plan.push_back({false, n, scenario.next_u64(), session.next_u64()});
    }
  }
  for (std::size_t g = 10; g <= 100; g += 10) {
    for (std::size_t t = 0; t < kFig4TrialsPerSize; ++t) {
      plan.push_back({true, g, scenario.next_u64(), session.next_u64()});
    }
  }
  return plan;
}

// The paper's simulator settings (Sec. VII-A: backoff factor 3).
srm::SrmConfig paper_config(std::size_t group_size) {
  srm::SrmConfig cfg;
  cfg.timers = srm::paper_fixed_params(group_size);
  cfg.backoff_factor = 3.0;
  return cfg;
}

void run_trial(const TrialPlan& t, const RepOptions& opts, RepResult& r) {
  namespace net = srm::net;
  srm::util::Rng rng(t.scenario_seed);
  // Declared before the session so they outlive it.
  TraceCapture capture;
  srm::trace::Tracer tracer;
  StoryBook stories;

  net::Topology topo;
  {
    ScopedSpan span(r.spans, "topo.build");
    topo = t.fig4 ? srm::topo::make_bounded_degree_tree(kFig4Nodes, 4)
                  : srm::topo::make_random_tree(t.size, rng);
  }
  std::vector<net::NodeId> members;
  net::NodeId source = 0;
  srm::harness::DirectedLink congested{0, 0};
  std::vector<net::NodeId> affected;
  Counts trial;
  {
    ScopedSpan span(r.spans, "harness.scenario");
    if (t.fig4) {
      members = srm::harness::choose_members(kFig4Nodes, t.size, rng);
    } else {
      members.resize(t.size);
      std::iota(members.begin(), members.end(), net::NodeId{0});
    }
    source = members[rng.index(members.size())];
    net::Routing routing(topo);
    congested =
        srm::harness::choose_congested_link(routing, source, members, rng);
    affected =
        srm::harness::affected_members(routing, source, congested, members);
    add_routing_stats(routing.stats(), trial);
  }
  std::unique_ptr<srm::harness::SimSession> session;
  {
    ScopedSpan span(r.spans, "harness.session_build");
    srm::harness::SimSession::Options options;
    options.srm = paper_config(t.size);
    options.seed = t.session_seed;
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

  srm::SrmAgent& src = session->agent_at(source);
  const srm::PageId page{src.id(), 0};
  const srm::DataName dropped{src.id(), page, 0};
  auto drop = std::make_shared<net::ScriptedLinkDrop>(
      congested.from, congested.to, [dropped](const net::Packet& p) {
        const auto* d = dynamic_cast<const srm::DataMessage*>(p.payload.get());
        return d != nullptr && d->name() == dropped;
      });
  session->network().set_drop_policy(drop);
  src.send_data(page, srm::Payload{0xAB});
  session->queue().schedule_after(
      1.0, [&src, page] { src.send_data(page, srm::Payload{0xCD}); });
  {
    ScopedSpan span(r.spans, "sim.run");
    const double t0 = now_s();
    trial.sim_events += session->run();
    r.sim_run_s += now_s() - t0;
  }
  session->network().set_drop_policy(nullptr);

  r.check(drop->drops_so_far() == 1, "sweep: scripted loss not dropped once");
  std::uint64_t missing = 0;
  for (net::NodeId m : affected) {
    if (!session->agent_at(m).has_data(dropped)) ++missing;
  }
  r.check_many(affected.size(), missing, "sweep: affected members unrepaired");
  trial.stories = stories.distinct();
  add_session_counts(*session, trial);
  r.check_many(trial.losses, trial.losses - trial.recoveries,
               "sweep: losses not recovered");
  probe.add_to(r);
  if (opts.traced) {
    const TraceCounts& tc = capture.counts();
    r.trace.sim += tc.sim;
    r.trace.net += tc.net;
    r.trace.srm += tc.srm;
    r.trace.fault += tc.fault;
    const Folded folded =
        fold_stream(capture.kept(), {}, session->now(), {}, r);
    r.check(folded.timeline.total_requests() == trial.requests &&
                folded.timeline.total_repairs() == trial.repairs,
            "sweep: trace fold disagrees with agent counters");
  }
  r.counts.add(trial);
}

}  // namespace

RepResult run_sweep(const RepOptions& opts) {
  RepResult r(opts.traced);
  r.setup_s = time_cheap_setup([&opts] { (void)make_plan(opts.seed); });
  const std::vector<TrialPlan> plan = make_plan(opts.seed);

  const double t0 = now_s();
  {
    ScopedSpan span(r.spans, "workload.sweep");
    // One replication thread: the sweep is timed single-threaded.
    const srm::harness::ReplicationRunner runner(1);
    runner.map<char>(plan.size(), [&](std::size_t i) {
      run_trial(plan[i], opts, r);
      return char{0};
    });
  }
  r.run_s = now_s() - t0;
  return r;
}

}  // namespace perfbench
