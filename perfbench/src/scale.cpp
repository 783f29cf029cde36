// scale: a hierarchical session (Sec. IX-A) of 4900 members on a tree of
// 70 LANs, one area per LAN.  Set-up builds the world and runs one warm-up
// report interval; the measured phase is one more interval of local and
// representative reports with a few scripted data losses, recovered with
// estimated distances.  The distance estimator, the member index, the
// hierarchy's timer wheel and multicast fan-out do nearly all the work and
// hold nearly all the memory.
#include <cmath>
#include <memory>

#include "harness/scenario.h"
#include "net/drop_policy.h"
#include "srm/session_hierarchy.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kLans = 70;
constexpr std::size_t kHostsPerLan = 70;
constexpr int kDegree = 4;
constexpr double kBackboneDelay = 0.02;
constexpr double kLanDelay = 0.002;
constexpr double kInterval = 10.0;
constexpr std::size_t kLossSources = 8;
// Loss sources and links are drawn from this constant; the run's seed drives
// the protocol's own randomness (README.md, "Seeds").
constexpr std::uint64_t kScenarioSeed = 42;

struct Loss {
  srm::net::NodeId source = 0;
  srm::harness::DirectedLink congested{0, 0};
  std::vector<srm::net::NodeId> affected;
  std::shared_ptr<srm::net::ScriptedLinkDrop> drop;
};

}  // namespace

RepResult run_scale(const RepOptions& opts) {
  namespace net = srm::net;
  RepResult r(opts.traced);
  TraceCapture capture;
  srm::trace::Tracer tracer;
  StoryBook stories;
  Counts& c = r.counts;

  const double setup_start = now_s();
  const int root = r.spans.open("workload.scale");
  srm::topo::TreeOfLans tl;
  {
    ScopedSpan span(r.spans, "topo.build");
    tl = srm::topo::make_tree_of_lans(kLans, kDegree, kHostsPerLan,
                                      kBackboneDelay, kLanDelay);
  }
  const std::vector<net::NodeId> members = tl.workstations;
  std::vector<bool> is_router(tl.topo.node_count(), false);
  for (net::NodeId n : tl.routers) is_router[n] = true;
  std::unique_ptr<srm::harness::SimSession> session;
  {
    ScopedSpan span(r.spans, "harness.session_build");
    srm::harness::SimSession::Options options;
    options.srm.timers = srm::paper_fixed_params(members.size());
    options.srm.backoff_factor = 3.0;
    options.srm.distance_mode = srm::DistanceMode::kEstimated;
    options.srm.hierarchy.enabled = true;
    options.srm.hierarchy.local_ttl = 2;
    options.srm.hierarchy.report_interval = kInterval;
    options.srm.hierarchy.areas = static_cast<std::uint32_t>(kLans);
    options.seed = opts.seed;
    session = std::make_unique<srm::harness::SimSession>(std::move(tl.topo),
                                                         members, options);
  }
  stories.attach_all(*session);
  if (opts.traced) {
    tracer.set_mask(srm::trace::kMaskAll);
    tracer.set_sink(&capture);
    session->set_tracer(&tracer);
  }
  NetProbe probe(*session, opts);
  {
    ScopedSpan span(r.spans, "sim.run");
    const double t0 = now_s();
    c.sim_events += session->run_until(kInterval);  // warm-up interval
    r.sim_run_s += now_s() - t0;
  }
  std::vector<Loss> losses(kLossSources);
  auto drops = std::make_shared<net::CompositeDrop>();
  {
    ScopedSpan span(r.spans, "harness.scenario");
    srm::util::Rng rng(kScenarioSeed);
    for (std::size_t i = 0; i < losses.size(); ++i) {
      Loss& loss = losses[i];
      bool fresh = false;
      while (!fresh) {  // distinct sources, one scripted loss each
        loss.source = members[rng.index(members.size())];
        fresh = true;
        for (std::size_t j = 0; j < i; ++j) {
          fresh = fresh && losses[j].source != loss.source;
        }
      }
      // A backbone link of the source's tree (its head is a router), so
      // each loss reaches a whole subtree of LANs.
      std::vector<srm::harness::DirectedLink> backbone;
      for (const auto& l : srm::harness::multicast_tree_links(
               session->network().routing(), loss.source, members)) {
        if (is_router[l.to]) backbone.push_back(l);
      }
      loss.congested = backbone[rng.index(backbone.size())];
      loss.affected = srm::harness::affected_members(
          session->network().routing(), loss.source, loss.congested, members);
      const srm::DataName dropped{static_cast<srm::SourceId>(loss.source),
                                  srm::PageId{loss.source, 0}, 0};
      loss.drop = std::make_shared<net::ScriptedLinkDrop>(
          loss.congested.from, loss.congested.to,
          [dropped](const net::Packet& p) {
            const auto* d =
                dynamic_cast<const srm::DataMessage*>(p.payload.get());
            return d != nullptr && d->name() == dropped;
          });
      drops->add(loss.drop);
    }
  }
  session->network().set_drop_policy(drops);
  r.setup_s.push_back(now_s() - setup_start);

  const double run_start = now_s();
  const double t_loss = session->now() + 0.5;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    srm::SrmAgent& src = session->agent_at(losses[i].source);
    const double at = t_loss + 0.1 * static_cast<double>(i);
    session->queue().schedule_at(at, [&src] {
      src.send_data(srm::PageId{src.id(), 0}, srm::Payload{0xAB});
    });
    session->queue().schedule_at(at + 1.0, [&src] {
      src.send_data(srm::PageId{src.id(), 0}, srm::Payload{0xCD});
    });
  }
  {
    ScopedSpan span(r.spans, "sim.run");
    const double t0 = now_s();
    c.sim_events += session->run_until(2.0 * kInterval);
    r.sim_run_s += now_s() - t0;
  }
  r.run_s = now_s() - run_start;
  session->network().set_drop_policy(nullptr);
  r.spans.close(root);

  for (const Loss& loss : losses) {
    const srm::DataName dropped{static_cast<srm::SourceId>(loss.source),
                                srm::PageId{loss.source, 0}, 0};
    r.check(loss.drop->drops_so_far() == 1,
            "scale: scripted loss not dropped once");
    std::uint64_t missing = 0;
    for (net::NodeId m : loss.affected) {
      if (!session->agent_at(m).has_data(dropped)) ++missing;
    }
    r.check_many(loss.affected.size(), missing,
                 "scale: affected members unrepaired");
  }
  c.stories = stories.distinct();
  add_session_counts(*session, c);
  r.check_many(c.losses, c.losses - c.recoveries, "scale: losses not recovered");
  probe.add_to(r);

  const srm::SessionHierarchy& hier = *session->hierarchy();
  r.layer["srm.session.reports"] = {
      static_cast<double>(hier.local_reports_sent() +
                          hier.global_reports_sent()),
      "count"};
  r.layer["srm.session.wheel_buckets"] = {
      static_cast<double>(hier.pending_wheel_buckets()), "count"};
  if (opts.traced) {
    double heard = 0.0;
    session->for_each_agent([&heard](srm::SrmAgent& a) {
      heard += static_cast<double>(a.estimator().peers_heard());
    });
    r.layer["srm.session.peers_heard_mean"] = {
        heard / static_cast<double>(session->member_count()), "count"};
    // Estimated vs true one-way distance to each loss source.
    std::vector<double> errors;
    for (const Loss& loss : losses) {
      const auto id = static_cast<srm::SourceId>(loss.source);
      session->for_each_agent([&](srm::SrmAgent& a) {
        if (a.id() == id) return;
        const double truth =
            session->network().try_distance(loss.source, a.node());
        if (!(truth > 0.0) || std::isinf(truth)) return;
        errors.push_back(std::abs(a.distance_to(id) - truth) / truth);
      });
    }
    r.layer["srm.session.distance_error_p50"] = {quantile(errors, 0.5),
                                                 "ratio"};
    r.trace = capture.counts();
    const Folded folded =
        fold_stream(capture.kept(), {}, session->now(), {}, r);
    r.check(folded.timeline.total_requests() == c.requests &&
                folded.timeline.total_repairs() == c.repairs,
            "scale: trace fold disagrees with agent counters");
  }
  return r;
}

}  // namespace perfbench
