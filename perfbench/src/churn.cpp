// churn: the workload layer's diurnal generator at ~400 peak members run
// through run_workload_sim: a join wave with late-join page-state recovery,
// graceful leaves and crashes under a steady stream.  Many repairs per loss
// come from late joiners, and the runner buffers the srm trace and folds it
// into its checker and timeline.  The estimator and the kernel sit idle.
//
// run_workload_sim keeps its world and its trace private, so the traced rep
// replays the same spec on a SimSession built the way the runner builds
// its own, and checks that the replay reproduces the runner's fingerprint
// before any of its per-layer numbers are reported.
#include <memory>
#include <sstream>

#include "harness/session.h"
#include "srm/messages.h"
#include "topo/builders.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kPeakMembers = 400;
// The action script is generated from this constant; the run's seed is the
// session's seed, which drives the protocol's randomness (README.md,
// "Seeds").
constexpr std::uint64_t kScenarioSeed = 42;

using srm::workload::Action;
using srm::workload::WorkloadSpec;

// The runner's receive-side drop rules (kDropOnce), keyed by receiving node.
class DropScript {
 public:
  void arm(srm::net::NodeId node, const Action& a) {
    rules_.push_back({node, a.drop_kind, a.drop_seq, a.drop_source,
                      a.drop_count});
  }

  bool should_drop(srm::net::NodeId receiver, const srm::net::Packet& p) {
    if (rules_.empty() || !p.payload) return false;
    const std::uint32_t kind = p.payload->trace_kind();
    srm::DataName name;
    if (kind == 1) {
      name = static_cast<const srm::DataMessage&>(*p.payload).name();
    } else if (kind == 2) {
      name = static_cast<const srm::RequestMessage&>(*p.payload).name();
    } else if (kind == 3) {
      name = static_cast<const srm::RepairMessage&>(*p.payload).name();
    } else {
      return false;
    }
    for (Rule& rule : rules_) {
      if (rule.remaining == 0 || rule.node != receiver || rule.kind != kind ||
          rule.seq != name.seq) {
        continue;
      }
      if (rule.source != srm::kInvalidSource && rule.source != name.source) {
        continue;
      }
      --rule.remaining;
      ++fired_;
      return true;
    }
    return false;
  }

  std::size_t fired() const { return fired_; }

 private:
  struct Rule {
    srm::net::NodeId node;
    std::uint32_t kind;
    srm::SeqNo seq;
    srm::SourceId source;
    std::size_t remaining;
  };
  std::vector<Rule> rules_;
  std::size_t fired_ = 0;
};

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

// Replays `spec` and checks the replay's fingerprint against the runner's.
// A traced replay also adds its per-layer numbers to r.layer; a codec replay
// round-trips every transmission.  Returns the seconds spent in run_until.
double replay(const WorkloadSpec& spec,
              const srm::workload::WorkloadResult& ran,
              const RepOptions& opts, RepResult& r) {
  namespace net = srm::net;
  // The runner traces the srm category; the traced replay adds the rest.
  TraceCapture capture;
  srm::trace::Tracer tracer;
  tracer.set_mask(opts.traced
                      ? srm::trace::kMaskAll
                      : static_cast<std::uint32_t>(srm::trace::Category::kSrm));
  tracer.set_sink(&capture);
  DropScript script;

  srm::topo::Star star;
  {
    ScopedSpan span(r.spans, "topo.build");
    star = srm::topo::make_star(spec.peak_members, 0.01);
  }
  std::unique_ptr<srm::harness::SimSession> session;
  const auto install_filter = [&script](srm::SrmAgent& agent) {
    agent.transport().set_receive_filter(
        [&script](const net::Packet& p, const net::DeliveryInfo& info) {
          return script.should_drop(info.receiver, p);
        });
  };
  {
    ScopedSpan span(r.spans, "harness.session_build");
    srm::harness::SimSession::Options options;
    options.srm = spec.config;
    options.seed = spec.seed;
    options.group = 1;
    std::vector<net::NodeId> initial(
        star.leaves.begin(),
        star.leaves.begin() + static_cast<long>(spec.initial_members));
    session = std::make_unique<srm::harness::SimSession>(star.topo, initial,
                                                         options);
    session->set_tracer(&tracer);
    for (net::NodeId node : initial) install_filter(session->agent_at(node));
  }
  NetProbe probe(*session, opts);

  std::size_t sent = 0, joins = 0, departures = 0;
  srm::harness::SimSession& s = *session;
  for (const Action& action : spec.actions) {
    s.queue().schedule_at(action.at, [&, action] {
      const net::NodeId node = star.leaves.at(action.member);
      srm::SrmAgent* agent = s.has_member(node) ? &s.agent_at(node) : nullptr;
      switch (action.kind) {
        case Action::Kind::kSend:
          if (agent) {
            agent->send_data(action.page,
                             srm::Payload(action.payload_bytes,
                                          static_cast<std::uint8_t>(
                                              action.member)));
            ++sent;
          }
          break;
        case Action::Kind::kJoin:
          if (!agent) {
            install_filter(s.add_member(node));
            ++joins;
          }
          break;
        case Action::Kind::kLeave:
        case Action::Kind::kCrash:
          if (agent) {
            s.remove_member(node, action.kind == Action::Kind::kLeave);
            ++departures;
          }
          break;
        case Action::Kind::kDropOnce: {
          Action armed = action;
          if (armed.drop_source != srm::kInvalidSource) {
            armed.drop_source = star.leaves.at(armed.drop_source);
          }
          script.arm(node, armed);
          break;
        }
        case Action::Kind::kPageProbe:
          if (agent) agent->request_page_state(action.page);
          break;
      }
    });
  }
  std::uint64_t events = 0;
  double sim_s = 0.0;
  {
    ScopedSpan span(r.spans, "sim.run");
    const double t0 = now_s();
    events = s.run_until(spec.duration);
    sim_s = now_s() - t0;
  }
  probe.add_to(r);

  const Folded folded = fold_stream(capture.kept(), {}, spec.duration,
                                    spec.checker, r);
  std::ostringstream digest;
  digest << spec.name << "|" << spec.seed;
  for (const auto& story : folded.timeline.stories()) {
    digest << "|" << srm::trace::to_string(story.adu) << ":"
           << story.detections << "," << story.requests_sent << ","
           << story.request_backoffs << "," << story.repairs_sent << ","
           << story.repair_suppressions << "," << story.recoveries << ","
           << story.abandoned << "," << story.first_detector << ","
           << story.first_requestor << "," << story.first_responder;
  }
  digest << "|sent=" << sent << " joins=" << joins
         << " departures=" << departures << " drops=" << script.fired();
  r.check(fnv1a64(digest.str()) == ran.fingerprint,
          "churn: replay does not reproduce the runner's fingerprint");
  if (!opts.traced) return sim_s;

  // The replay's own counters, in the names the other workloads report.
  Counts counts;
  add_session_counts(s, counts);
  const auto put = [&r](const char* name, double v, const char* unit) {
    r.layer[name] = {v, unit};
  };
  put("sim.events", static_cast<double>(events), "count");
  put("net.deliveries", static_cast<double>(counts.net.deliveries), "count");
  put("net.link_transmissions",
      static_cast<double>(counts.net.link_transmissions), "count");
  put("net.drops", static_cast<double>(counts.net.drops), "count");
  put("net.multicasts_sent", static_cast<double>(counts.net.multicasts_sent),
      "count");
  put("net.in_flight_invalidated",
      static_cast<double>(counts.net.in_flight_invalidated), "count");
  put("net.routing.full_builds", static_cast<double>(counts.routing_full_builds),
      "count");
  put("net.routing.repairs", static_cast<double>(counts.routing_repairs),
      "count");
  put("net.routing.fallbacks", static_cast<double>(counts.routing_fallbacks),
      "count");
  // Agents that departed took their metrics with them; the timeline holds
  // every member's sends.
  put("srm.requests", static_cast<double>(folded.timeline.total_requests()),
      "count");
  put("srm.repairs", static_cast<double>(folded.timeline.total_repairs()),
      "count");
  put("srm.dup_requests_heard", static_cast<double>(counts.dup_requests_heard),
      "count");
  put("srm.dup_repairs_heard", static_cast<double>(counts.dup_repairs_heard),
      "count");
  r.trace = capture.counts();
  return sim_s;
}

}  // namespace

RepResult run_churn(const RepOptions& opts) {
  RepResult r(opts.traced);
  WorkloadSpec spec;
  const auto generate = [&spec, &opts] {
    spec = srm::workload::make_diurnal(kPeakMembers, kScenarioSeed);
    spec.seed = opts.seed;
  };
  r.setup_s = time_cheap_setup(generate);
  if (opts.traced) {
    ScopedSpan span(r.spans, "workload.generate");
    generate();
  }

  const double run_start = now_s();
  srm::workload::WorkloadResult result;
  {
    ScopedSpan span(r.spans, "workload.run_sim");
    result = srm::workload::run_workload_sim(spec);
  }
  r.run_s = r.sim_run_s = now_s() - run_start;

  const srm::fault::CheckerReport& report = result.checker;
  Counts& c = r.counts;
  c.stories = result.losses;
  c.requests = result.requests;
  c.repairs = result.repairs;
  c.losses = report.losses - report.exempt_departed;
  c.recoveries = report.recovered;
  c.recovery_s = report.recovery_latencies;
  c.fingerprint = result.fingerprint;
  for (const auto& u : report.unrecovered) c.abandoned += u.abandoned ? 1 : 0;
  r.check(result.passed, "churn: recovery invariant checker failed");
  r.check_many(c.losses, c.losses - c.recoveries, "churn: losses not recovered");

  r.layer["workload.actions"] = {static_cast<double>(spec.actions.size()),
                                 "count"};
  r.layer["workload.joins"] = {static_cast<double>(result.joins), "count"};
  r.layer["workload.departures"] = {static_cast<double>(result.departures),
                                    "count"};
  if (opts.codec) replay(spec, result, opts, r);
  if (opts.traced) {
    // The runner's own time includes its fold, so the tracing overhead is
    // measured between an untraced and a traced replay.
    RepOptions plain = opts;
    plain.traced = false;
    RepResult untraced(false);
    const double base = replay(spec, result, plain, untraced);
    r.check(untraced.failures == 0, "churn: untraced replay failed");
    const double traced = replay(spec, result, opts, r);
    r.layer["trace.overhead_frac"] = {traced / base - 1.0, "ratio"};
    r.layer["sim.events_per_s"] = {r.layer["sim.events"].value / base, "1/s"};
  }
  return r;
}

}  // namespace perfbench
