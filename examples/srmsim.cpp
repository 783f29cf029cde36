// srmsim — a command-line scenario driver for the SRM simulator, in the
// spirit of the ns scripts the authors used.  Builds a topology, places a
// session, injects losses, runs loss-recovery rounds, and reports the
// per-round statistics plus a conformance-check summary.
//
// Examples:
//   ./examples/srmsim --topo=btree --nodes=1000 --degree=4 --members=50
//                      --rounds=40 --adaptive=true --seed=7   (one line)
//   ./examples/srmsim --topo=random-tree --nodes=200 --members=200
//   ./examples/srmsim --topo=transit-stub --members=60 --rounds=20
//   ./examples/srmsim --topo=star --nodes=100 --c1=0 --c2=50
//
// Run `srmsim --help` for the flag table (kept in sync with README.md by
// scripts/check_docs.py).
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "fault/checker.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/conformance.h"
#include "harness/fault_scenarios.h"
#include "harness/loss_round.h"
#include "srm/fec/session.h"
#include "harness/replication.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "topo/builders.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "transport/udp_transport.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/workload.h"

namespace {

using namespace srm;

// The authoritative flag table: srmsim rejects any flag it does not list.
// README.md's srmsim section mirrors it and scripts/check_docs.py fails CI
// if the two drift apart.
constexpr const char* kUsage = R"(srmsim: SRM loss-recovery scenario driver

Flags (defaults in brackets):
  --topo          btree | random-tree | random-graph | chain | star | ring |
                  dumbbell | transit-stub | lans            [btree]
  --nodes         topology size                             [1000]
  --degree        interior degree for btree                 [4]
  --edges         edge count for random-graph               [3*nodes/2]
  --members       session size (0 = all nodes)              [50]
  --rounds        loss-recovery rounds                      [10]
  --adaptive      adaptive timer adjustment                 [false]
  --c1 --c2       request timer parameters                  [2/2]
  --d1 --d2       repair timer parameters                   [log10 G]
  --backoff       request-timer backoff multiplier          [3]
  --seed          RNG seed                                  [1]
  --verbose       print every request/repair                [false]
  --trace         write a structured trace to this file     [off]
  --trace-mask    categories: sim,net,srm,fault | all | none  [srm]
  --trace-format  jsonl | binary                            [jsonl]
  --fec           generation-framed coded repair: XOR/GF(256)
                  parity ADUs with a loss-adaptive budget
                  (ARCHITECTURE.md §11)                     [false]
  --fec-max-k     parity-budget ceiling per generation (1-4) [4]
  --hierarchy     hierarchical session messages: local areas
                  with TTL-scoped reports and elected
                  representatives (ARCHITECTURE.md §12);
                  a warm-up runs before the loss rounds     [false]
  --areas         local-area count for --hierarchy
                  (0 = about sqrt(members))                 [0]
  --local-ttl     TTL of --hierarchy local reports          [4]
  --faults        fault-plan file: link churn, partitions,
                  membership dynamics, bursty loss
                  (format: ARCHITECTURE.md)                 [off]
  --fault-deadline  recovery deadline in seconds for the
                  fault invariant checker                   [100]
  --routing-verify  cross-check every journal-repaired
                  routing tree against a fresh Dijkstra
                  (same switch as SRM_ROUTING_VERIFY=1)     [false]
  --kernel-threads  parallel (PDES) kernel workers; 0 runs
                  the sequential kernel (capped at the
                  hardware concurrency)                     [0]
  --kernel-regions  region count for the parallel kernel
                  (0 = derive from the node count; keep
                  fixed when comparing thread counts)       [0]
  --pdes-verify   run the scenario on the sequential AND
                  parallel kernels and compare per-round
                  stats; with --faults also diffs the full
                  trace across parallel thread counts;
                  exits non-zero on any mismatch            [false]
  --workload      run a heavy-traffic workload instead of
                  the loss rounds: flash-crowd | conference
                  | diurnal | repair-storm, judged by the
                  recovery-invariant checker
                  (ARCHITECTURE.md §13)                     [off]
  --transport     backend for --workload: sim (virtual
                  time) | udp (real multicast on loopback,
                  wall time); udp requires --workload       [sim]
  --help          print this table and exit
)";

struct BuiltTopology {
  net::Topology topo;
  std::vector<net::NodeId> candidates;  // nodes members may be placed on
};

// Members may be placed on any node.
BuiltTopology everywhere(net::Topology t) {
  std::vector<net::NodeId> all(t.node_count());
  std::iota(all.begin(), all.end(), net::NodeId{0});
  return {std::move(t), std::move(all)};
}

BuiltTopology build_topology(const std::string& kind, std::size_t nodes,
                             int degree, std::size_t edges, util::Rng& rng) {
  if (kind == "btree") {
    return everywhere(topo::make_bounded_degree_tree(nodes, degree));
  }
  if (kind == "random-tree") {
    return everywhere(topo::make_random_tree(nodes, rng));
  }
  if (kind == "random-graph") {
    return everywhere(topo::make_random_graph(nodes, edges, rng));
  }
  if (kind == "chain") return everywhere(topo::make_chain(nodes));
  if (kind == "ring") return everywhere(topo::make_ring(nodes));
  if (kind == "star") {
    auto s = topo::make_star(nodes);
    return {std::move(s.topo), std::move(s.leaves)};
  }
  if (kind == "dumbbell") {
    auto d = topo::make_dumbbell(nodes / 2);
    d.left_hosts.insert(d.left_hosts.end(), d.right_hosts.begin(),
                        d.right_hosts.end());
    return {std::move(d.topo), std::move(d.left_hosts)};
  }
  if (kind == "transit-stub") {
    auto ts = topo::make_transit_stub(4, 3, std::max<std::size_t>(4, nodes / 48),
                                      rng);
    return {std::move(ts.topo), std::move(ts.stub_nodes)};
  }
  if (kind == "lans") {
    auto tl = topo::make_tree_of_lans(std::max<std::size_t>(2, nodes / 6), 3, 5);
    return {std::move(tl.topo), std::move(tl.workstations)};
  }
  throw std::invalid_argument("unknown --topo: " + kind);
}

// One loss-round scenario.  The normal run and every --pdes-verify run call
// run_scenario() on the same description, so verify checks the run srmsim
// reports.
struct Scenario {
  net::Topology topo;
  std::vector<net::NodeId> members;
  SrmConfig cfg;
  std::uint64_t seed = 1;
  std::uint32_t kernel_regions = 0;
  int rounds = 0;
  fault::FaultPlan faults;  // empty: no fault injection
  std::string faults_path;
  double fault_deadline = 100.0;
  util::Rng pick{1};  // draws the source and congested link; copied per run
};

// What only the normal run adds: progress lines, the --trace sink, and the
// main-only extras (--routing-verify, the conformance checker, --verbose),
// which attach before the rounds and detach after them.
struct ScenarioHooks {
  std::ostream* log = nullptr;  // nullptr: silent
  trace::Sink* trace_sink = nullptr;
  std::uint32_t trace_mask = 0;
  std::string trace_label;  // logged as "tracing <label>"
  std::function<void(harness::SimSession&)> before_rounds;
  std::function<void()> after_rounds;
};

struct ScenarioResult {
  // One entry per round; nullopt when the fault plan made it unrunnable.
  std::vector<std::optional<harness::RoundResult>> rounds;
  net::NetworkStats stats;
  // With a fault plan: the srm+fault trace, the recovery-invariant checker's
  // verdict on it, and the injector's totals.
  trace::VectorSink trace;
  fault::CheckerReport report;
  fault::FaultInjector::Stats fault_stats;
};

ScenarioResult run_scenario(const Scenario& sc, unsigned kernel_threads,
                            const ScenarioHooks& hooks = {}) {
  std::ostream silent(nullptr);  // no buffer: discards everything
  std::ostream& log = hooks.log != nullptr ? *hooks.log : silent;
  const bool faults = !sc.faults.empty();
  const bool fec = sc.cfg.fec.enabled;
  // Result and trace plumbing outlive the session that writes into them.
  ScenarioResult result;
  trace::TeeSink tee;
  trace::Tracer tracer;

  harness::SimSession::Options opts{sc.cfg, sc.seed, /*group=*/1};
  opts.kernel_threads = kernel_threads;
  opts.kernel_regions = sc.kernel_regions;
  harness::SimSession session(net::Topology(sc.topo), sc.members, opts);
  if (session.kernel() != nullptr) {
    log << "parallel kernel: " << session.region_map().count
        << " regions, lookahead " << session.region_map().lookahead << ", "
        << kernel_threads << " worker thread"
        << (kernel_threads == 1 ? "" : "s") << "\n";
  }

  // Structured tracing into the caller's sink.  With a fault plan the trace
  // is also captured in memory and the mask force-includes the srm and
  // fault categories the recovery-invariant checker consumes.
  std::uint32_t mask = hooks.trace_mask;
  if (hooks.trace_sink != nullptr) {
    tee.add(hooks.trace_sink);
    log << "tracing " << hooks.trace_label << "\n";
  }
  if (faults) {
    tee.add(&result.trace);
    mask |= static_cast<std::uint32_t>(trace::Category::kSrm) |
            static_cast<std::uint32_t>(trace::Category::kFault);
  }
  if (hooks.trace_sink != nullptr || faults) {
    tracer.set_sink(&tee);
    tracer.set_mask(mask);
    session.set_tracer(&tracer);
  }

  // Hierarchical sessions: let two report intervals elapse so every area
  // has heard its members and elected a representative, then stop
  // reporting so the loss rounds below drain the queue.
  if (session.hierarchy() != nullptr) {
    SessionHierarchy& hier = *session.hierarchy();
    const double warm = 2.0 * sc.cfg.hierarchy.report_interval;
    session.run_until(warm);
    std::size_t reps = 0;
    for (std::size_t i = 0; i < session.member_count(); ++i) {
      if (hier.is_representative(session.agent(i))) ++reps;
    }
    const SrmAgent& probe = session.agent(0);
    log << "hierarchy: " << hier.area_count() << " areas, " << reps
        << " representatives, local TTL " << sc.cfg.hierarchy.local_ttl
        << "\n  warm-up " << warm << "s: " << hier.local_reports_sent()
        << " local + " << hier.global_reports_sent()
        << " global reports, " << hier.pending_wheel_buckets()
        << " timer buckets for " << hier.pending_wheel_items()
        << " pending reports\n  node " << probe.node()
        << " estimates group size " << hier.estimated_group_size(probe)
        << "\n";
    hier.stop();
  }

  // Coded repair: one FecSession per member, layered over each agent's
  // AppHooks.  Membership churn (below) keeps the map in step with the
  // session, and the fault injector's epoch observer floors every budget
  // during Gilbert-Elliott bursts.
  std::unordered_map<net::NodeId, std::unique_ptr<fec::FecSession>>
      fec_sessions;
  bool burst_epoch_now = false;
  const auto add_fec_session = [&](net::NodeId node) {
    auto fs =
        std::make_unique<fec::FecSession>(session.agent_at(node), sc.cfg.fec);
    if (burst_epoch_now) fs->set_burst_epoch(true);
    fec_sessions[node] = std::move(fs);
  };
  if (fec) {
    for (net::NodeId m : session.member_nodes()) add_fec_session(m);
  }

  // Fault injection: arm the plan before the first round.
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    injector = std::make_unique<fault::FaultInjector>(
        session.queue(), session.mutable_topology(), session.network(),
        sc.faults, session.rng().fork());
    fault::MembershipHooks membership = harness::membership_hooks(session);
    if (fec) {
      // Keep the FEC layer in step with churn: a departing member's
      // FecSession must die before its agent, and a (re)joining member gets
      // a fresh one over the new agent's hooks.
      auto inner = std::move(membership);
      membership.join = [&, inner](net::NodeId node) {
        if (inner.join) inner.join(node);
        add_fec_session(node);
      };
      membership.leave = [&, inner](net::NodeId node, bool graceful) {
        fec_sessions.erase(node);
        if (inner.leave) inner.leave(node, graceful);
      };
      injector->set_epoch_observer(
          [&](bool active, const net::GilbertElliottDrop::Params&) {
            burst_epoch_now = active;
            for (auto& [node, fs] : fec_sessions) fs->set_burst_epoch(active);
          });
    }
    injector->set_membership_hooks(std::move(membership));
    // Under the parallel kernel the injector's events (global queue) must
    // emit into the global trace lane so they join the deterministic merge.
    injector->set_tracer(session.control_tracer());
    injector->arm();
    log << "fault plan: " << sc.faults_path << " (" << injector->plan().size()
        << " events, deadline " << sc.fault_deadline << "s)\n";
  }
  if (hooks.before_rounds) hooks.before_rounds(session);

  util::Rng pick = sc.pick;
  const net::NodeId source = sc.members[pick.index(sc.members.size())];
  harness::RoundSpec spec;
  spec.source_node = source;
  spec.congested = harness::choose_congested_link(
      session.network().routing(), source, sc.members, pick);
  spec.page = PageId{static_cast<SourceId>(source), 0};
  log << "source node " << source << ", congested link ("
      << spec.congested.from << " -> " << spec.congested.to << ")\n\n";
  if (fec) {
    spec.send_fn = [&fec_sessions](SrmAgent& agent, const PageId& page,
                                   Payload payload) {
      return fec_sessions.at(agent.node())->send(page, std::move(payload));
    };
  }
  SeqNo fec_seq = 0;
  for (int r = 0; r < sc.rounds; ++r) {
    // With coded repair, parity ADUs consume sequence numbers, so each
    // round's dropped seq comes from where the source's stream actually is
    // (unchanged while the source is churned out; the round reports it)
    // rather than the fixed 2-per-round arithmetic.
    if (fec && session.has_member(source)) {
      const SrmAgent& agent = session.agent_at(source);
      const auto adv = agent.advertised_max(StreamKey{agent.id(), spec.page});
      if (adv) fec_seq = *adv + 1;
    }
    const SeqNo seq = fec ? fec_seq : static_cast<SeqNo>(r) * 2;
    try {
      result.rounds.emplace_back(harness::run_loss_round(session, spec, seq));
    } catch (const std::exception& e) {
      // With a fault plan active a round can be unrunnable (the source
      // crashed, the congested link is already down, the partition ate the
      // scripted drop).  That is the scenario working as intended; the
      // invariant checker still judges every loss that did happen.
      if (!faults) throw;
      log << "round " << r + 1 << " disrupted by faults (" << e.what()
          << ")\n";
      result.rounds.emplace_back();
      continue;
    }
    const harness::RoundResult& res = *result.rounds.back();
    if (!faults && res.recovered != res.affected) {
      log << "WARNING: round " << r + 1 << " recovered " << res.recovered
          << "/" << res.affected << "\n";
    }
  }
  if (hooks.after_rounds) hooks.after_rounds();

  result.stats = session.network_stats();
  if (faults) {
    // With faults active the conformance checker sees duplicate repairs and
    // timer restarts that are legitimate under churn, so the verdict comes
    // from the recovery-invariant checker: every loss at a surviving member
    // must be repaired within the (window-extended) deadline, with no
    // repair storms.
    fault::CheckerOptions copts;
    copts.deadline = sc.fault_deadline;
    result.report = fault::RecoveryInvariantChecker(copts).check(
        result.trace.events(), injector->disruption_windows(),
        session.queue().now());
    result.fault_stats = injector->stats();
  }
  session.set_tracer(&trace::Tracer::null());
  return result;
}

// --pdes-verify: the scenario on the sequential kernel and on the parallel
// kernel at `kt` threads must agree exactly (the parallel kernel claims
// event-order equivalence, so even the double-valued delays match bit for
// bit).  With a fault plan a third run, at 1 thread, must also produce the
// bit-identical merged trace; sequential and parallel traces may order
// same-time events differently, so only the parallel merges are diffed.
int run_pdes_verify(const Scenario& sc, unsigned kt) {
  const ScenarioResult seq = run_scenario(sc, 0);
  const ScenarioResult par = run_scenario(sc, kt);
  std::vector<std::string> diffs;
  for (std::size_t r = 0; r < seq.rounds.size(); ++r) {
    if (seq.rounds[r] != par.rounds[r]) {
      diffs.push_back("round " + std::to_string(r + 1) + " results differ");
    }
  }
  const auto totals = [](const ScenarioResult& r) {
    return std::tuple(r.stats.multicasts_sent, r.stats.unicasts_sent,
                      r.stats.link_transmissions, r.stats.deliveries,
                      r.stats.drops, r.report.losses, r.report.recovered,
                      r.report.storm_violations, r.report.passed);
  };
  if (totals(seq) != totals(par)) {
    diffs.push_back("network totals or recovery-invariant checker counts "
                    "differ");
  }
  std::ostringstream claim;
  if (sc.faults.empty()) {
    claim << sc.rounds << " rounds bit-identical, sequential vs " << kt
          << "-thread parallel kernel";
  } else {
    const ScenarioResult p1 = run_scenario(sc, 1);
    const std::vector<trace::Event>& e1 = p1.trace.events();
    const std::vector<trace::Event>& ekt = par.trace.events();
    if (e1 != ekt) {
      const auto at = std::mismatch(e1.begin(), e1.end(), ekt.begin(),
                                    ekt.end()).first;
      diffs.push_back("parallel traces (" + std::to_string(e1.size()) +
                      " vs " + std::to_string(ekt.size()) +
                      " events) diverge at event " +
                      std::to_string(at - e1.begin()));
    }
    claim << "fault plan, " << e1.size() << "-event trace with "
          << std::count_if(e1.begin(), e1.end(),
                           [](const trace::Event& e) {
                             return e.type == trace::EventType::kSrmFecParity;
                           })
          << " fec_parity_send events bit-identical at 1 vs " << kt
          << " threads; rounds, stats and recovery invariants match the "
             "sequential kernel";
  }
  if (!diffs.empty()) {
    std::cout << "pdes-verify: MISMATCH (" << diffs.size()
              << " differences)\n";
    for (const std::string& d : diffs) std::cout << "  " << d << "\n";
    return 1;
  }
  std::cout << "pdes-verify: OK (" << claim.str() << ")\n";
  return 0;
}

int run(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  flags.reject_unlisted(kUsage);
  if (flags.get_bool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  const std::string kind = flags.get_string("topo", "btree");
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 1000));
  const int degree = static_cast<int>(flags.get_int("degree", 4));
  const auto edges = static_cast<std::size_t>(
      flags.get_int("edges", static_cast<std::int64_t>(nodes) * 3 / 2));
  auto member_count = static_cast<std::size_t>(flags.get_int("members", 50));
  Scenario sc;
  sc.rounds = static_cast<int>(flags.get_int("rounds", 10));
  const std::uint64_t seed = sc.seed = flags.get_seed(1);
  const bool verbose = flags.get_bool("verbose", false);
  const std::string trace_path = flags.get_string("trace", "");
  const std::uint32_t trace_mask =
      trace::parse_mask(flags.get_string("trace-mask", "srm"));
  const std::string trace_format = flags.get_string("trace-format", "jsonl");
  if (trace_format != "jsonl" && trace_format != "binary") {
    std::cerr << "srmsim: unknown --trace-format: " << trace_format << "\n";
    return 1;
  }
  // Workload mode: a scripted heavy-traffic scenario (ARCHITECTURE.md §13)
  // replaces the loss rounds entirely.  --members scales the peak
  // membership; --transport selects the backend the identical spec runs on.
  const std::string transport_kind = flags.get_string("transport", "sim");
  const std::string workload_name = flags.get_string("workload", "");
  if (transport_kind != "sim" && transport_kind != "udp") {
    std::cerr << "srmsim: unknown --transport: " << transport_kind << "\n";
    return 1;
  }
  if (workload_name.empty() && transport_kind == "udp") {
    std::cerr << "srmsim: --transport=udp requires --workload (the figure "
                 "rounds are simulator-only)\n";
    return 1;
  }
  if (!workload_name.empty()) {
    workload::WorkloadSpec wspec;
    try {
      wspec = workload::make_workload(
          workload_name, member_count == 0 ? 48 : member_count, seed);
    } catch (const std::invalid_argument& e) {
      std::cerr << "srmsim: " << e.what() << "\n";
      return 1;
    }
    const bool udp = transport_kind == "udp";
    if (udp && !transport::UdpTransport::available()) {
      std::cout << "srmsim: loopback multicast unavailable; skipping "
                   "--transport=udp workload\n";
      return 0;
    }
    std::cout << "workload '" << wspec.name << "': " << wspec.peak_members
              << " peak members (" << wspec.initial_members
              << " initial), seed " << seed << ", " << transport_kind
              << " backend, " << wspec.actions.size()
              << " scripted actions over " << wspec.duration << "s\n\n";
    const workload::WorkloadResult r = udp
                                           ? workload::run_workload_udp(wspec)
                                           : workload::run_workload_sim(wspec);
    util::Table wtable({"sends", "joins", "departs", "drops", "losses",
                        "requests", "repairs", "recovered", "p50 (s)",
                        "p99 (s)", "max (s)"});
    wtable.add_row(
        {util::Table::num(r.data_sent), util::Table::num(r.joins),
         util::Table::num(r.departures), util::Table::num(r.scripted_drops),
         util::Table::num(r.losses), util::Table::num(r.requests),
         util::Table::num(r.repairs), util::Table::num(r.recoveries),
         util::Table::num(r.recovery_p50, 2),
         util::Table::num(r.recovery_p99, 2),
         util::Table::num(r.recovery_max, 2)});
    wtable.print(std::cout);
    std::cout << "\nfingerprint 0x" << std::hex << r.fingerprint << std::dec
              << "\n"
              << r.checker.summary();
    return r.passed ? 0 : 1;
  }

  SrmConfig& cfg = sc.cfg;
  sc.faults_path = flags.get_string("faults", "");
  sc.fault_deadline = flags.get_double("fault-deadline", 100.0);
  const bool routing_verify = flags.get_bool("routing-verify", false);
  // srmsim runs one session, so the whole hardware budget belongs to the
  // kernel side (replication = 1); plan_thread_budget caps oversubscription.
  const unsigned kernel_threads =
      harness::plan_thread_budget(
          /*requested_replication=*/1,
          static_cast<unsigned>(
              std::max<std::int64_t>(0, flags.get_int("kernel-threads", 0))))
          .kernel_threads;
  sc.kernel_regions =
      static_cast<std::uint32_t>(flags.get_int("kernel-regions", 0));
  const bool pdes_verify = flags.get_bool("pdes-verify", false);
  cfg.fec.enabled = flags.get_bool("fec", false);
  cfg.fec.max_k = static_cast<std::size_t>(flags.get_int("fec-max-k", 4));
  if (cfg.fec.enabled &&
      (cfg.fec.max_k < 1 || cfg.fec.max_k > fec::kMaxParity)) {
    std::cerr << "srmsim: --fec-max-k must be in [1, 4]\n";
    return 1;
  }
  cfg.hierarchy.enabled = flags.get_bool("hierarchy", false);
  cfg.hierarchy.areas = static_cast<std::uint32_t>(flags.get_int("areas", 0));
  cfg.hierarchy.local_ttl = static_cast<int>(flags.get_int("local-ttl", 4));
  if (cfg.hierarchy.local_ttl < 1) {
    std::cerr << "srmsim: --local-ttl must be >= 1\n";
    return 1;
  }

  if (!sc.faults_path.empty()) {
    std::ifstream in(sc.faults_path);
    if (!in) {
      std::cerr << "srmsim: cannot open --faults file: " << sc.faults_path
                << "\n";
      return 1;
    }
    try {
      sc.faults = fault::FaultPlan::parse(in);
    } catch (const std::exception& e) {
      std::cerr << "srmsim: " << sc.faults_path << ": " << e.what() << "\n";
      return 1;
    }
  }
  util::Rng rng(seed);
  BuiltTopology built = build_topology(kind, nodes, degree, edges, rng);
  if (member_count == 0 || member_count > built.candidates.size()) {
    member_count = built.candidates.size();
  }
  rng.shuffle(built.candidates);
  sc.members.assign(built.candidates.begin(),
                    built.candidates.begin() + static_cast<long>(member_count));
  std::sort(sc.members.begin(), sc.members.end());

  const double lg = std::log10(static_cast<double>(member_count));
  cfg.timers.c1 = flags.get_double("c1", 2.0);
  cfg.timers.c2 = flags.get_double("c2", 2.0);
  cfg.timers.d1 = flags.get_double("d1", lg);
  cfg.timers.d2 = flags.get_double("d2", lg);
  cfg.backoff_factor = flags.get_double("backoff", 3.0);
  cfg.adaptive.enabled = flags.get_bool("adaptive", false);

  std::cout << "srmsim: " << kind << " with " << built.topo.node_count()
            << " nodes, " << member_count << " members, seed " << seed
            << (cfg.adaptive.enabled ? ", adaptive timers" : "")
            << (cfg.hierarchy.enabled ? ", hierarchical sessions" : "")
            << (cfg.fec.enabled ? ", coded repair (max K " +
                                      std::to_string(cfg.fec.max_k) + ")"
                                : "")
            << "\n";

  sc.topo = std::move(built.topo);
  sc.pick = rng;
  if (pdes_verify) {
    return run_pdes_verify(sc, kernel_threads > 0 ? kernel_threads : 1);
  }

  // Structured tracing: one file sink for the whole run.
  std::ofstream trace_file;
  std::unique_ptr<trace::Sink> trace_sink;
  if (!trace_path.empty()) {
    const auto mode = trace_format == "binary"
                          ? std::ios::out | std::ios::binary
                          : std::ios::out;
    trace_file.open(trace_path, mode);
    if (!trace_file) {
      std::cerr << "srmsim: cannot open --trace file: " << trace_path << "\n";
      return 1;
    }
    if (trace_format == "binary") {
      trace_sink = std::make_unique<trace::BinarySink>(trace_file);
    } else {
      trace_sink = std::make_unique<trace::JsonlSink>(trace_file);
    }
  }

  ScenarioHooks hooks;
  hooks.log = &std::cout;
  hooks.trace_sink = trace_sink.get();
  hooks.trace_mask = trace_mask;
  hooks.trace_label = trace::format_mask(trace_mask) + " (" + trace_format +
                      ") to " + trace_path;
  std::unique_ptr<harness::ConformanceChecker> checker;
  hooks.before_rounds = [&](harness::SimSession& session) {
    if (routing_verify) {
      for (std::size_t r = 0; r < session.network_count(); ++r) {
        session.network(r).routing().set_verify(true);
      }
    }
    // The conformance checker chains one network's observers, which under
    // the parallel kernel would see only one region's packets;
    // --pdes-verify is the equivalence check in that mode.
    if (session.kernel() == nullptr) {
      checker = std::make_unique<harness::ConformanceChecker>(
          session.network(), session.directory(), cfg.holddown_multiplier);
    }
    if (verbose && session.kernel() != nullptr) {
      std::cout << "(--verbose is sequential-kernel only; ignoring)\n";
    } else if (verbose) {
      session.network().set_send_observer(
          [s = &session](net::NodeId from, const net::Packet& p) {
            std::cout << "  t=" << s->queue().now() << " node " << from << " "
                      << p.payload->describe() << "\n";
          });
    }
  };
  // The session dies inside run_scenario; the checker must let go first.
  hooks.after_rounds = [&] {
    if (checker != nullptr) checker->detach();
  };
  const ScenarioResult result = run_scenario(sc, kernel_threads, hooks);

  util::Table table({"round", "affected", "requests", "repairs",
                     "last delay (s)", "last delay/RTT"});
  std::size_t total_requests = 0;
  std::size_t total_repairs = 0;
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    if (!result.rounds[r]) continue;
    const harness::RoundResult& res = *result.rounds[r];
    total_requests += res.requests;
    total_repairs += res.repairs;
    table.add_row({util::Table::num(r + 1), util::Table::num(res.affected),
                   util::Table::num(res.requests),
                   util::Table::num(res.repairs),
                   util::Table::num(res.max_delay_seconds, 2),
                   util::Table::num(res.last_member_delay_rtt, 2)});
  }
  table.print(std::cout);

  std::cout << "\nconformance: "
            << (checker == nullptr ? std::string(
                                         "skipped (parallel kernel; use "
                                         "--pdes-verify)\n")
                : checker->clean() ? std::string("clean\n")
                                   : checker->report());
  std::cout << "network totals: " << result.stats.multicasts_sent
            << " multicasts, " << result.stats.link_transmissions
            << " link transmissions, " << result.stats.drops << " drops\n";

  // Fold the trace back into per-loss recovery stories and cross-check the
  // reconstruction against the aggregate per-round counters.
  bool trace_ok = true;
  if (!trace_path.empty()) {
    trace_sink->flush();
    trace_file.close();
    const auto mode = trace_format == "binary"
                          ? std::ios::in | std::ios::binary
                          : std::ios::in;
    std::ifstream in(trace_path, mode);
    const std::vector<trace::Event> events = trace_format == "binary"
                                                 ? trace::read_binary(in)
                                                 : trace::read_jsonl(in);
    const auto timeline = trace::RecoveryTimeline::fold(events);
    std::cout << "\n" << timeline.summary();
    if (sc.faults.empty() &&
        (trace_mask & static_cast<std::uint32_t>(trace::Category::kSrm)) !=
            0) {
      trace_ok = timeline.total_requests() == total_requests &&
                 timeline.total_repairs() == total_repairs;
      std::cout << "trace self-check: ";
      if (trace_ok) {
        std::cout << "OK (" << timeline.total_requests() << " requests, "
                  << timeline.total_repairs()
                  << " repairs match aggregate counters)\n";
      } else {
        std::cout << "MISMATCH (timeline " << timeline.total_requests()
                  << " requests / " << timeline.total_repairs()
                  << " repairs vs aggregate " << total_requests << " / "
                  << total_repairs << ")\n";
      }
    }
  }
  if (!sc.faults.empty()) {
    std::cout << "\n" << result.report.summary();
    const auto& fs = result.fault_stats;
    std::cout << "fault totals: " << fs.links_taken_down << " links down, "
              << fs.partitions << " partitions, " << fs.heals << " heals, "
              << fs.joins << " joins, " << fs.leaves + fs.crashes
              << " departures, " << fs.burst_epochs << " burst epochs\n";
    return result.report.passed && trace_ok ? 0 : 1;
  }
  return (checker == nullptr || checker->clean()) && trace_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const srm::util::FlagError& e) {
    std::cerr << "srmsim: " << e.what() << "\n";
    return 1;
  }
}
