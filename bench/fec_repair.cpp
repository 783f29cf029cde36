// FEC repair benchmark: repair-traffic bytes with and without the coded
// repair layer (src/srm/fec; ARCHITECTURE.md §11) under a bursty loss
// plan, at EQUAL recovery-latency deadlines.
//
// Each trial builds a fresh random tree, arms a Gilbert-Elliott burst
// epoch (epoch markers only — the damage itself is scripted, so the two
// modes face byte-identical loss patterns), and runs loss rounds through
// it: one dropped ADU per quiet round, two consecutive dropped ADUs per
// burst round (the pattern a single XOR parity cannot repair).  Mode
// fec_off recovers everything with plain SRM request/repair; mode fec_on
// wraps every member in a FecSession, whose burst-floored GF(256) parity
// budget lets receivers reconstruct locally.  The send observer meters the
// control-plane bytes (REQUEST + REPAIR transmissions) and the parity
// overhead bytes; the RecoveryInvariantChecker folds the trace and
// enforces the same recovery deadline on both modes.
//
// Shape to match (Sec. VII-B's parity pointer): fec_on spends parity bytes
// to erase request/repair bytes — strictly fewer repair-traffic bytes at
// the same deadline, with recovery latency no worse.  The bench exits
// non-zero if fec_on's repair traffic is not below fec_off's, making it
// self-gating in CI on top of the check_bench.py latency gate.
#include <cstddef>

#include "common.h"
#include "fault/checker.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "srm/fec/session.h"
#include "trace/trace.h"

namespace srm::bench {
namespace {

struct FecTrialSpec {
  net::Topology topo;
  std::vector<net::NodeId> members;
  net::NodeId source = 0;
  harness::DirectedLink congested;
  SrmConfig config;
  std::uint64_t seed = 1;
  bool fec = false;
  int rounds = 8;
  double burst_start = 0.0;  // burst epoch window (virtual seconds)
  double burst_end = 0.0;
  double deadline = 120.0;
};

struct FecTrialResult {
  std::vector<double> latencies;     // seconds of virtual time
  std::uint64_t request_bytes = 0;   // REQUEST transmissions
  std::uint64_t repair_bytes = 0;    // REPAIR transmissions
  std::uint64_t parity_bytes = 0;    // parity ADU transmissions (fec only)
  std::uint64_t reconstructions = 0;
  std::size_t losses = 0;
  std::size_t unrecovered = 0;
  bool passed = true;
};

FecTrialResult run_fec_trial(const FecTrialSpec& spec) {
  harness::SimSession session(spec.topo, spec.members,
                              {spec.config, spec.seed, /*group=*/1});
  trace::VectorSink capture;
  trace::Tracer tracer;
  tracer.set_sink(&capture);
  tracer.set_mask(static_cast<std::uint32_t>(trace::Category::kSrm) |
                  static_cast<std::uint32_t>(trace::Category::kFault));
  session.set_tracer(&tracer);

  // Coded-repair wrappers, one per member (fec mode only).
  std::vector<std::unique_ptr<fec::FecSession>> sessions;
  fec::FecSession* tx = nullptr;
  if (spec.fec) {
    FecConfig fc;
    fc.enabled = true;
    fc.generation_size = 2;  // one generation per loss round
    for (net::NodeId n : session.member_nodes()) {
      sessions.push_back(
          std::make_unique<fec::FecSession>(session.agent_at(n), fc));
      if (n == spec.source) tx = sessions.back().get();
    }
  }

  // Burst epoch markers: zero loss probability, so the Gilbert-Elliott
  // policy drops nothing — the epochs only drive the parity budget, and
  // both modes see the identical scripted damage below.
  net::GilbertElliottDrop::Params ge;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.0;
  fault::FaultPlan plan;
  plan.burst_on(spec.burst_start, ge);
  plan.burst_off(spec.burst_end);
  fault::FaultInjector injector(session.queue(), session.mutable_topology(),
                                session.network(), std::move(plan),
                                session.rng().fork());
  injector.set_tracer(&tracer);
  injector.set_epoch_observer(
      [&sessions](bool active, const net::GilbertElliottDrop::Params&) {
        for (auto& s : sessions) s->set_burst_epoch(active);
      });
  injector.arm();

  // Meter the control plane: REQUEST/REPAIR transmissions are the repair
  // traffic the code is meant to erase; parity ADUs are its cost.
  FecTrialResult result;
  session.network().set_send_observer(
      [&result](net::NodeId, const net::Packet& p) {
        if (dynamic_cast<const RequestMessage*>(p.payload.get()) != nullptr) {
          result.request_bytes += p.payload->size_bytes();
        } else if (dynamic_cast<const RepairMessage*>(p.payload.get()) !=
                   nullptr) {
          result.repair_bytes += p.payload->size_bytes();
        } else if (const auto* d =
                       dynamic_cast<const DataMessage*>(p.payload.get())) {
          const auto& body = *d->payload();
          if (!body.empty() && body[0] == fec::kFecParityTag) {
            result.parity_bytes += p.payload->size_bytes();
          }
        }
      });

  // The loss rounds.  Round r sends two application ADUs at t_r; the
  // congested link drops the first (quiet round) or both (burst round).
  // Seqs are read off the source's own stream at send time, so the fec
  // mode's parity ADUs (which consume sequence numbers) need no special
  // accounting.
  SrmAgent& source = session.agent_at(spec.source);
  const PageId page{static_cast<SourceId>(spec.source), 0};
  const StreamKey stream{source.id(), page};
  for (int r = 0; r < spec.rounds; ++r) {
    const double at = 10.0 + 40.0 * r;
    const bool burst = at >= spec.burst_start && at < spec.burst_end;
    session.queue().schedule_at(at, [&, r, burst] {
      const auto adv = source.advertised_max(stream);
      const SeqNo base = adv ? *adv + 1 : 0;
      std::vector<SeqNo> dropped{base};
      if (burst) dropped.push_back(base + 1);
      const std::size_t max_drops = dropped.size();
      session.network().set_drop_policy(
          std::make_shared<net::ScriptedLinkDrop>(
              spec.congested.from, spec.congested.to,
              [dropped = std::move(dropped)](const net::Packet& p) {
                const auto* d =
                    dynamic_cast<const DataMessage*>(p.payload.get());
                return d != nullptr &&
                       std::find(dropped.begin(), dropped.end(),
                                 d->name().seq) != dropped.end();
              },
              max_drops));
      const Payload first{static_cast<std::uint8_t>(r), 0xAB};
      const Payload second{static_cast<std::uint8_t>(r), 0xCD};
      if (tx != nullptr) {
        tx->send(page, first);
        tx->send(page, second);  // seals the round's generation
      } else {
        source.send_data(page, first);
        source.send_data(page, second);
      }
    });
  }
  session.run();
  session.network().set_send_observer(nullptr);

  for (std::size_t i = 0; i < session.member_count(); ++i) {
    result.reconstructions += session.agent(i).metrics().fec_reconstructions;
  }
  fault::CheckerOptions copts;
  copts.deadline = spec.deadline;
  const fault::CheckerReport report =
      fault::RecoveryInvariantChecker(copts).check(
          capture.events(), injector.disruption_windows(),
          session.queue().now());
  result.latencies = report.recovery_latencies;
  result.losses = report.losses;
  result.unrecovered = report.unrecovered.size();
  result.passed = report.passed;
  return result;
}

}  // namespace
}  // namespace srm::bench

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(1995);
  const int trials = static_cast<int>(flags.get_int("trials", 8));
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 60));
  const auto group = static_cast<std::size_t>(flags.get_int("members", 24));
  const int rounds = static_cast<int>(flags.get_int("rounds", 8));
  const harness::ReplicationRunner runner(bench::flag_threads(flags));
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_fec.json");
  util::PerfJson json(json_path, "fec_repair");
  const auto start = std::chrono::steady_clock::now();

  bench::print_header(
      "FEC repair: repair traffic vs parity overhead under bursty loss",
      seed,
      "random tree N=" + std::to_string(nodes) + ", G=" +
          std::to_string(group) + "; " + std::to_string(rounds) +
          " loss rounds per trial, double losses during the burst epoch; " +
          std::to_string(trials) + " trials per mode; threads=" +
          std::to_string(runner.threads()));

  // Build the specs once, then run them in both modes: identical topology,
  // membership, congested link, seed and scripted damage per trial.
  util::Rng rng(seed);
  std::vector<bench::FecTrialSpec> base_specs;
  base_specs.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    bench::FecTrialSpec spec;
    spec.topo = topo::make_random_tree(nodes, rng);
    spec.members = harness::shuffled_members(nodes, group, rng);
    spec.source = spec.members[rng.index(group)];
    net::Routing routing(spec.topo);
    spec.congested = harness::choose_congested_link(routing, spec.source,
                                                    spec.members, rng);
    spec.config = bench::paper_sim_config(paper_fixed_params(group));
    spec.rounds = rounds;
    // The burst epoch covers the middle half of the rounds (round r fires
    // at t = 10 + 40r).
    spec.burst_start = 10.0 + 40.0 * (rounds / 4) - 5.0;
    spec.burst_end = 10.0 + 40.0 * (3 * rounds / 4) - 5.0;
    spec.seed = rng.next_u64();
    base_specs.push_back(std::move(spec));
  }

  util::Table table({"mode", "losses", "unrecovered", "request B", "repair B",
                     "parity B", "reconstr", "latency p50 (s)", "p90 (s)",
                     "p99 (s)", "invariants"});
  struct ModeTotals {
    util::Samples latency;
    std::uint64_t request_bytes = 0, repair_bytes = 0, parity_bytes = 0;
    std::uint64_t reconstructions = 0;
    std::size_t losses = 0, unrecovered = 0;
    bool passed = true;
  };
  ModeTotals totals[2];
  std::size_t replications = 0;

  for (const bool fec : {false, true}) {
    std::vector<bench::FecTrialSpec> specs = base_specs;
    for (auto& s : specs) s.fec = fec;
    replications += specs.size();
    const auto results = runner.map<bench::FecTrialResult>(
        specs.size(),
        [&specs](std::size_t i) { return bench::run_fec_trial(specs[i]); });

    ModeTotals& m = totals[fec ? 1 : 0];
    for (const auto& r : results) {
      for (double s : r.latencies) m.latency.add(s);
      m.request_bytes += r.request_bytes;
      m.repair_bytes += r.repair_bytes;
      m.parity_bytes += r.parity_bytes;
      m.reconstructions += r.reconstructions;
      m.losses += r.losses;
      m.unrecovered += r.unrecovered;
      m.passed = m.passed && r.passed;
    }
    const double p50 = m.latency.empty() ? 0.0 : m.latency.quantile(0.5);
    const double p90 = m.latency.empty() ? 0.0 : m.latency.quantile(0.9);
    const double p99 = m.latency.empty() ? 0.0 : m.latency.quantile(0.99);
    table.add_row({fec ? "fec_on" : "fec_off", util::Table::num(m.losses),
                   util::Table::num(m.unrecovered),
                   util::Table::num(m.request_bytes),
                   util::Table::num(m.repair_bytes),
                   util::Table::num(m.parity_bytes),
                   util::Table::num(m.reconstructions),
                   util::Table::num(p50, 2), util::Table::num(p90, 2),
                   util::Table::num(p99, 2), m.passed ? "PASS" : "FAIL"});

    const std::string prefix = fec ? "fec_on_" : "fec_off_";
    json.set(prefix + "recovery_p50_us", p50 * 1e6);
    json.set(prefix + "recovery_p90_us", p90 * 1e6);
    json.set(prefix + "recovery_p99_us", p99 * 1e6);
    json.set(prefix + "request_bytes", static_cast<double>(m.request_bytes));
    json.set(prefix + "repair_bytes", static_cast<double>(m.repair_bytes));
    json.set(prefix + "repair_traffic_bytes",
             static_cast<double>(m.request_bytes + m.repair_bytes));
    json.set(prefix + "parity_bytes", static_cast<double>(m.parity_bytes));
    json.set(prefix + "losses", static_cast<double>(m.losses));
    json.set(prefix + "unrecovered", static_cast<double>(m.unrecovered));
    json.set(prefix + "reconstructions",
             static_cast<double>(m.reconstructions));
  }
  table.print(std::cout);

  const std::uint64_t off_traffic =
      totals[0].request_bytes + totals[0].repair_bytes;
  const std::uint64_t on_traffic =
      totals[1].request_bytes + totals[1].repair_bytes;
  std::cout << "\nPaper check: coded repair erases request/repair traffic\n"
               "(fec_off " << off_traffic << " B -> fec_on " << on_traffic
            << " B; parity overhead " << totals[1].parity_bytes
            << " B) at the same recovery deadline, with "
            << totals[1].reconstructions << " local reconstructions.\n";

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  if (!json_path.empty()) {
    json.set("threads", static_cast<double>(runner.threads()));
    json.set("replications", static_cast<double>(replications));
    json.set("rounds", static_cast<double>(rounds));
    json.set("wall_seconds", wall.count());
    json.save();
    std::cout << "[perf] " << json_path << " updated (fec_repair)\n";
  }

  const bool gate = totals[0].passed && totals[1].passed &&
                    on_traffic < off_traffic &&
                    totals[1].unrecovered == 0;
  if (!gate) {
    std::cout << "\nFAIL: fec_on repair traffic (" << on_traffic
              << " B) must be below fec_off (" << off_traffic
              << " B) with invariants passing on both modes.\n";
  }
  return gate ? 0 : 1;
}
