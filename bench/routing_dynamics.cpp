// Routing-dynamics benchmark: SPT maintenance under link churn.
//
// Part 1 — tree-serving throughput.  A random connected graph churns in
// batches (each batch restores the previous batch's cut links, then cuts a
// fresh random set), and after every batch all source trees are queried.
// The sweep times the query loop twice over the identical edit sequence:
// once with journal repair enabled (the default) and once with
// set_repair_enabled(false), which recomputes every invalidated tree from
// scratch — the pre-journal behavior.  Both modes probe the resulting trees
// and must produce the same checksum (repair is bit-identical to rebuild by
// construction; tests/net/routing_repair_test.cpp proves the strong version).
//
// Part 2 — end-to-end wall-time delta.  The fault_churn trial
// (bench/fault_trial.h: partition/heal plus 10 crash/rejoin cycles over a
// random tree, 4 loss rounds) runs with repair on and off; the checker's
// reports must be identical — only the wall clock moves.  Wall seconds are machine-dependent and therefore
// informational (check_bench.py skips *wall_seconds keys); the gated
// metrics are the *_trees_per_second throughputs.
//
// Records BENCH_routing.json (section routing_dynamics), overridable with
// --bench-json=PATH; empty disables recording.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>

#include "common.h"
#include "fault_trial.h"
#include "net/routing.h"

namespace srm::bench {
namespace {

// One churn workload, generated once so both modes replay the same edits.
struct ChurnWorkload {
  net::Topology topo;
  std::vector<net::NodeId> sources;
  std::vector<std::vector<net::LinkId>> batch_cuts;
};

ChurnWorkload make_workload(std::size_t nodes, std::size_t edges,
                            std::size_t sources, std::size_t batches,
                            std::size_t churn, util::Rng& rng) {
  ChurnWorkload w;
  w.topo = topo::make_random_graph(nodes, edges, rng);
  std::vector<net::NodeId> all(nodes);
  for (std::size_t i = 0; i < nodes; ++i) all[i] = static_cast<net::NodeId>(i);
  rng.shuffle(all);
  w.sources.assign(all.begin(), all.begin() + static_cast<long>(sources));
  w.batch_cuts.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    // Every batch starts from the fully-up graph (the previous batch's cuts
    // are restored first), so any `churn` distinct links form a valid cut.
    std::vector<net::LinkId> cuts;
    for (std::size_t i : rng.sample_without_replacement(edges, churn)) {
      cuts.push_back(static_cast<net::LinkId>(i));
    }
    std::sort(cuts.begin(), cuts.end());
    w.batch_cuts.push_back(std::move(cuts));
  }
  return w;
}

struct ModeResult {
  double wall_seconds = 0.0;
  double checksum = 0.0;
  std::size_t trees = 0;
};

ModeResult run_mode(const ChurnWorkload& w, bool repair) {
  net::Topology topo = w.topo;  // fresh copy: both modes see version 0 state
  net::Routing routing(topo);
  routing.set_repair_enabled(repair);
  routing.set_verify(false);  // measured path; equivalence is checksummed
  // Warm every source tree so the loop measures maintenance, not first build.
  for (net::NodeId s : w.sources) routing.spt(s);

  ModeResult r;
  const std::vector<net::LinkId>* restore = nullptr;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < w.batch_cuts.size(); ++b) {
    if (restore != nullptr) {
      for (net::LinkId id : *restore) topo.set_link_up(id, true);
    }
    for (net::LinkId id : w.batch_cuts[b]) topo.set_link_up(id, false);
    restore = &w.batch_cuts[b];
    for (std::size_t i = 0; i < w.sources.size(); ++i) {
      const net::Spt& t = routing.spt(w.sources[i]);
      // O(1) probe per tree keeps the measured cost the tree maintenance
      // itself; the probe node walks the graph across batches.
      const auto probe = static_cast<net::NodeId>((b + i) % t.dist.size());
      if (!std::isinf(t.dist[probe])) {
        r.checksum += t.dist[probe] + t.hops[probe];
      }
      ++r.trees;
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  r.wall_seconds = wall.count();
  return r;
}

}  // namespace
}  // namespace srm::bench

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(1995);
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 500));
  const auto edges = static_cast<std::size_t>(flags.get_int("edges", 700));
  const auto sources = static_cast<std::size_t>(flags.get_int("sources", 48));
  const auto batches = static_cast<std::size_t>(flags.get_int("batches", 150));
  const int trials = static_cast<int>(flags.get_int("trials", 3));
  const std::string json_path =
      flags.get_string("bench-json", "BENCH_routing.json");
  util::PerfJson json(json_path, "routing_dynamics");

  bench::print_header(
      "Routing dynamics: journal repair vs full rebuild under link churn",
      seed,
      "random graph N=" + std::to_string(nodes) + ", E=" +
          std::to_string(edges) + "; " + std::to_string(sources) +
          " source trees queried after each of " + std::to_string(batches) +
          " churn batches; identical edit sequence per mode");

  util::Table table({"links cut/batch", "repair trees/s", "rebuild trees/s",
                     "speedup", "checksum"});
  bool all_passed = true;
  double churn10_speedup = 0.0;
  util::Rng rng(seed);
  for (const std::size_t churn : {2u, 5u, 10u}) {
    const bench::ChurnWorkload w =
        bench::make_workload(nodes, edges, sources, batches, churn, rng);
    const bench::ModeResult rebuild = bench::run_mode(w, /*repair=*/false);
    const bench::ModeResult repair = bench::run_mode(w, /*repair=*/true);
    const bool same = repair.checksum == rebuild.checksum;
    all_passed = all_passed && same;

    const double repair_tps =
        repair.wall_seconds > 0 ? repair.trees / repair.wall_seconds : 0.0;
    const double rebuild_tps =
        rebuild.wall_seconds > 0 ? rebuild.trees / rebuild.wall_seconds : 0.0;
    const double speedup = rebuild_tps > 0 ? repair_tps / rebuild_tps : 0.0;
    if (churn == 10u) churn10_speedup = speedup;
    table.add_row({util::Table::num(churn), util::Table::num(repair_tps, 0),
                   util::Table::num(rebuild_tps, 0),
                   util::Table::num(speedup, 2) + "x",
                   same ? "match" : "MISMATCH"});

    const std::string prefix = "churn" + std::to_string(churn) + "_";
    json.set(prefix + "repair_trees_per_second", repair_tps);
    json.set(prefix + "rebuild_trees_per_second", rebuild_tps);
    json.set(prefix + "speedup", speedup);  // informational (unsuffixed)
  }
  table.print(std::cout);

  // Part 2: the same end-to-end scenario as bench/fault_churn.cpp, run with
  // repair on and off.  Virtual-time results must match exactly (repaired
  // trees are bit-identical), so only wall time may differ.
  util::Rng frng(seed + 1);
  std::vector<bench::FaultTrialSpec> specs;
  for (int t = 0; t < trials; ++t) {
    specs.push_back(bench::make_fault_trial_spec(
        /*nodes=*/100, /*group=*/40, /*cycles=*/10, /*rounds=*/4, frng));
  }

  double wall_by_mode[2] = {0.0, 0.0};
  std::vector<harness::FaultTrial> results_by_mode[2];
  for (int mode = 0; mode < 2; ++mode) {
    const bool repair = mode == 1;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& spec : specs) {
      results_by_mode[mode].push_back(bench::run_fault_trial(spec, repair));
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    wall_by_mode[mode] = wall.count();
  }
  bool behavior_identical = true;
  for (int t = 0; t < trials; ++t) {
    const auto& a = results_by_mode[0][static_cast<std::size_t>(t)];
    const auto& b = results_by_mode[1][static_cast<std::size_t>(t)];
    behavior_identical = behavior_identical && a.report == b.report &&
                         a.disrupted_rounds == b.disrupted_rounds;
  }
  all_passed = all_passed && behavior_identical;
  const double fault_speedup =
      wall_by_mode[1] > 0 ? wall_by_mode[0] / wall_by_mode[1] : 0.0;
  std::cout << "\nfault_churn end-to-end (" << trials
            << " trials, churn cycles=10): rebuild wall="
            << util::Table::num(wall_by_mode[0], 3)
            << "s repair wall=" << util::Table::num(wall_by_mode[1], 3)
            << "s (" << util::Table::num(fault_speedup, 2)
            << "x), virtual-time behavior "
            << (behavior_identical ? "identical" : "DIVERGED") << "\n";

  const bool speedup_ok = churn10_speedup >= 3.0;
  all_passed = all_passed && speedup_ok;
  std::cout << "\nPaper check: repaired trees match full recomputation on an\n"
               "identical churn sequence, end-to-end fault behavior is\n"
               "unchanged, and repair serves trees >= 3x faster than rebuild\n"
               "at 10 links cut per batch ("
            << util::Table::num(churn10_speedup, 2) << "x): "
            << (all_passed ? "PASS" : "FAIL") << "\n";

  if (!json_path.empty()) {
    json.set("fault_rebuild_wall_seconds", wall_by_mode[0]);
    json.set("fault_repair_wall_seconds", wall_by_mode[1]);
    json.set("fault_wall_speedup", fault_speedup);  // informational
    json.save();
    std::cout << "[perf] " << json_path << " updated (routing_dynamics)\n";
  }
  return all_passed ? 0 : 1;
}
