// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 repeats the workload (set-up + measured phase, each from
// scratch) in whole cycles over its instances, seeded from N, until S
// seconds have passed, and prints the end-to-end metrics: medians of the
// timings, the deterministic outcome pooled over the instances.
// --trace 1 runs, on the first instance, untraced and traced reps (spans,
// counting trace sink, recovery folds), a wire-codec rep and, on the
// parallel kernel, a sequential-kernel rep and a multi-worker rep, and
// prints the per-layer metrics; the spans go to DIR/spans-NAME-seedN.jsonl.
// Every rep checks its outputs, and reps of one instance must agree
// exactly.  The last line of standard output is the JSON result.
#include <sys/stat.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kSubSeedSalt = 0x5EED5u;
constexpr std::size_t kMaxReps = 48;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Deterministic outcome shared by the sequential and parallel kernels (the
// routing caches are per region network, so their counters differ).
std::string kernel_free_digest(Counts c) {
  c.routing_full_builds = c.routing_repairs = c.routing_fallbacks = 0;
  return c.digest();
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const RepResult& r) {
    attempted += r.checks;
    failed += r.failures;
    for (const std::string& note : r.notes) std::cout << "# FAIL " << note << "\n";
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cout << "# FAIL " << what << "\n";
    }
  }
};

// The seed of rep i of a workload with `instances` instances: the run's
// deterministic outcome is pooled over the instances, which narrows its
// spread across run seeds; later reps cycle through the same instances for
// timing.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t rep,
                       std::size_t instances) {
  return srm::util::keyed_u64(seed, kSubSeedSalt, rep % instances, 0);
}

Metrics end_to_end(const Args& args, const WorkloadDef& def, Tally& tally) {
  const std::size_t k = def.instances;
  std::vector<RepResult> reps;
  const double start = now_s();
  // Whole cycles of instances, so every instance is timed equally often.
  while (reps.size() < k ||
         (now_s() - start < args.seconds && reps.size() < kMaxReps) ||
         reps.size() % k != 0) {
    RepOptions opts;
    opts.seed = sub_seed(args.seed, reps.size(), k);
    reps.push_back(def.rep(opts));
    tally.add(reps.back());
    if (reps.size() > k) {
      const RepResult& first = reps[(reps.size() - 1) % k];
      tally.check(reps.back().counts.digest() == first.counts.digest(),
                  def.name + ": rep outcome differs from the same instance's "
                             "first rep");
    }
  }
  std::vector<double> setup, run;
  for (const RepResult& r : reps) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    run.push_back(r.run_s);
  }
  Counts c;
  for (std::size_t i = 0; i < k; ++i) c.add(reps[i].counts);
  tally.check(c.stories > 0, def.name + ": no losses were detected");
  std::vector<double> recovery_ms;
  for (double s : c.recovery_s) recovery_ms.push_back(s * 1000.0);
  std::cout << "# reps=" << reps.size() << " setups=" << setup.size()
            << " stories=" << c.stories << " recovery_samples="
            << recovery_ms.size() << " run_s:";
  for (double s : run) std::cout << ' ' << s;
  std::cout << "\n";

  Metrics m;
  m["setup_s"] = {median(setup), "s"};
  m["run_s"] = {median(run), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["requests_per_loss"] = {
      ratio(static_cast<double>(c.requests), static_cast<double>(c.stories)),
      "1/loss"};
  m["repairs_per_loss"] = {
      ratio(static_cast<double>(c.repairs), static_cast<double>(c.stories)),
      "1/loss"};
  m["recovery_p50_ms"] = {quantile(recovery_ms, 0.5), "ms"};
  m["recovery_p99_ms"] = {quantile(recovery_ms, 0.99), "ms"};
  m["recovered_frac"] = {
      ratio(static_cast<double>(c.recoveries), static_cast<double>(c.losses)),
      "ratio"};
  return m;
}

Metrics per_layer(const Args& args, const WorkloadDef& def, Tally& tally) {
  RepOptions plain;
  plain.seed = sub_seed(args.seed, 0, def.instances);
  RepOptions traced = plain;
  traced.traced = true;
  RepOptions codec = plain;
  codec.codec = true;

  // Untraced and traced reps alternate while time remains.
  std::vector<RepResult> untraced_reps, traced_reps;
  const double start = now_s();
  do {
    untraced_reps.push_back(def.rep(plain));
    tally.add(untraced_reps.back());
    traced_reps.push_back(def.rep(traced));
    tally.add(traced_reps.back());
  } while (now_s() - start < args.seconds && traced_reps.size() < 5);
  const RepResult codec_rep = def.rep(codec);
  tally.add(codec_rep);

  const RepResult& a = untraced_reps.front();
  const RepResult& b = traced_reps.front();
  for (const auto* reps : {&untraced_reps, &traced_reps}) {
    for (const RepResult& r : *reps) {
      tally.check(r.counts.digest() == a.counts.digest(),
                  def.name + ": traced and untraced reps disagree");
    }
  }
  tally.check(codec_rep.counts.digest() == a.counts.digest(),
              def.name + ": codec rep disagrees with the untraced rep");
  tally.check(codec_rep.codec.frames > 0, def.name + ": no frames encoded");
  tally.attempted += codec_rep.codec.frames;
  tally.failed += codec_rep.codec.failures;
  if (codec_rep.codec.failures > 0) {
    std::cout << "# FAIL " << def.name << ": " << codec_rep.codec.failures
              << " wire round trips did not reproduce the packet\n";
  }

  double speedup = 0.0;
  if (def.speedup_threads > 0) {
    RepOptions sequential = plain;
    sequential.kernel_threads = 0;
    const RepResult seq = def.rep(sequential);
    tally.add(seq);
    tally.check(kernel_free_digest(seq.counts) == kernel_free_digest(a.counts),
                def.name + ": parallel kernel disagrees with the sequential "
                           "kernel");
    RepOptions parallel = plain;
    parallel.kernel_threads = static_cast<int>(def.speedup_threads);
    const RepResult par = def.rep(parallel);
    tally.add(par);
    tally.check(par.counts.digest() == a.counts.digest(),
                def.name + ": outcome depends on the kernel's worker count");
    speedup = ratio(seq.sim_run_s, par.sim_run_s);
  }

  std::vector<double> untraced_sim, traced_sim;
  for (const RepResult& r : untraced_reps) untraced_sim.push_back(r.sim_run_s);
  for (const RepResult& r : traced_reps) {
    traced_sim.push_back(r.spans.self_seconds("sim.run"));
  }
  const auto span_median = [&traced_reps](const char* name) {
    std::vector<double> v;
    for (const RepResult& r : traced_reps) v.push_back(r.spans.self_seconds(name));
    return median(v);
  };

  const Counts& c = b.counts;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  Metrics m;
  m["topo.build_s"] = {span_median("topo.build"), "s"};
  m["harness.session_build_s"] = {span_median("harness.session_build"), "s"};
  m["harness.scenario_s"] = {span_median("harness.scenario"), "s"};
  m["net.routing.full_builds"] = {n(c.routing_full_builds), "count"};
  m["net.routing.repairs"] = {n(c.routing_repairs), "count"};
  m["net.routing.fallbacks"] = {n(c.routing_fallbacks), "count"};
  m["net.deliveries"] = {n(c.net.deliveries), "count"};
  m["net.link_transmissions"] = {n(c.net.link_transmissions), "count"};
  m["net.drops"] = {n(c.net.drops), "count"};
  m["net.multicasts_sent"] = {n(c.net.multicasts_sent), "count"};
  m["net.in_flight_invalidated"] = {n(c.net.in_flight_invalidated), "count"};
  m["sim.events"] = {n(c.sim_events), "count"};
  m["sim.run_s"] = {median(traced_sim), "s"};
  m["sim.pdes.windows"] = {n(b.kernel.windows), "count"};
  m["sim.pdes.global_phases"] = {n(b.kernel.global_phases), "count"};
  m["sim.pdes.global_phase_frac"] = {
      ratio(n(b.kernel.global_phases),
            n(b.kernel.windows + b.kernel.global_phases)),
      "ratio"};
  m["sim.pdes.events_per_window"] = {
      ratio(n(b.kernel.region_events), n(b.kernel.windows)), "count"};
  m["sim.pdes.cross_region_deliveries"] = {
      n(b.kernel.cross_region_deliveries), "count"};
  m["sim.pdes.speedup"] = {speedup, "ratio"};
  m["srm.requests"] = {n(c.requests), "count"};
  m["srm.repairs"] = {n(c.repairs), "count"};
  m["srm.dup_requests_heard"] = {n(c.dup_requests_heard), "count"};
  m["srm.dup_repairs_heard"] = {n(c.dup_repairs_heard), "count"};
  m["srm.abandoned"] = {n(c.abandoned), "count"};
  m["srm.stories"] = {n(c.stories), "count"};
  m["srm.recovery_samples"] = {n(c.recovery_s.size()), "count"};
  for (const char* key :
       {"srm.session.reports", "srm.session.wheel_buckets",
        "srm.session.peers_heard_mean", "srm.session.distance_error_p50",
        "fault.plan_events", "fault.checker_storm_windows",
        "fault.checker_worst_window", "workload.actions", "workload.joins",
        "workload.departures"}) {
    m[key] = {0.0, "count"};
  }
  m["srm.session.distance_error_p50"].unit = "ratio";
  m["trace.sim_events"] = {n(b.trace.sim), "count"};
  m["trace.net_events"] = {n(b.trace.net), "count"};
  m["trace.srm_events"] = {n(b.trace.srm), "count"};
  m["trace.fault_events"] = {n(b.trace.fault), "count"};
  m["trace.timeline_fold_s"] = {span_median("trace.timeline_fold"), "s"};
  m["fault.checker_fold_s"] = {span_median("fault.checker_fold"), "s"};
  m["workload.generate_s"] = {span_median("workload.generate"), "s"};
  m["transport.frames"] = {n(codec_rep.codec.frames), "count"};
  m["transport.frame_bytes_p99"] = {quantile(codec_rep.codec.bytes, 0.99),
                                    "B"};
  m["transport.frames_over_1300b"] = {n(codec_rep.codec.over_1300b), "count"};
  m["transport.codec_ns_per_frame"] = {
      ratio(codec_rep.codec.seconds * 1e9, n(codec_rep.codec.frames)), "ns"};
  // Workload-specific numbers, and overrides where a workload measures a
  // layer its own way (churn's replay).
  for (const auto& [name, metric] : b.layer) m[name] = metric;

  m["net.deliveries_per_multicast"] = {
      ratio(m["net.deliveries"].value, m["net.multicasts_sent"].value),
      "ratio"};
  m["sim.events_per_delivery"] = {
      ratio(m["sim.events"].value, m["net.deliveries"].value), "ratio"};
  if (!m.count("sim.events_per_s")) {
    m["sim.events_per_s"] = {ratio(m["sim.events"].value, median(untraced_sim)),
                             "1/s"};
  }
  if (!m.count("trace.overhead_frac")) {
    m["trace.overhead_frac"] = {
        ratio(median(traced_sim), median(untraced_sim)) - 1.0, "ratio"};
  }

  mkdir(args.out.c_str(), 0755);
  const std::string path = args.out + "/spans-" + def.name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!write_spans(path, b.spans)) {
    std::cerr << "perfbench: cannot write " << path << "\n";
  }
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n";
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads()) {
    if (w.name == args.workload) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::cout << "# env " << environment_json() << "\n";
  Tally tally;
  const Metrics metrics = args.trace ? per_layer(args, *def, tally)
                                     : end_to_end(args, *def, tally);
  for (const auto& [name, metric] : metrics) {
    if (!valid_metric_name(name)) {
      std::cerr << "perfbench: invalid metric name '" << name << "'\n";
      return 3;
    }
  }
  std::cout << "# env " << environment_json() << "\n";
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
