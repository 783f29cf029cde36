// What one repetition ("rep") of a workload measures, and the probes that
// gather it from the simulator's public API: agent hooks and metrics,
// network observers and stats, a counting trace sink, and the wire-codec
// round trip.  Nothing here reaches inside a module; every number is read
// at the boundary where the benchmark calls in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fault/checker.h"
#include "harness/session.h"
#include "net/network.h"
#include "trace/timeline.h"
#include "trace/trace.h"
#include "transport/wire.h"

namespace perfbench {

// What a rep does besides its own work.
struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;      // spans, counting trace sink, stream folds
  bool codec = false;       // wire round trip of every transmission
  // Parallel-kernel workloads: worker count, -1 for the workload's own
  // (0 runs the sequential kernel).
  int kernel_threads = -1;
};

// Deterministic outcome of one rep: two reps of one seed must agree exactly.
struct Counts {
  std::uint64_t stories = 0;   // distinct (source, page, seq) detected missing
  std::uint64_t requests = 0;  // REQUEST transmissions
  std::uint64_t repairs = 0;   // REPAIR transmissions
  std::uint64_t dup_requests_heard = 0;
  std::uint64_t dup_repairs_heard = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t losses = 0;      // (loss, member) pairs at members that stayed
  std::uint64_t recoveries = 0;  // of those, recovered
  std::vector<double> recovery_s;  // detection -> recovery, virtual seconds
  std::uint64_t sim_events = 0;    // summed run()/run_until() returns
  srm::net::NetworkStats net;
  std::uint64_t routing_full_builds = 0;
  std::uint64_t routing_repairs = 0;
  std::uint64_t routing_fallbacks = 0;
  std::uint64_t fingerprint = 0;  // workload-specific digest (churn)

  void add(const Counts& other);
  // Every field, recovery samples bit for bit.
  std::string digest() const;
};

struct TraceCounts {
  std::uint64_t sim = 0, net = 0, srm = 0, fault = 0;
};

struct KernelCounts {
  std::uint64_t windows = 0;
  std::uint64_t global_phases = 0;
  std::uint64_t region_events = 0;
  std::uint64_t cross_region_deliveries = 0;
};

struct CodecCounts {
  std::uint64_t frames = 0;
  std::uint64_t over_1300b = 0;
  std::uint64_t failures = 0;
  double seconds = 0.0;
  std::vector<double> bytes;
};

struct RepResult {
  explicit RepResult(bool traced) : spans(traced) {}

  std::vector<double> setup_s;  // one sample per set-up performed
  double run_s = 0.0;           // the measured phase
  double sim_run_s = 0.0;       // inside run()/run_until(), whole rep
  Counts counts;
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> notes;  // what failed

  // Traced and codec reps.
  SpanLog spans;
  Metrics layer;  // workload-specific per-layer metrics
  TraceCounts trace;
  KernelCounts kernel;
  CodecCounts codec;

  // Counts one output check; a failed one is noted and counted.
  void check(bool ok, const std::string& what);
  // Counts `n` obligations of which `failed` were not met.
  void check_many(std::uint64_t n, std::uint64_t failed,
                  const std::string& what);
};

// Collects loss stories through SrmAgent::AppHooks::on_loss_detected: one
// buffer per agent, so each buffer has a single writer even when agents run
// on different kernel workers.  Must outlive the session's last run.
class StoryBook {
 public:
  void attach_all(srm::harness::SimSession& session);
  std::uint64_t distinct() const;

 private:
  std::vector<std::unique_ptr<std::vector<srm::DataName>>> buffers_;
};

// Adds the session's agent metrics, network stats and routing stats to c.
void add_session_counts(srm::harness::SimSession& session, Counts& c);
void add_routing_stats(const srm::net::RoutingStats& stats, Counts& c);

// Counts every event per category and keeps the srm and fault events for
// the recovery folds.
class TraceCapture final : public srm::trace::Sink {
 public:
  void on_event(const srm::trace::Event& event) override;
  const std::vector<srm::trace::Event>& kept() const { return kept_; }
  const TraceCounts& counts() const { return counts_; }

 private:
  TraceCounts counts_;
  std::vector<srm::trace::Event> kept_;
};

struct Folded {
  srm::trace::RecoveryTimeline timeline;
  srm::fault::CheckerReport report;
};

// Folds a captured srm/fault stream with trace::RecoveryTimeline and
// fault::RecoveryInvariantChecker inside "trace.timeline_fold" and
// "fault.checker_fold" spans, and accumulates the checker's storm figures
// into r.layer.
Folded fold_stream(
    const std::vector<srm::trace::Event>& events,
    const std::vector<srm::fault::FaultInjector::Window>& windows,
    double end_of_trace, const srm::fault::CheckerOptions& options,
    RepResult& r);

// The wire check: `received` must decode, the decoded packet must encode to
// exactly `expected`, and so to exactly the bytes received.
bool frame_round_trips(const std::vector<std::uint8_t>& expected,
                       const std::uint8_t* received, std::size_t len,
                       srm::transport::DecodePools& pools,
                       std::vector<std::uint8_t>& scratch);

// Network observers for one session: the wire round trip of every
// transmission (opts.codec) and, under the parallel kernel, deliveries whose
// sender and receiver sit in different regions (opts.traced).  State is per
// region network, so each counter has one writer.  Restores the previous
// observers on destruction.
class NetProbe {
 public:
  NetProbe(srm::harness::SimSession& session, const RepOptions& opts);
  ~NetProbe();
  NetProbe(const NetProbe&) = delete;
  NetProbe& operator=(const NetProbe&) = delete;

  void add_to(RepResult& r) const;

 private:
  struct Lane {
    srm::transport::DecodePools pools;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> scratch;
    CodecCounts codec;
    std::uint64_t cross_region = 0;
    srm::net::MulticastNetwork::SendObserver previous_send;
    srm::net::MulticastNetwork::DeliveryObserver previous_delivery;
  };
  srm::harness::SimSession& session_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// Adds the parallel kernel's totals (no-op on the sequential kernel).
void add_kernel_stats(srm::harness::SimSession& session, RepResult& r);

}  // namespace perfbench
