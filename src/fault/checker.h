// RecoveryInvariantChecker: asserts SRM's recovery guarantees over a trace.
//
// The paper's core robustness claim is that loss recovery keeps working
// through network dynamics: "as long as one member has a copy of the data,
// it is available to the group" and the protocol adapts rather than
// collapsing under churn (Sec. III, VII-A).  This checker folds a structured
// trace (trace/trace.h) — srm-category recovery events plus fault-category
// disruption events — into a pass/fail report over three invariants:
//
//   1. Eventual repair: every loss detected at a member that survives to the
//      end of the trace is recovered within `deadline` seconds — where the
//      clock pauses across disruption windows (an open partition cannot be
//      recovered across; the deadline restarts when the last overlapping
//      window closes).  Losses at members that crash or leave before their
//      deadline are exempt, as are losses whose (extended) deadline falls
//      beyond the end of the trace (run longer to judge them).
//   2. No repair storms: the total rate of request + repair transmissions
//      never exceeds `storm_budget` packets in any `storm_window`-second
//      sliding window.
//   3. Continued adaptation (optional): after each disruption window with
//      subsequent losses, the adaptive timer machinery keeps producing
//      parameter updates (at least one adapt_req/adapt_rep event).
//
// The checker is pure analysis: feed it the events captured by any sink
// (VectorSink live, or read_jsonl/read_binary from a file) plus the
// injector's disruption windows.  It also runs as a stream: observe() each
// event as it is emitted (the checker is a trace::Sink, so a tracer can feed
// it directly), then finish() with the windows.  Its srm events go to a
// trace::RecoveryTimeline, whose per-ADU stories finish() judges: what one
// loss and its recovery latency are is decided there, once.  Streaming, it
// keeps those stories plus adaptation and departure times; never the trace.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/injector.h"
#include "trace/timeline.h"
#include "trace/trace.h"

namespace srm::fault {

struct CheckerOptions {
  // Seconds allowed between loss detection and recovery, measured outside
  // disruption windows as described above.
  double deadline = 100.0;
  // Sliding-window budget for invariant 2.
  double storm_window = 1.0;
  std::size_t storm_budget = 200;
  // Invariant 3 (off by default: scenarios with adaptation disabled or no
  // post-fault losses would fail vacuously).
  bool require_adaptation = false;
};

// One invariant-1 violation.
struct UnrecoveredLoss {
  std::uint64_t member = 0;  // SourceId of the detecting member
  std::uint64_t source = 0;  // ADU name (src, page creator/number, seq)
  std::uint64_t page_creator = 0;
  std::uint64_t page_number = 0;
  std::uint64_t seq = 0;
  double detected_at = 0.0;
  double deadline_at = 0.0;  // effective (window-extended) deadline
  bool abandoned = false;    // the agent gave up (vs. silently pending)

  friend bool operator==(const UnrecoveredLoss&,
                         const UnrecoveredLoss&) = default;
};

struct CheckerReport {
  bool passed = false;

  // Invariant 1 accounting.
  std::size_t losses = 0;                 // detections considered
  std::size_t recovered = 0;
  std::size_t exempt_departed = 0;        // member crashed/left first
  std::size_t exempt_unhealed = 0;        // disruption never closed
  std::size_t pending_past_trace = 0;     // deadline beyond end of trace
  std::vector<UnrecoveredLoss> unrecovered;

  // Invariant 2 accounting.
  std::size_t storm_violations = 0;       // windows over budget
  std::size_t worst_window_count = 0;     // max sends in any window
  double worst_window_start = 0.0;

  // Invariant 3 accounting.
  std::size_t adaptation_failures = 0;    // epochs with losses but no update

  // Per-recovery latencies (detection -> recovered, seconds), in (member,
  // ADU) order.  Bench harnesses take percentiles of this.
  std::vector<double> recovery_latencies;

  // Multi-line human-readable summary.
  std::string summary() const;

  friend bool operator==(const CheckerReport&, const CheckerReport&) = default;
};

class RecoveryInvariantChecker final : public trace::Sink {
 public:
  explicit RecoveryInvariantChecker(CheckerOptions options = {})
      : options_(options) {}

  // Analyzes a complete trace: observe() every event on a fresh checker
  // with these options, then finish().  Events this checker has observed
  // itself play no part.
  CheckerReport check(const std::vector<trace::Event>& events,
                      const std::vector<FaultInjector::Window>& windows,
                      double end_of_trace) const;

  // Folds one more event: srm events go to the timeline; adaptation updates
  // and fault-category departures are kept here; everything else is
  // ignored.
  void observe(const trace::Event& ev);
  void on_event(const trace::Event& event) override { observe(event); }

  // Judges the events observed so far.  `windows` are the injector's
  // disruption windows (pass {} when no faults were injected);
  // `end_of_trace` is the virtual time the simulation ran to (used to
  // classify losses whose deadline lies beyond the observed trace).
  CheckerReport finish(const std::vector<FaultInjector::Window>& windows,
                       double end_of_trace) const;

  const CheckerOptions& options() const { return options_; }
  // The recovery stories of the srm events observed so far.
  const trace::RecoveryTimeline& timeline() const { return timeline_; }

 private:
  CheckerOptions options_;
  trace::RecoveryTimeline timeline_;
  std::unordered_map<std::uint64_t, std::vector<double>> departures_;
  std::vector<double> adapt_times_;  // adaptive-parameter updates
};

}  // namespace srm::fault
