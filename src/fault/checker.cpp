#include "fault/checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

namespace srm::fault {

namespace {

std::string format_seconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// How one member's loss of one ADU ended, as its story tells it.
struct LossOutcome {
  double detected_at = 0.0;
  std::optional<double> recovered_at;  // unset: not (yet) recovered
  bool abandoned = false;
};

}  // namespace

CheckerReport RecoveryInvariantChecker::check(
    const std::vector<trace::Event>& events,
    const std::vector<FaultInjector::Window>& windows,
    double end_of_trace) const {
  RecoveryInvariantChecker fresh(options_);
  for (const trace::Event& ev : events) fresh.observe(ev);
  return fresh.finish(windows, end_of_trace);
}

void RecoveryInvariantChecker::observe(const trace::Event& ev) {
  timeline_.add(ev);
  switch (ev.type) {
    case trace::EventType::kSrmAdaptReq:
    case trace::EventType::kSrmAdaptRep:
      adapt_times_.push_back(ev.t);
      break;
    case trace::EventType::kFaultCrash:
    case trace::EventType::kFaultLeave:
      departures_[ev.actor].push_back(ev.t);
      break;
    default:
      break;
  }
}

CheckerReport RecoveryInvariantChecker::finish(
    const std::vector<FaultInjector::Window>& windows,
    double end_of_trace) const {
  CheckerReport report;

  // A member's loss, recovered and abandoned entries in a story set, in
  // trace order, the outcome of its (member, ADU) loss; std::map keeps those
  // in (member, ADU) order.  Request and repair entries feed invariant 2.
  std::map<std::pair<std::uint64_t, trace::AduKey>, LossOutcome> losses;
  std::vector<double> send_times;
  for (const trace::RecoveryStory& story : timeline_.stories()) {
    for (const trace::StoryEntry& e : story.entries) {
      if (e.type == trace::EventType::kSrmReqSend ||
          e.type == trace::EventType::kSrmRepSend) {
        send_times.push_back(e.t);
      } else if (e.type == trace::EventType::kSrmLoss) {
        LossOutcome& rec = losses[{e.actor, story.adu}];
        rec.detected_at = e.t;  // re-detection restarts the clock
        rec.recovered_at.reset();
        rec.abandoned = false;
      } else if (e.type == trace::EventType::kSrmRecovered) {
        LossOutcome& rec = losses[{e.actor, story.adu}];
        rec.recovered_at = e.t;
        rec.abandoned = false;
      } else if (e.type == trace::EventType::kSrmAbandoned) {
        losses[{e.actor, story.adu}].abandoned = true;
      }
    }
  }

  // ---- invariant 1: eventual repair ---------------------------------------
  std::vector<FaultInjector::Window> sorted_windows = windows;
  std::sort(sorted_windows.begin(), sorted_windows.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });

  // Effective deadline for a loss detected at t: the base deadline, pushed
  // past every overlapping disruption window (one forward pass suffices —
  // extending the deadline only pulls in windows with later starts).
  const auto effective_deadline = [&](double detected_at,
                                      bool* unhealed) -> double {
    double eff = detected_at + options_.deadline;
    *unhealed = false;
    for (const FaultInjector::Window& w : sorted_windows) {
      if (w.start >= eff) break;
      if (w.end <= detected_at) continue;  // closed before the loss
      if (std::isinf(w.end)) {
        *unhealed = true;
        return eff;
      }
      eff = std::max(eff, w.end + options_.deadline);
    }
    return eff;
  };

  const auto departed_after = [&](std::uint64_t member, double t) {
    const auto it = departures_.find(member);
    if (it == departures_.end()) return false;
    for (double d : it->second) {
      if (d >= t) return true;
    }
    return false;
  };

  for (const auto& [key, rec] : losses) {
    ++report.losses;
    if (rec.recovered_at) {
      ++report.recovered;
      report.recovery_latencies.push_back(*rec.recovered_at - rec.detected_at);
    }
    bool unhealed = false;
    const double eff = effective_deadline(rec.detected_at, &unhealed);
    if (rec.recovered_at && *rec.recovered_at <= eff) continue;  // in time
    if (!rec.recovered_at && departed_after(key.first, rec.detected_at)) {
      ++report.exempt_departed;
      continue;
    }
    if (unhealed) {
      ++report.exempt_unhealed;
      continue;
    }
    if (eff > end_of_trace) {
      ++report.pending_past_trace;
      continue;
    }
    UnrecoveredLoss v;
    v.member = key.first;
    v.source = key.second.source;
    v.page_creator = key.second.page_creator;
    v.page_number = key.second.page_number;
    v.seq = key.second.seq;
    v.detected_at = rec.detected_at;
    v.deadline_at = eff;
    v.abandoned = rec.abandoned;
    report.unrecovered.push_back(v);
  }

  // ---- invariant 2: no repair storms --------------------------------------
  std::sort(send_times.begin(), send_times.end());
  std::size_t j = 0;
  for (std::size_t i = 0; i < send_times.size(); ++i) {
    if (j < i) j = i;
    while (j < send_times.size() &&
           send_times[j] < send_times[i] + options_.storm_window) {
      ++j;
    }
    const std::size_t count = j - i;
    if (count > report.worst_window_count) {
      report.worst_window_count = count;
      report.worst_window_start = send_times[i];
    }
    if (count > options_.storm_budget) ++report.storm_violations;
  }

  // ---- invariant 3: continued adaptation ----------------------------------
  if (options_.require_adaptation) {
    std::vector<double> adapt_times = adapt_times_;
    std::sort(adapt_times.begin(), adapt_times.end());
    for (const FaultInjector::Window& w : sorted_windows) {
      bool losses_after = false;
      for (const auto& [key, rec] : losses) {
        if (rec.detected_at > w.start) {
          losses_after = true;
          break;
        }
      }
      if (!losses_after) continue;
      const bool adapted =
          std::upper_bound(adapt_times.begin(), adapt_times.end(), w.start) !=
          adapt_times.end();
      if (!adapted) ++report.adaptation_failures;
    }
  }

  report.passed = report.unrecovered.empty() &&
                  report.storm_violations == 0 &&
                  report.adaptation_failures == 0;
  return report;
}

std::string CheckerReport::summary() const {
  std::string out;
  out += passed ? "recovery invariants: PASS\n" : "recovery invariants: FAIL\n";
  out += "  losses detected:      " + std::to_string(losses) + "\n";
  out += "  recovered:            " + std::to_string(recovered) + "\n";
  out += "  exempt (departed):    " + std::to_string(exempt_departed) + "\n";
  out += "  exempt (unhealed):    " + std::to_string(exempt_unhealed) + "\n";
  out += "  pending past trace:   " + std::to_string(pending_past_trace) +
         "\n";
  out += "  unrecovered:          " + std::to_string(unrecovered.size()) +
         "\n";
  for (const UnrecoveredLoss& v : unrecovered) {
    out += "    member " + std::to_string(v.member) + " adu(" +
           std::to_string(v.source) + "," + std::to_string(v.page_creator) +
           "," + std::to_string(v.page_number) + "," + std::to_string(v.seq) +
           ") detected " + format_seconds(v.detected_at) + "s deadline " +
           format_seconds(v.deadline_at) + "s" +
           (v.abandoned ? " [abandoned]" : "") + "\n";
  }
  out += "  storm violations:     " + std::to_string(storm_violations) +
         " (worst window " + std::to_string(worst_window_count) +
         " sends at " + format_seconds(worst_window_start) + "s)\n";
  out += "  adaptation failures:  " + std::to_string(adaptation_failures) +
         "\n";
  return out;
}

}  // namespace srm::fault
