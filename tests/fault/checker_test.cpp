#include "fault/checker.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "trace/timeline.h"
#include "trace/trace.h"

namespace srm::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

trace::Event ev(trace::EventType type, double t, std::uint64_t actor,
                std::uint64_t seq = 0) {
  trace::Event e;
  e.type = type;
  e.t = t;
  e.actor = actor;
  e.a = 1;  // ADU name: source 1, page (1, 0), seq in d
  e.b = 1;
  e.c = 0;
  e.d = seq;
  return e;
}

CheckerOptions opts(double deadline = 100.0) {
  CheckerOptions o;
  o.deadline = deadline;
  return o;
}

// Judges `events` with check() and, streamed, through a fresh checker's
// Sink interface followed by finish(); every case below thereby asserts the
// two paths give an identical report (verdict, counts, violation list,
// storm figures and latency order), and that the stories the streamed
// checker judged are the ones RecoveryTimeline::fold tells.
CheckerReport judge(const CheckerOptions& o,
                    const std::vector<trace::Event>& events,
                    const std::vector<FaultInjector::Window>& windows,
                    double end_of_trace) {
  const CheckerReport batch =
      RecoveryInvariantChecker(o).check(events, windows, end_of_trace);
  RecoveryInvariantChecker streamed(o);
  trace::Sink& sink = streamed;
  for (const trace::Event& e : events) sink.on_event(e);
  EXPECT_EQ(streamed.finish(windows, end_of_trace), batch);
  EXPECT_EQ(streamed.timeline().summary(),
            trace::RecoveryTimeline::fold(events).summary());
  return batch;
}

TEST(CheckerTest, EmptyTracePasses) {
  const auto report = judge({}, {}, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 0u);
}

TEST(CheckerTest, RecoveredInTimePassesAndRecordsLatency) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmRecovered, 14.5, 2),
  };
  const auto report = judge(opts(), events, {}, 100.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 1u);
  EXPECT_EQ(report.recovered, 1u);
  ASSERT_EQ(report.recovery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_latencies[0], 4.5);
}

TEST(CheckerTest, UnrecoveredPastDeadlineFails) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_EQ(report.unrecovered[0].member, 2u);
  EXPECT_DOUBLE_EQ(report.unrecovered[0].deadline_at, 60.0);
  EXPECT_FALSE(report.unrecovered[0].abandoned);
}

TEST(CheckerTest, AbandonedLossIsFlagged) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmAbandoned, 20.0, 2),
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_TRUE(report.unrecovered[0].abandoned);
}

TEST(CheckerTest, DeadlineBeyondTraceIsPendingNotViolation) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report = judge(opts(100.0), events, {}, 50.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.pending_past_trace, 1u);
}

TEST(CheckerTest, DepartedMemberIsExempt) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kFaultCrash, 20.0, 2),
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.exempt_departed, 1u);
}

TEST(CheckerTest, DepartureBeforeLossDoesNotExempt) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kFaultLeave, 5.0, 2),
      ev(trace::EventType::kSrmLoss, 10.0, 2),  // rejoined and lost again
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  EXPECT_FALSE(report.passed);
  EXPECT_EQ(report.exempt_departed, 0u);
}

TEST(CheckerTest, OverlappingWindowExtendsDeadline) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmRecovered, 115.0, 2),  // late vs. base deadline
  };
  const std::vector<FaultInjector::Window> windows{{15.0, 100.0}};
  // Base deadline 10 + 20 = 30, but the window [15, 100] overlaps it, so the
  // effective deadline is 100 + 20 = 120 and the recovery at 115 is in time.
  const auto report = judge(opts(20.0), events, windows, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.recovered, 1u);
}

TEST(CheckerTest, ClosedWindowBeforeLossDoesNotExtend) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{1.0, 5.0}};
  const auto report = judge(opts(20.0), events, windows, 1000.0);
  EXPECT_FALSE(report.passed);
  ASSERT_EQ(report.unrecovered.size(), 1u);
  EXPECT_DOUBLE_EQ(report.unrecovered[0].deadline_at, 30.0);
}

TEST(CheckerTest, UnhealedDisruptionExemptsOverlappingLosses) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{5.0, kInf}};
  const auto report = judge(opts(20.0), events, windows, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.exempt_unhealed, 1u);
}

TEST(CheckerTest, RedetectionRestartsTheClock) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
      ev(trace::EventType::kSrmLoss, 500.0, 2),  // same ADU, detected again
      ev(trace::EventType::kSrmRecovered, 510.0, 2),
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.losses, 1u);  // one (member, ADU) pair
  ASSERT_EQ(report.recovery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(report.recovery_latencies[0], 10.0);
}

TEST(CheckerTest, DistinctAdusAndMembersAreSeparateLosses) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2, /*seq=*/0),
      ev(trace::EventType::kSrmLoss, 10.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmLoss, 10.0, 3, /*seq=*/0),
      ev(trace::EventType::kSrmRecovered, 20.0, 2, /*seq=*/0),
      ev(trace::EventType::kSrmRecovered, 20.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmRecovered, 20.0, 3, /*seq=*/0),
  };
  const auto report = judge(opts(), events, {}, 100.0);
  EXPECT_EQ(report.losses, 3u);
  EXPECT_EQ(report.recovered, 3u);
  EXPECT_TRUE(report.passed);
}

TEST(CheckerTest, StormViolationWhenBudgetExceeded) {
  CheckerOptions o;
  o.storm_window = 1.0;
  o.storm_budget = 10;
  std::vector<trace::Event> events;
  for (int i = 0; i < 12; ++i) {
    events.push_back(
        ev(trace::EventType::kSrmReqSend, 50.0 + i * 0.01, 2));
  }
  const auto report = judge(o, events, {}, 100.0);
  EXPECT_FALSE(report.passed);
  EXPECT_GT(report.storm_violations, 0u);
  EXPECT_EQ(report.worst_window_count, 12u);
  EXPECT_DOUBLE_EQ(report.worst_window_start, 50.0);
}

TEST(CheckerTest, SpreadOutSendsAreNotAStorm) {
  CheckerOptions o;
  o.storm_window = 1.0;
  o.storm_budget = 10;
  std::vector<trace::Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(ev(trace::EventType::kSrmRepSend, i * 2.0, 2));
  }
  const auto report = judge(o, events, {}, 1000.0);
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.storm_violations, 0u);
  EXPECT_EQ(report.worst_window_count, 1u);
}

TEST(CheckerTest, AdaptationRequiredAfterDisruptionWithLosses) {
  CheckerOptions o;
  o.require_adaptation = true;
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 30.0, 2),
      ev(trace::EventType::kSrmRecovered, 35.0, 2),
  };
  const std::vector<FaultInjector::Window> windows{{10.0, 20.0}};
  const auto no_adapt = judge(o, events, windows, 1000.0);
  EXPECT_FALSE(no_adapt.passed);
  EXPECT_EQ(no_adapt.adaptation_failures, 1u);

  std::vector<trace::Event> with_adapt = events;
  with_adapt.push_back(ev(trace::EventType::kSrmAdaptReq, 32.0, 2));
  const auto adapted = judge(o, with_adapt, windows, 1000.0);
  EXPECT_TRUE(adapted.passed);
  EXPECT_EQ(adapted.adaptation_failures, 0u);
}

TEST(CheckerTest, LatenciesFollowMemberAduOrderNotTraceOrder) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 3),
      ev(trace::EventType::kSrmLoss, 11.0, 2),
      ev(trace::EventType::kSrmRecovered, 12.0, 3),
      ev(trace::EventType::kSrmRecovered, 15.0, 2),
  };
  const auto report = judge(opts(), events, {}, 100.0);
  EXPECT_EQ(report.recovery_latencies, (std::vector<double>{4.0, 2.0}));

  // Seq 1's story opens before seq 0's: latencies still follow the ADUs.
  const std::vector<trace::Event> reversed{
      ev(trace::EventType::kSrmLoss, 10.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmLoss, 11.0, 2, /*seq=*/0),
      ev(trace::EventType::kSrmRecovered, 12.0, 2, /*seq=*/1),
      ev(trace::EventType::kSrmRecovered, 15.0, 2, /*seq=*/0),
  };
  const auto by_adu = judge(opts(), reversed, {}, 100.0);
  EXPECT_EQ(by_adu.recovery_latencies, (std::vector<double>{4.0, 2.0}));
}

TEST(CheckerTest, StreamedStateIsSeparateFromCheck) {
  const std::vector<trace::Event> lost{ev(trace::EventType::kSrmLoss, 10, 2)};
  RecoveryInvariantChecker checker(opts(50.0));
  checker.observe(lost[0]);
  // check() judges only its argument, never what the checker observed.
  EXPECT_TRUE(checker.check({}, {}, 1000.0).passed);
  const CheckerReport once = checker.finish({}, 1000.0);
  EXPECT_FALSE(once.passed);
  EXPECT_EQ(checker.finish({}, 1000.0), once);  // finish() is repeatable
  checker.observe(ev(trace::EventType::kSrmRecovered, 20.0, 2));
  EXPECT_TRUE(checker.finish({}, 1000.0).passed);
}

TEST(CheckerTest, SummaryMentionsVerdictAndViolations) {
  const std::vector<trace::Event> events{
      ev(trace::EventType::kSrmLoss, 10.0, 2),
  };
  const auto report = judge(opts(50.0), events, {}, 1000.0);
  const std::string s = report.summary();
  EXPECT_NE(s.find("FAIL"), std::string::npos);
  EXPECT_NE(s.find("member 2"), std::string::npos);
  const auto ok = judge(opts(), {}, {}, 1.0);
  EXPECT_NE(ok.summary().find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace srm::fault
