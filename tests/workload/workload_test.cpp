// Workload suite: every generator is deterministic from its seed, every
// workload passes the recovery invariant checker under the sim backend, and
// the scripts actually exercise what their names promise.
#include "workload/workload.h"

#include <gtest/gtest.h>

#include <set>

#include "trace/timeline.h"
#include "trace/trace.h"

namespace srm::workload {
namespace {

TEST(WorkloadGenerators, RegistryCoversAllFour) {
  const auto names = workload_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& name : names) {
    const WorkloadSpec spec = make_workload(name, 8, 1);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.actions.empty()) << name;
    // Actions are time-sorted.
    for (std::size_t i = 1; i < spec.actions.size(); ++i) {
      EXPECT_LE(spec.actions[i - 1].at, spec.actions[i].at) << name;
    }
  }
  EXPECT_THROW(make_workload("nope", 8, 1), std::invalid_argument);
}

TEST(WorkloadGenerators, FlashCrowdJoinsLate) {
  const WorkloadSpec spec = make_flash_crowd(12, 3);
  std::size_t joins = 0, probes = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kJoin) {
      ++joins;
      EXPECT_GE(a.at, 3.0);  // the crowd arrives after the history exists
    }
    if (a.kind == Action::Kind::kPageProbe) ++probes;
  }
  EXPECT_EQ(joins, spec.peak_members - spec.initial_members);
  EXPECT_EQ(probes, joins);
}

TEST(WorkloadGenerators, ConferenceRotatesSpeakers) {
  const WorkloadSpec spec = make_conference(10, 3);
  std::set<std::uint32_t> speakers;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kSend) speakers.insert(a.member);
  }
  EXPECT_GE(speakers.size(), 2u);
}

TEST(WorkloadGenerators, DiurnalChurns) {
  const WorkloadSpec spec = make_diurnal(12, 3);
  std::size_t joins = 0, departs = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kJoin) ++joins;
    if (a.kind == Action::Kind::kLeave || a.kind == Action::Kind::kCrash) {
      ++departs;
    }
  }
  EXPECT_EQ(joins, spec.peak_members - spec.initial_members);
  EXPECT_EQ(departs, joins);
}

TEST(WorkloadGenerators, RepairStormDropsCorrelated) {
  const WorkloadSpec spec = make_repair_storm(11, 3);
  std::size_t drops = 0;
  for (const auto& a : spec.actions) {
    if (a.kind == Action::Kind::kDropOnce) ++drops;
  }
  // 6 bursts x 60% of 10 receivers.
  EXPECT_EQ(drops, 6u * 6u);
}

class WorkloadSim : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadSim, PassesCheckerAndIsDeterministic) {
  const WorkloadSpec spec = make_workload(GetParam(), /*members=*/10,
                                          /*seed=*/42);
  const WorkloadResult a = run_workload_sim(spec);
  EXPECT_TRUE(a.passed) << a.checker.summary();
  EXPECT_GT(a.data_sent, 0u);
  EXPECT_GT(a.losses, 0u) << "workload produced no recovery work";
  EXPECT_GT(a.recoveries, 0u);

  // Same spec, fresh world: bit-identical story digest.
  const WorkloadResult b = run_workload_sim(spec);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.losses, b.losses);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.scripted_drops, b.scripted_drops);
  EXPECT_DOUBLE_EQ(a.recovery_p99, b.recovery_p99);

  // A different seed reshuffles the script.
  const WorkloadResult c =
      run_workload_sim(make_workload(GetParam(), 10, 43));
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

// Golden outcomes of the sim runner, recorded before the runner folded its
// trace as it was emitted.  The fingerprint digests every story's counters
// and milestone actors, so a fold that drops, reorders or miscounts an event
// moves it.
struct Golden {
  const char* name;
  std::uint64_t fingerprint;
  std::size_t losses, requests, repairs, recoveries;
};

TEST(WorkloadGolden, FourGeneratorsAtFortyEightMembers) {
  const Golden golden[] = {
      {"flash-crowd", 6678916432972037363ull, 18, 88, 598, 498},
      {"conference", 11197298599199041051ull, 9, 9, 171, 9},
      {"diurnal", 7357864061410682286ull, 16, 121, 1214, 321},
      {"repair-storm", 7733691541297535505ull, 6, 41, 48, 168},
  };
  for (const Golden& g : golden) {
    const WorkloadResult r = run_workload_sim(make_workload(g.name, 48, 42));
    EXPECT_TRUE(r.passed) << g.name << "\n" << r.checker.summary();
    EXPECT_EQ(r.fingerprint, g.fingerprint) << g.name;
    EXPECT_EQ(r.losses, g.losses) << g.name;
    EXPECT_EQ(r.requests, g.requests) << g.name;
    EXPECT_EQ(r.repairs, g.repairs) << g.name;
    EXPECT_EQ(r.recoveries, g.recoveries) << g.name;
  }
}

// The benchmark's churn shape: diurnal at 400 peak members, scenario seed
// 42, protocol seed 1.  Millions of srm events, nearly all per-receiver
// request/repair hears.
TEST(WorkloadGolden, DiurnalFourHundredMembers) {
  WorkloadSpec spec = make_diurnal(400, 42);
  spec.seed = 1;
  const WorkloadResult r = run_workload_sim(spec);
  EXPECT_TRUE(r.passed) << r.checker.summary();
  EXPECT_EQ(r.fingerprint, 16602136773529529820ull);
  EXPECT_EQ(r.losses, 17u);
  EXPECT_EQ(r.requests, 290u);
  EXPECT_EQ(r.repairs, 14241u);
  EXPECT_EQ(r.recoveries, 2318u);
  EXPECT_EQ(r.checker.losses, 2318u);
  EXPECT_EQ(r.checker.recovered, 2318u);
  EXPECT_EQ(r.checker.worst_window_count, 6991u);
}

// The runner folds its trace as it is emitted; batch folds of the same
// trace, captured by an observer, must agree with it exactly.
TEST(WorkloadStreaming, RunnerFoldsEqualBatchFoldsOfItsTrace) {
  const WorkloadSpec spec = make_diurnal(48, 42);
  trace::VectorSink captured;
  trace::RecoveryTimeline streamed;
  trace::TeeSink observer;
  observer.add(&captured);
  observer.add(&streamed);
  const WorkloadResult r = run_workload_sim(spec, &observer);

  const std::vector<trace::Event>& events = captured.events();
  const auto batch = trace::RecoveryTimeline::fold(events);
  EXPECT_EQ(streamed.summary(), batch.summary());
  ASSERT_EQ(streamed.stories().size(), batch.stories().size());
  std::size_t recoveries = 0;
  for (std::size_t i = 0; i < batch.stories().size(); ++i) {
    const auto& x = streamed.stories()[i];
    const auto& y = batch.stories()[i];
    EXPECT_EQ(x.adu, y.adu);
    EXPECT_EQ(x.entries, y.entries);
    EXPECT_EQ(x.request_backoffs, y.request_backoffs);
    EXPECT_EQ(x.repair_suppressions, y.repair_suppressions);
    EXPECT_EQ(x.suppression_order, y.suppression_order);
    for (const auto& entry : y.entries) {
      EXPECT_NE(entry.type, trace::EventType::kSrmReqHear);
      EXPECT_NE(entry.type, trace::EventType::kSrmRepHear);
    }
    recoveries += y.recoveries;
  }
  EXPECT_EQ(r.losses, batch.stories().size());
  EXPECT_EQ(r.requests, batch.total_requests());
  EXPECT_EQ(r.repairs, batch.total_repairs());
  EXPECT_EQ(r.recoveries, recoveries);
  EXPECT_EQ(r.checker, fault::RecoveryInvariantChecker(spec.checker)
                           .check(events, {}, spec.duration));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSim,
                         ::testing::Values("flash-crowd", "conference",
                                           "diurnal", "repair-storm"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace srm::workload
