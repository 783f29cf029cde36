// Acceptance scenario for the fault subsystem (ISSUE 4): on a random tree
// with N=100 nodes and G=40 members, a partition/heal round trip must leave
// zero unrecovered ADUs at surviving members — the paper's Sec. III-D claim
// that members "continue to send data in the connected components" and the
// repair machinery redistributes everything after the heal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "fault/checker.h"
#include "fault/plan.h"
#include "harness/fault_scenarios.h"
#include "harness/loss_round.h"
#include "harness/scenario.h"
#include "harness/session.h"
#include "topo/builders.h"

namespace srm {
namespace {

constexpr int kRounds = 6;

harness::FaultTrial run_partition_heal(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology topo = topo::make_random_tree(100, rng);
  const std::vector<net::NodeId> members =
      harness::shuffled_members(100, 40, rng);
  const net::NodeId source = members[rng.index(members.size())];

  fault::FaultPlan plan = harness::partition_heal_plan(
      topo, source, /*t_down=*/30.0, /*t_heal=*/90.0, rng);

  SrmConfig cfg;
  cfg.timers = paper_fixed_params(members.size());
  cfg.backoff_factor = 3.0;
  cfg.adaptive.enabled = true;
  harness::SimSession session(std::move(topo), members, {cfg, seed, 1});

  harness::RoundSpec spec;
  spec.source_node = source;
  spec.congested = harness::choose_congested_link(
      session.network().routing(), source, members, rng);
  spec.page = PageId{static_cast<SourceId>(source), 0};
  fault::CheckerOptions copts;
  copts.deadline = 200.0;
  return harness::run_fault_trial(session, std::move(plan), spec, kRounds,
                                  copts);
}

// Pinned outcomes, bit for bit.  The repair follows the data's path
// downstream of the congested link, so every member that shares a round's
// loss recovers it with the same latency: the latencies, in (member, ADU)
// order, repeat one value per round.
struct Golden {
  std::uint64_t seed;
  std::size_t losses;
  std::size_t worst_window_count;
  double worst_window_start;
  std::array<double, kRounds> round_latency;
};

constexpr Golden kGoldens[] = {
    {7, 24, 2, 200.72810749600865,
     {43.061028519131185, 31.76045093834847, 41.584611726639963,
      32.373192906329763, 39.200280735048239, 38.405554734633199}},
    {1995, 102, 2, 71.092848220267399,
     {61.092848220267399, 46.534487612682824, 60.881276784929071,
      39.135958970434103, 39.165126007286062, 36.740393073714188}},
    {20260806, 6, 1, 42.547409404691209,
     {37.637666847333371, 27.995434711549564, 23.915000468115153,
      20.600320958057779, 20.818434805167499, 19.989929887556627}},
};

class PartitionRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PartitionRecoveryTest, ZeroUnrecoveredAtSurvivingMembers) {
  const std::uint64_t seed = GetParam();
  const harness::FaultTrial trial = run_partition_heal(seed);
  const fault::CheckerReport& r = trial.report;
  EXPECT_TRUE(r.passed) << r.summary();
  EXPECT_TRUE(r.unrecovered.empty()) << r.summary();
  EXPECT_EQ(r.storm_violations, 0u);
  // The scenario has to have exercised recovery to mean anything.
  EXPECT_GT(r.losses, 0u);
  EXPECT_GT(r.recovered, 0u);

  const Golden& g = *std::find_if(
      std::begin(kGoldens), std::end(kGoldens),
      [seed](const Golden& x) { return x.seed == seed; });
  EXPECT_EQ(trial.disrupted_rounds, 0u);
  EXPECT_EQ(r.losses, g.losses);
  EXPECT_EQ(r.recovered, g.losses);
  EXPECT_EQ(r.worst_window_count, g.worst_window_count);
  EXPECT_EQ(r.worst_window_start, g.worst_window_start);
  ASSERT_EQ(r.recovery_latencies.size(), g.losses);
  for (std::size_t i = 0; i < g.losses; ++i) {
    EXPECT_EQ(r.recovery_latencies[i], g.round_latency[i % kRounds]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRecoveryTest,
                         ::testing::Values(7u, 1995u, 20260806u));

}  // namespace
}  // namespace srm
