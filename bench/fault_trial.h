// The fault_churn trial shared by bench/fault_churn and Part 2 of
// bench/routing_dynamics, run through harness::run_fault_trial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.h"
#include "fault/checker.h"
#include "fault/plan.h"
#include "harness/fault_scenarios.h"
#include "net/routing.h"

namespace srm::bench {

struct FaultTrialSpec {
  net::Topology topo;
  std::vector<net::NodeId> members;
  harness::RoundSpec round;
  SrmConfig config;
  fault::FaultPlan plan;
  int rounds = 6;
  std::uint64_t seed = 1;
};

// Draws one trial from `rng`, in this order: topology, member shuffle,
// source, congested link, partition plan, churn plan, session seed.  The
// partition cuts at t=30 and heals at t=90; `cycles` crash/rejoin pairs
// (60 s downtime each) spread over t=20..400.
inline FaultTrialSpec make_fault_trial_spec(std::size_t nodes,
                                            std::size_t group,
                                            std::size_t cycles, int rounds,
                                            util::Rng& rng) {
  FaultTrialSpec spec;
  spec.topo = topo::make_random_tree(nodes, rng);
  spec.members = harness::shuffled_members(nodes, group, rng);
  const net::NodeId source = spec.members[rng.index(group)];
  spec.round.source_node = source;
  spec.round.page = PageId{static_cast<SourceId>(source), 0};
  net::Routing routing(spec.topo);
  spec.round.congested =
      harness::choose_congested_link(routing, source, spec.members, rng);
  spec.config = paper_sim_config(paper_fixed_params(group));
  spec.config.adaptive.enabled = true;
  spec.rounds = rounds;
  spec.plan = harness::partition_heal_plan(spec.topo, source, /*t_down=*/30.0,
                                           /*t_heal=*/90.0, rng);
  spec.plan.merge(harness::churn_plan(spec.members, source, cycles,
                                      /*t_begin=*/20.0, /*t_end=*/400.0,
                                      /*downtime=*/60.0, /*crash=*/true, rng));
  spec.seed = rng.next_u64();
  return spec;
}

// Runs the trial with the routing layer's journal repair on or off (the
// virtual-time behavior is identical either way; only wall time moves).
inline harness::FaultTrial run_fault_trial(FaultTrialSpec spec,
                                           bool routing_repair = true) {
  harness::SimSession session(std::move(spec.topo), spec.members,
                              {spec.config, spec.seed, /*group=*/1});
  session.network().routing().set_repair_enabled(routing_repair);
  fault::CheckerOptions copts;
  copts.deadline = 200.0;
  return harness::run_fault_trial(session, std::move(spec.plan), spec.round,
                                  spec.rounds, copts);
}

}  // namespace srm::bench
