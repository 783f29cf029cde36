// Fault-scenario builders: canned FaultPlans for the network-dynamics
// experiments (Sec. III-D robustness), the wiring that connects a
// FaultInjector's membership events to a SimSession's agents, and
// run_fault_trial, which runs loss rounds through a plan and streams the
// trace into the recovery-invariant checker.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/checker.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "harness/loss_round.h"
#include "harness/session.h"
#include "net/routing.h"
#include "net/topology.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace srm::harness {

// MembershipHooks that create/stop SrmAgents in `session`: join/rejoin adds
// a member at the node (no-op if already present), leave/crash removes it
// (no-op if absent) — fault plans can then be replayed against sessions
// whose membership already drifted.  The session must outlive the injector.
fault::MembershipHooks membership_hooks(SimSession& session);

// A partition/heal round trip: at `t_down`, cut `island` (chosen as the
// subtree under a random tree link so the cut severs exactly one link on a
// tree topology); at `t_heal`, restore it.  `island_out` (optional) receives
// the chosen island.
fault::FaultPlan partition_heal_plan(const net::Topology& topo,
                                     net::NodeId root, double t_down,
                                     double t_heal, util::Rng& rng,
                                     std::vector<net::NodeId>* island_out =
                                         nullptr);

// Membership churn: `cycles` leave/rejoin (or crash/rejoin) pairs spread
// uniformly over [t_begin, t_end), each hitting a random member of
// `members` (excluding `keep` — typically the data source).  `downtime` is
// how long a member stays away before rejoining.
fault::FaultPlan churn_plan(const std::vector<net::NodeId>& members,
                            net::NodeId keep, std::size_t cycles,
                            double t_begin, double t_end, double downtime,
                            bool crash, util::Rng& rng);

// Link flapping: `flaps` down/up cycles of `link`, starting at `t_begin`,
// `period` seconds apart, each outage lasting `downtime` seconds.
fault::FaultPlan link_flap_plan(net::LinkId link, std::size_t flaps,
                                double t_begin, double period,
                                double downtime);

// What one fault trial observed: the checker's judgement of the srm|fault
// trace, and how many loss rounds the faults made unrunnable (source
// crashed, congested link down, scripted drop swallowed by a partition).
struct FaultTrial {
  fault::CheckerReport report;
  std::size_t disrupted_rounds = 0;
};

// Runs `rounds` loss rounds (dropped seq 2r in round r) on `session` while
// `plan` plays out, judging the srm|fault trace with a streaming
// RecoveryInvariantChecker (no trace is buffered) and forwarding it to
// `observer` when given.  The injector is seeded from session.rng(), hooked
// up with membership_hooks and emits through session.control_tracer(), so
// traces match for every kernel_threads value.  Each round runs the session
// dry, so the whole plan has played out when run_fault_trial returns; its
// tracer is detached by then.
FaultTrial run_fault_trial(SimSession& session, fault::FaultPlan plan,
                           const RoundSpec& round, int rounds,
                           const fault::CheckerOptions& options,
                           trace::Sink* observer = nullptr);

}  // namespace srm::harness
