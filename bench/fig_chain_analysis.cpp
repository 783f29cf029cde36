// Section IV-A: deterministic loss recovery on a chain.  With C1 = D1 = 1
// and C2 = D2 = 0, timers are a pure function of distance, so a single
// request (from the node just below the failure) and a single repair (from
// the node just above it) recover every loss, and the measured event times
// reproduce the paper's algebra:
//   node A (right of the failed link, detects at time t):
//     request sent at        t + d(A, source)
//     repair sent by B at    t + d(A, S) + 1 + 2    (D1 * d(B,A)=1... B at
//                                                    distance 1, detect +1)
//   and the farthest node receives the repair sooner than it could via
//   unicast communication with the original source.
#include "common.h"

#include "net/drop_policy.h"
#include "srm/messages.h"

int main(int argc, char** argv) {
  using namespace srm;
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(42);
  const std::size_t n = static_cast<std::size_t>(flags.get_int("nodes", 12));

  bench::print_header("Section IV-A: chain, deterministic suppression", seed,
                      "chain of " + std::to_string(n) +
                          " members, C1=D1=1, C2=D2=0; drop swept over every "
                          "link; all timings deterministic");

  util::Table table({"failed link", "requests", "repairs", "requestor",
                     "responder", "last delay (s)", "last delay/RTT",
                     "unicast bound/RTT"});

  std::vector<net::NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<net::NodeId>(i);

  for (std::size_t drop = 1; drop + 1 < n; ++drop) {
    SrmConfig cfg;
    cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
    harness::SimSession session(topo::make_chain(n), members, {cfg, seed, 1});
    harness::RoundSpec round;
    round.source_node = 0;
    round.congested = harness::DirectedLink{static_cast<net::NodeId>(drop),
                                            static_cast<net::NodeId>(drop + 1)};
    round.page = PageId{0, 0};
    const auto r = harness::run_loss_round(session, round, 0);

    net::NodeId requestor = net::kInvalidNode, responder = net::kInvalidNode;
    for (net::NodeId v = 0; v < n; ++v) {
      if (session.agent_at(v).metrics().requests_sent > 0) requestor = v;
      if (session.agent_at(v).metrics().repairs_sent > 0) responder = v;
    }
    table.add_row(
        {'(' + std::to_string(drop) + ',' + std::to_string(drop + 1) + ')',
         util::Table::num(r.requests), util::Table::num(r.repairs),
         std::to_string(requestor), std::to_string(responder),
         util::Table::num(r.max_delay_seconds, 1),
         util::Table::num(r.last_member_delay_rtt, 3),
         util::Table::num(2.0, 1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper check: exactly 1 request (node just below the failed "
               "link) and 1 repair\n(node just above) for every drop "
               "position; the farthest node's delay in its\nown RTT units "
               "stays below the ~2 RTT a unicast retransmit scheme needs.\n";
  return 0;
}
