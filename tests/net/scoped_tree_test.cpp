// The TTL-scoped delivery-tree fast path (set_scoped_tree_cache;
// ARCHITECTURE.md §12): on tree topologies every TTL-limited multicast must
// deliver to exactly the receivers — with exactly the delays, hop counts
// and arrival order — that the full canonical-tree walk produces, while
// never materializing nodes beyond the TTL radius.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace srm::net {
namespace {

class TestMessage : public Message {
 public:
  std::string describe() const override { return "SCOPED-TEST"; }
};

struct Rx {
  NodeId receiver;
  double at;
  double path_delay;
  int hops;
  int remaining_ttl;
  friend bool operator==(const Rx&, const Rx&) = default;
};

class Recorder : public PacketSink {
 public:
  explicit Recorder(sim::EventQueue& q, std::vector<Rx>& log, NodeId self)
      : queue_(&q), log_(&log), self_(self) {}
  void on_receive(const Packet&, const DeliveryInfo& i) override {
    log_->push_back(
        Rx{self_, queue_->now(), i.path_delay, i.hops, i.remaining_ttl});
  }

 private:
  sim::EventQueue* queue_;
  std::vector<Rx>* log_;
  NodeId self_;
};

// Runs the same TTL-sweep of multicasts over `topo` twice — full walk vs
// scoped cache, in independently built worlds so caches cannot leak — and
// requires identical delivery logs.
void expect_sweep_identical(const Topology& topo,
                            const std::vector<NodeId>& members,
                            const std::vector<NodeId>& roots,
                            const std::vector<int>& ttls) {
  auto run = [&](bool scoped) {
    sim::EventQueue queue;
    MulticastNetwork net(queue, topo);
    net.set_scoped_tree_cache(scoped);
    std::vector<Rx> log;
    std::vector<std::unique_ptr<Recorder>> sinks;
    for (NodeId m : members) {
      sinks.push_back(std::make_unique<Recorder>(queue, log, m));
      net.attach(m, sinks.back().get());
      net.join(1, m);
    }
    for (NodeId root : roots) {
      for (int ttl : ttls) {
        Packet p;
        p.group = 1;
        p.ttl = ttl;
        p.payload = std::make_shared<TestMessage>();
        net.multicast(root, p);
        queue.run();
      }
    }
    return log;
  };
  const std::vector<Rx> full = run(false);
  const std::vector<Rx> fast = run(true);
  ASSERT_EQ(full.size(), fast.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], fast[i]) << "delivery " << i << " diverged";
  }
}

TEST(ScopedTreeTest, MatchesFullWalkOnTreeOfLans) {
  // Non-uniform delays (backbone 1.0, LAN 0.1) on a tree: paths are unique,
  // so the scoped tree must reproduce the canonical walk exactly.
  auto tl = topo::make_tree_of_lans(5, 3, 4);
  std::vector<NodeId> roots{tl.workstations.front(), tl.workstations.back(),
                            tl.workstations[tl.workstations.size() / 2]};
  expect_sweep_identical(tl.topo, tl.workstations, roots, {1, 2, 3, 4, 8});
}

TEST(ScopedTreeTest, MatchesFullWalkOnRandomTree) {
  util::Rng rng(17);
  Topology topo = topo::make_random_tree(60, rng);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < 60; n += 3) members.push_back(n);
  expect_sweep_identical(topo, members, {members[0], members[5], members[10]},
                         {1, 2, 3, 5, 9});
}

TEST(ScopedTreeTest, MatchesFullWalkOnUniformDelayRing) {
  // A ring has redundant paths but uniform delays, where min-delay and
  // min-hop orders agree — the other regime the fast path guarantees.
  Topology topo = topo::make_ring(12);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < 12; ++n) members.push_back(n);
  expect_sweep_identical(topo, members, {0, 5}, {1, 2, 3, 6});
}

TEST(ScopedTreeTest, StaysOffOnNonTreeGraphWithUnequalDelays) {
  // A ring whose 0-1 link is slow: node 1's canonical (min-delay) path from
  // 0 runs the long way round, five hops, while the slow link reaches it in
  // one.  A TTL-truncated walk would deliver there at ttl < 5, which the
  // full walk does not, so enabling the cache must keep the full walk.
  Topology topo(6);
  topo.add_link(0, 1, /*delay=*/10.0);
  for (NodeId n = 1; n < 6; ++n) topo.add_link(n, (n + 1) % 6);
  sim::EventQueue queue;
  MulticastNetwork net(queue, topo);
  net.set_scoped_tree_cache(true);
  EXPECT_FALSE(net.scoped_tree_cache());
  expect_sweep_identical(topo, {0, 1, 2, 3, 4, 5}, {0, 1}, {1, 2, 3, 4});
}

TEST(ScopedTreeTest, CacheRevalidatesOnMembershipChange) {
  auto tl = topo::make_tree_of_lans(3, 2, 3);
  sim::EventQueue queue;
  MulticastNetwork net(queue, tl.topo);
  net.set_scoped_tree_cache(true);
  ASSERT_TRUE(net.scoped_tree_cache());  // a tree of LANs keeps the fast path
  std::vector<Rx> log;
  std::vector<std::unique_ptr<Recorder>> sinks;
  for (NodeId m : tl.workstations) {
    sinks.push_back(std::make_unique<Recorder>(queue, log, m));
    net.attach(m, sinks.back().get());
    net.join(1, m);
  }
  const NodeId root = tl.workstations.front();
  auto send = [&](int ttl) {
    Packet p;
    p.group = 1;
    p.ttl = ttl;
    p.payload = std::make_shared<TestMessage>();
    net.multicast(root, p);
    queue.run();
  };
  send(2);
  const std::size_t first = log.size();
  EXPECT_GT(first, 0u);
  // A sibling leaves the group: the cached scoped tree must be rebuilt and
  // stop delivering to it.
  const NodeId sibling = tl.workstations[1];
  net.leave(1, sibling);
  log.clear();
  send(2);
  for (const Rx& rx : log) EXPECT_NE(rx.receiver, sibling);
  EXPECT_EQ(log.size(), first - 1);
}

TEST(ScopedTreeTest, FullTtlStillUsesCanonicalTree) {
  // TTL = kMaxTtl bypasses the scoped path entirely; stats must show no
  // behavioural change when the cache is on but every send is full-scope.
  auto tl = topo::make_tree_of_lans(3, 2, 3);
  auto run = [&](bool scoped) {
    sim::EventQueue queue;
    MulticastNetwork net(queue, tl.topo);
    net.set_scoped_tree_cache(scoped);
    std::vector<Rx> log;
    std::vector<std::unique_ptr<Recorder>> sinks;
    for (NodeId m : tl.workstations) {
      sinks.push_back(std::make_unique<Recorder>(queue, log, m));
      net.attach(m, sinks.back().get());
      net.join(1, m);
    }
    Packet p;
    p.group = 1;
    p.payload = std::make_shared<TestMessage>();
    net.multicast(tl.workstations.front(), p);
    queue.run();
    return std::make_pair(log, net.stats().ttl_prunes);
  };
  const auto [full_log, full_prunes] = run(false);
  const auto [fast_log, fast_prunes] = run(true);
  ASSERT_EQ(full_log.size(), fast_log.size());
  for (std::size_t i = 0; i < full_log.size(); ++i) {
    EXPECT_EQ(full_log[i], fast_log[i]);
  }
  EXPECT_EQ(full_prunes, fast_prunes);
}

}  // namespace
}  // namespace srm::net
