// FecSession pinned to one XOR parity per k data ADUs (generation_size = k,
// initial_k = max_k = 1, no decay): the fixed-budget configuration that
// bench/ablation_parity measures.  Framing, parity cadence, app-level
// delivery, zero-control-traffic reconstruction of a single loss, and
// fall-through to SRM when a block loses two ADUs.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "harness/session.h"
#include "net/drop_policy.h"
#include "srm/fec/session.h"
#include "srm/messages.h"
#include "topo/builders.h"

namespace srm::fec {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig cfg() {
  SrmConfig c;
  c.timers = TimerParams{2.0, 2.0, 1.0, 1.0};
  c.backoff_factor = 3.0;
  return c;
}

// One XOR parity after every k data ADUs, for the whole stream.
FecConfig xor_cfg(std::size_t k) {
  FecConfig f;
  f.enabled = true;
  f.generation_size = k;
  f.max_k = f.initial_k = 1;
  f.decay_after_quiet = std::numeric_limits<std::size_t>::max();
  return f;
}

bool is_parity_frame(const Payload& frame) {
  return FecSession::parse_parity(frame).has_value();
}

TEST(ParityFramingTest, DataRoundTrip) {
  const Payload app{1, 2, 3, 4, 5};
  const Payload frame = FecSession::frame_data(/*gen=*/0, /*idx=*/0, app);
  EXPECT_FALSE(is_parity_frame(frame));
  const auto back = FecSession::parse_data(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, app);
}

TEST(ParityFramingTest, EmptyPayloadRoundTrip) {
  const auto back = FecSession::parse_data(FecSession::frame_data(0, 0, {}));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(ParityFramingTest, RejectsGarbage) {
  EXPECT_FALSE(FecSession::parse_data({}).has_value());
  EXPECT_FALSE(FecSession::parse_data({0xFF, 0x00}).has_value());
}

TEST(ParitySessionTest, EmitsParityEveryKthSend) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 1, 1});
  FecSession tx(s.agent_at(0), xor_cfg(3));
  const PageId page{0, 0};
  std::size_t data_seen = 0, parity_seen = 0;
  s.network().set_send_observer([&](net::NodeId, const net::Packet& p) {
    const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
    if (d == nullptr) return;
    if (is_parity_frame(*d->payload())) {
      ++parity_seen;
    } else {
      ++data_seen;
    }
  });
  for (int i = 0; i < 7; ++i) tx.send(page, {static_cast<uint8_t>(i)});
  s.queue().run();
  EXPECT_EQ(data_seen, 7u);
  EXPECT_EQ(parity_seen, 2u);  // after sends 3 and 6
  EXPECT_EQ(tx.stats().parity_sent, 2u);
}

TEST(ParitySessionTest, ReceiverSeesOnlyAppPayloads) {
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 2, 1});
  FecSession tx(s.agent_at(0), xor_cfg(2));
  FecSession rx(s.agent_at(1), xor_cfg(2));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  const PageId page{0, 0};
  for (int i = 0; i < 4; ++i) tx.send(page, {static_cast<uint8_t>(10 + i)});
  s.queue().run();
  // Seqs 0,1 data; 2 parity; 3,4 data; 5 parity.  Handler sees 4 payloads.
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered.at(0), (Payload{10}));
  EXPECT_EQ(delivered.at(4), (Payload{13}));
  EXPECT_EQ(delivered.count(2), 0u);  // parity seq invisible to the app
}

TEST(ParitySessionTest, SingleLossReconstructedWithoutRequest) {
  // Drop one data ADU of a block on the only link: the receiver must
  // rebuild it from the parity with ZERO requests or repairs.
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 3, 1});
  FecSession tx(s.agent_at(0), xor_cfg(3));
  FecSession rx(s.agent_at(1), xor_cfg(3));
  std::map<SeqNo, Payload> delivered;
  rx.set_data_handler([&](const DataName& n, const Payload& p, bool) {
    delivered[n.seq] = p;
  });
  const PageId page{0, 0};
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      0, 1, [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && d->name().seq == 1;
      }));
  tx.send(page, {0xA0});
  tx.send(page, {0xA1, 0xA1, 0xA1});  // dropped (longer than its peers)
  tx.send(page, {0xA2});              // completes block -> parity (seq 3)
  s.queue().run();
  EXPECT_EQ(rx.stats().reconstructions, 1u);
  ASSERT_EQ(delivered.count(1), 1u);
  EXPECT_EQ(delivered.at(1), (Payload{0xA1, 0xA1, 0xA1}));
  EXPECT_EQ(s.agent_at(1).metrics().requests_sent, 0u);
  EXPECT_EQ(s.agent_at(0).metrics().repairs_sent, 0u);
  // The reconstruction also counts as a completed recovery.
  EXPECT_EQ(s.agent_at(1).metrics().recoveries, 1u);
}

TEST(ParitySessionTest, DoubleLossFallsThroughToSrm) {
  // Two data ADUs of one block dropped: the parity alone cannot
  // reconstruct, so SRM requests must fire.  Once SRM has repaired one of
  // the two, the block is back to a single hole and the parity rebuilds
  // the other locally — the schemes compose.
  harness::SimSession s(topo::make_chain(2), all_nodes(2), {cfg(), 5, 1});
  FecSession tx(s.agent_at(0), xor_cfg(3));
  FecSession rx(s.agent_at(1), xor_cfg(3));
  const PageId page{0, 0};
  s.network().set_drop_policy(std::make_shared<net::ScriptedLinkDrop>(
      0, 1,
      [](const net::Packet& p) {
        const auto* d = dynamic_cast<const DataMessage*>(p.payload.get());
        return d != nullptr && (d->name().seq == 0 || d->name().seq == 1);
      },
      /*max_drops=*/2));
  tx.send(page, {0x01});
  tx.send(page, {0x02});
  tx.send(page, {0x03});
  s.queue().run();
  EXPECT_LE(rx.stats().reconstructions, 1u);
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 0}));
  EXPECT_TRUE(s.agent_at(1).has_data(DataName{0, page, 1}));
  EXPECT_GE(s.agent_at(1).metrics().requests_sent, 1u);
}

}  // namespace
}  // namespace srm::fec
