// RecoveryTimeline tests: folding a live capture into per-loss stories,
// agreement with the aggregate AgentMetrics counters, lossless analysis
// after a JSONL round-trip, and bit-identical timelines across
// ReplicationRunner thread counts.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/loss_round.h"
#include "harness/replication.h"
#include "harness/session.h"
#include "topo/builders.h"
#include "trace/timeline.h"
#include "trace/trace.h"

namespace srm::trace {
namespace {

std::vector<net::NodeId> all_nodes(std::size_t n) {
  std::vector<net::NodeId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<net::NodeId>(i);
  return v;
}

SrmConfig deterministic_config() {
  SrmConfig cfg;
  cfg.timers = TimerParams{1.0, 0.0, 1.0, 0.0};
  return cfg;
}

struct TracedRound {
  harness::RoundResult result;
  std::vector<Event> events;
  std::size_t requests_metric = 0;
  std::size_t repairs_metric = 0;
};

// The Sec. IV-A chain scenario: source 0, drop on (3,4), deterministic
// timers, so node 4 requests and node 3 repairs, exactly once each.  `also`,
// when set, receives the trace live as well.
TracedRound run_chain_round(std::uint64_t seed, Sink* also = nullptr) {
  TracedRound out;
  VectorSink sink;
  TeeSink tee;
  tee.add(&sink);
  if (also != nullptr) tee.add(also);
  Tracer tracer;
  tracer.set_sink(&tee);
  tracer.set_mask(static_cast<std::uint32_t>(Category::kSrm));
  harness::SimSession s(topo::make_chain(8), all_nodes(8),
                        {deterministic_config(), seed, 1});
  s.set_tracer(&tracer);
  harness::RoundSpec spec;
  spec.source_node = 0;
  spec.congested = harness::DirectedLink{3, 4};
  spec.page = PageId{0, 0};
  out.result = harness::run_loss_round(s, spec, 0);
  s.for_each_agent([&](SrmAgent& a) {
    out.requests_metric += a.metrics().requests_sent;
    out.repairs_metric += a.metrics().repairs_sent;
  });
  out.events = sink.events();
  return out;
}

TEST(RecoveryTimelineTest, ChainRoundFoldsIntoOneStory) {
  const TracedRound round = run_chain_round(1);
  const RecoveryTimeline timeline = RecoveryTimeline::fold(round.events);

  // One dropped ADU -> one recovery story.
  ASSERT_EQ(timeline.stories().size(), 1u);
  const RecoveryStory& story = timeline.stories()[0];
  EXPECT_EQ(story.adu, (AduKey{0, 0, 0, 0}));

  // Nodes 4..7 detected the loss; node 4 (closest to the congested link)
  // both detected and requested first; node 3 answered.
  EXPECT_EQ(story.detections, 4u);
  EXPECT_EQ(story.first_detector, 4u);
  EXPECT_EQ(story.requests_sent, 1u);
  EXPECT_EQ(story.first_requestor, 4u);
  EXPECT_EQ(story.repairs_sent, 1u);
  EXPECT_EQ(story.first_responder, 3u);
  EXPECT_EQ(story.duplicate_requests(), 0u);
  EXPECT_EQ(story.duplicate_repairs(), 0u);
  EXPECT_EQ(story.recoveries, 4u);
  EXPECT_EQ(story.abandoned, 0u);

  // Milestones are ordered: detect <= first request < first repair <= done.
  EXPECT_LE(story.first_detect_time, story.first_request_time);
  EXPECT_LT(story.first_request_time, story.first_repair_time);
  EXPECT_LE(story.first_repair_time, story.last_recovery_time);
}

TEST(RecoveryTimelineTest, TotalsMatchAggregateMetrics) {
  const TracedRound round = run_chain_round(1);
  const RecoveryTimeline timeline = RecoveryTimeline::fold(round.events);
  // The timeline reconstruction and the aggregate counters must agree —
  // both with each other and with the round result.
  EXPECT_EQ(timeline.total_requests(), round.requests_metric);
  EXPECT_EQ(timeline.total_repairs(), round.repairs_metric);
  EXPECT_EQ(timeline.total_requests(), round.result.requests);
  EXPECT_EQ(timeline.total_repairs(), round.result.repairs);
}

TEST(RecoveryTimelineTest, JsonlRoundTripFoldsIdentically) {
  const TracedRound round = run_chain_round(1);
  std::ostringstream out;
  JsonlSink sink(out);
  for (const Event& e : round.events) sink.on_event(e);
  std::istringstream in(out.str());
  const std::vector<Event> reread = read_jsonl(in);
  ASSERT_EQ(reread, round.events);
  EXPECT_EQ(RecoveryTimeline::fold(reread).summary(),
            RecoveryTimeline::fold(round.events).summary());
}

TEST(RecoveryTimelineTest, SuppressionOrderIsDeterministic) {
  // Same seed -> byte-identical summary, including the suppression order.
  const std::string a =
      RecoveryTimeline::fold(run_chain_round(7).events).summary();
  const std::string b =
      RecoveryTimeline::fold(run_chain_round(7).events).summary();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(RecoveryTimelineTest, FindAndMissingKeys) {
  const TracedRound round = run_chain_round(1);
  const RecoveryTimeline timeline = RecoveryTimeline::fold(round.events);
  EXPECT_NE(timeline.find(AduKey{0, 0, 0, 0}), nullptr);
  EXPECT_EQ(timeline.find(AduKey{0, 0, 0, 99}), nullptr);
}

// Every per-story figure of two timelines, in story order.
void expect_same_stories(const RecoveryTimeline& a, const RecoveryTimeline& b) {
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.stories().size(), b.stories().size());
  for (std::size_t i = 0; i < a.stories().size(); ++i) {
    const RecoveryStory& x = a.stories()[i];
    const RecoveryStory& y = b.stories()[i];
    EXPECT_EQ(x.adu, y.adu);
    EXPECT_EQ(x.entries, y.entries);
    EXPECT_EQ(x.detections, y.detections);
    EXPECT_EQ(x.requests_sent, y.requests_sent);
    EXPECT_EQ(x.request_backoffs, y.request_backoffs);
    EXPECT_EQ(x.repair_timers_set, y.repair_timers_set);
    EXPECT_EQ(x.repairs_sent, y.repairs_sent);
    EXPECT_EQ(x.repair_suppressions, y.repair_suppressions);
    EXPECT_EQ(x.recoveries, y.recoveries);
    EXPECT_EQ(x.abandoned, y.abandoned);
    EXPECT_EQ(x.fec_reconstructions, y.fec_reconstructions);
    EXPECT_EQ(x.suppression_order, y.suppression_order);
    EXPECT_EQ(x.first_detector, y.first_detector);
    EXPECT_EQ(x.first_requestor, y.first_requestor);
    EXPECT_EQ(x.first_responder, y.first_responder);
    EXPECT_EQ(x.last_recovery_time, y.last_recovery_time);
  }
}

TEST(RecoveryTimelineTest, LiveStreamedFoldEqualsBatchFold) {
  RecoveryTimeline streamed;
  const TracedRound round = run_chain_round(1, &streamed);
  expect_same_stories(streamed, RecoveryTimeline::fold(round.events));
  EXPECT_EQ(streamed.total_requests(), round.result.requests);
  EXPECT_EQ(streamed.total_repairs(), round.result.repairs);
  EXPECT_NE(streamed.find(AduKey{0, 0, 0, 0}), nullptr);
}

TEST(RecoveryTimelineTest, EntriesOmitHearEvents) {
  const TracedRound round = run_chain_round(1);
  std::size_t hears = 0, named = 0;
  for (const Event& e : round.events) {
    if (e.type == EventType::kSrmReqHear || e.type == EventType::kSrmRepHear) {
      ++hears;
    } else if (category_of(e.type) == Category::kSrm &&
               e.type != EventType::kSrmAdaptReq &&
               e.type != EventType::kSrmAdaptRep) {
      ++named;
    }
  }
  ASSERT_GT(hears, 0u) << "the round should trace request/repair hears";
  const RecoveryTimeline timeline = RecoveryTimeline::fold(round.events);
  std::size_t kept = 0;
  for (const RecoveryStory& story : timeline.stories()) {
    for (const StoryEntry& entry : story.entries) {
      EXPECT_NE(entry.type, EventType::kSrmReqHear);
      EXPECT_NE(entry.type, EventType::kSrmRepHear);
    }
    kept += story.entries.size();
  }
  EXPECT_EQ(kept, named);  // every other ADU-naming event is kept
}

TEST(RecoveryTimelineTest, HearEventStillOpensAStory) {
  Event hear;
  hear.type = EventType::kSrmRepHear;
  hear.actor = 5;
  hear.a = 1;
  hear.d = 9;
  Event loss = hear;
  loss.type = EventType::kSrmLoss;
  loss.d = 3;
  RecoveryTimeline timeline;
  timeline.add(hear);
  timeline.add(loss);
  ASSERT_EQ(timeline.stories().size(), 2u);
  EXPECT_EQ(timeline.stories()[0].adu, (AduKey{1, 0, 0, 9}));
  EXPECT_TRUE(timeline.stories()[0].entries.empty());
  EXPECT_EQ(timeline.stories()[1].detections, 1u);
}

TEST(RecoveryTimelineTest, TimelineBitIdenticalAcrossThreadCounts) {
  // Each replication owns its session + tracer + sink, so the folded
  // summaries must be identical whether the batch runs on 1 thread or 4.
  const auto run_batch = [](unsigned threads) {
    harness::ReplicationRunner runner(threads);
    return runner.map<std::string>(6, [](std::size_t i) {
      return RecoveryTimeline::fold(
                 run_chain_round(static_cast<std::uint64_t>(i) + 1).events)
          .summary();
    });
  };
  const std::vector<std::string> serial = run_batch(1);
  const std::vector<std::string> parallel = run_batch(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "replication " << i;
  }
}

}  // namespace
}  // namespace srm::trace
