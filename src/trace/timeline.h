// RecoveryTimeline: folds a raw trace into per-loss recovery stories.
//
// The paper's figures (3-12) are all statements about what happens between
// one dropped packet and the last member recovering it: who detected the
// loss, whose request timer fired first, who was suppressed, who answered,
// and how many duplicates leaked through.  This analyzer reconstructs
// exactly that narrative from the srm-category trace events (trace/trace.h)
// so tests and the srmsim CLI can assert on *timelines* — "exactly one
// request, sent by the member just below the congested link" — rather than
// only on aggregate counters.
//
// A story is keyed by the ADU (source, page, seq) under recovery and
// collects, in trace order:
//   loss        -> detections (one per affected member)
//   req_timer_set / req_fire / req_backoff    (the request state machines)
//   req_send    -> first_request_* milestones + duplicate accounting
//   rep_timer_set / rep_send / rep_suppress   (the repair side)
//   recovered / abandoned                      (per-member outcomes)
// req_hear / rep_hear events (one per receiver per transmission, most of a
// large session's trace) open a story like any other but are not kept in
// its entries: every figure above is a sender's or a recoverer's.
//
// Streaming: fold(events) is a loop over add(), and a RecoveryTimeline is a
// trace::Sink, so a tracer can feed it directly and no event buffer is
// needed; the fold's memory is then O(stories + their entries).
//
// Determinism: stories are ordered by first appearance in the trace, and
// every per-story list preserves trace order, so two traces of the same
// seeded run fold to byte-identical summaries (the ReplicationRunner
// thread-invariance test relies on this).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace srm::trace {

// The identity of one ADU as packed into srm-category trace events
// (slots a=src, b=page_c, c=page_n, d=seq).
struct AduKey {
  std::uint64_t source = 0;
  std::uint64_t page_creator = 0;
  std::uint64_t page_number = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const AduKey&, const AduKey&) = default;
  friend auto operator<=>(const AduKey&, const AduKey&) = default;
};

std::string to_string(const AduKey& key);

// One member's appearance in a story (a detection, a send, a suppression,
// an outcome), in trace order.
struct StoryEntry {
  double t = 0.0;
  EventType type = EventType::kSrmLoss;
  std::uint64_t actor = 0;  // member SourceId
  std::uint64_t arg = 0;    // the event's e-slot (ttl / requestor / backoffs)
  double x = 0.0;           // the event's x-slot (delay / flag)

  friend bool operator==(const StoryEntry&, const StoryEntry&) = default;
};

// The folded recovery narrative of one loss.
struct RecoveryStory {
  AduKey adu;

  // Every srm event touching this ADU except req_hear / rep_hear, in trace
  // order.
  std::vector<StoryEntry> entries;

  // Detection.
  std::size_t detections = 0;          // members that detected the loss
  double first_detect_time = 0.0;
  std::uint64_t first_detector = 0;
  bool detected = false;

  // Requests.
  std::size_t requests_sent = 0;       // total REQUEST transmissions
  double first_request_time = 0.0;
  std::uint64_t first_requestor = 0;
  std::size_t request_backoffs = 0;    // timers pushed back by heard requests

  // Repairs.
  std::size_t repair_timers_set = 0;
  std::size_t repairs_sent = 0;        // total REPAIR transmissions
  double first_repair_time = 0.0;
  std::uint64_t first_responder = 0;
  std::size_t repair_suppressions = 0; // repair timers cancelled by a repair

  // Outcomes.
  std::size_t recoveries = 0;          // members whose pending request closed
  std::size_t abandoned = 0;
  double last_recovery_time = 0.0;
  // Members that rebuilt this ADU locally from parity (srm/fec) instead of
  // waiting for a repair; a subset of `recoveries` when a request was
  // already pending, extra otherwise.
  std::size_t fec_reconstructions = 0;

  // Suppression order: the actors of req_backoff and rep_suppress events in
  // trace order — the deterministic-suppression fingerprint of the round.
  std::vector<std::uint64_t> suppression_order;

  // Duplicates in the paper's sense: transmissions beyond the first.
  std::size_t duplicate_requests() const {
    return requests_sent > 0 ? requests_sent - 1 : 0;
  }
  std::size_t duplicate_repairs() const {
    return repairs_sent > 0 ? repairs_sent - 1 : 0;
  }
};

// Folds a trace (live VectorSink capture or read_jsonl/read_binary output)
// into per-loss stories, or, as a Sink, folds events as they are emitted.
// Non-srm events and srm events that name no ADU (adaptive-parameter
// updates) are ignored.
class RecoveryTimeline final : public Sink {
 public:
  static RecoveryTimeline fold(const std::vector<Event>& events);

  // Folds one more event into the stories.
  void add(const Event& ev);
  void on_event(const Event& event) override { add(event); }

  // Stories in order of first appearance in the trace.
  const std::vector<RecoveryStory>& stories() const { return stories_; }
  const RecoveryStory* find(const AduKey& key) const;

  // Totals across stories (compare against aggregate metrics).
  std::size_t total_requests() const;
  std::size_t total_repairs() const;

  // Canonical multi-line text rendering: one line per story with its
  // milestone times, senders and counts, then one line per suppression.
  // Byte-identical across runs that produce identical traces; the
  // thread-invariance test compares exactly this string.
  std::string summary() const;

 private:
  std::vector<RecoveryStory> stories_;
  std::map<AduKey, std::size_t> index_;  // ADU -> position in stories_
};

}  // namespace srm::trace
