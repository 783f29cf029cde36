#include "probe.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

namespace perfbench {

void Counts::add(const Counts& o) {
  stories += o.stories;
  requests += o.requests;
  repairs += o.repairs;
  dup_requests_heard += o.dup_requests_heard;
  dup_repairs_heard += o.dup_repairs_heard;
  abandoned += o.abandoned;
  losses += o.losses;
  recoveries += o.recoveries;
  recovery_s.insert(recovery_s.end(), o.recovery_s.begin(),
                    o.recovery_s.end());
  sim_events += o.sim_events;
  net.multicasts_sent += o.net.multicasts_sent;
  net.unicasts_sent += o.net.unicasts_sent;
  net.link_transmissions += o.net.link_transmissions;
  net.deliveries += o.net.deliveries;
  net.drops += o.net.drops;
  net.ttl_prunes += o.net.ttl_prunes;
  net.in_flight_invalidated += o.net.in_flight_invalidated;
  routing_full_builds += o.routing_full_builds;
  routing_repairs += o.routing_repairs;
  routing_fallbacks += o.routing_fallbacks;
  fingerprint ^= o.fingerprint;
}

std::string Counts::digest() const {
  std::ostringstream out;
  out << stories << ' ' << requests << ' ' << repairs << ' '
      << dup_requests_heard << ' ' << dup_repairs_heard << ' ' << abandoned
      << ' ' << losses << ' ' << recoveries << ' ' << sim_events << ' '
      << net.multicasts_sent << ' ' << net.unicasts_sent << ' '
      << net.link_transmissions << ' ' << net.deliveries << ' ' << net.drops
      << ' ' << net.ttl_prunes << ' ' << net.in_flight_invalidated << ' '
      << routing_full_builds << ' ' << routing_repairs << ' '
      << routing_fallbacks << ' ' << fingerprint << " |";
  std::uint64_t h = 1469598103934665603ull;
  for (double v : recovery_s) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  out << recovery_s.size() << ':' << h;
  return out.str();
}

void RepResult::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    notes.push_back(what);
  }
}

void RepResult::check_many(std::uint64_t n, std::uint64_t failed,
                           const std::string& what) {
  checks += n;
  if (failed > 0) {
    failures += failed;
    notes.push_back(what + ": " + std::to_string(failed) + " of " +
                    std::to_string(n));
  }
}

void StoryBook::attach_all(srm::harness::SimSession& session) {
  session.for_each_agent([this](srm::SrmAgent& agent) {
    buffers_.push_back(std::make_unique<std::vector<srm::DataName>>());
    std::vector<srm::DataName>* buffer = buffers_.back().get();
    srm::SrmAgent::AppHooks hooks = agent.app_hooks();
    auto previous = std::move(hooks.on_loss_detected);
    hooks.on_loss_detected = [buffer, previous](const srm::DataName& name) {
      buffer->push_back(name);
      if (previous) previous(name);
    };
    agent.set_app_hooks(std::move(hooks));
  });
}

std::uint64_t StoryBook::distinct() const {
  std::set<srm::DataName> names;
  for (const auto& buffer : buffers_) names.insert(buffer->begin(), buffer->end());
  return names.size();
}

void add_routing_stats(const srm::net::RoutingStats& stats, Counts& c) {
  c.routing_full_builds += stats.full_builds;
  c.routing_repairs += stats.repairs;
  c.routing_fallbacks += stats.fallback_truncated + stats.fallback_threshold;
}

void add_session_counts(srm::harness::SimSession& session, Counts& c) {
  session.for_each_agent([&c](srm::SrmAgent& a) {
    const srm::AgentMetrics& m = a.metrics();
    c.requests += m.requests_sent;
    c.repairs += m.repairs_sent;
    c.dup_requests_heard += m.dup_requests_heard;
    c.dup_repairs_heard += m.dup_repairs_heard;
    c.abandoned += m.recovery_abandoned;
    c.losses += m.losses_detected;
    c.recoveries += m.recoveries;
    const auto& delays = m.recovery_delay_seconds.values();
    c.recovery_s.insert(c.recovery_s.end(), delays.begin(), delays.end());
  });
  const srm::net::NetworkStats s = session.network_stats();
  c.net.multicasts_sent += s.multicasts_sent;
  c.net.unicasts_sent += s.unicasts_sent;
  c.net.link_transmissions += s.link_transmissions;
  c.net.deliveries += s.deliveries;
  c.net.drops += s.drops;
  c.net.ttl_prunes += s.ttl_prunes;
  c.net.in_flight_invalidated += s.in_flight_invalidated;
  for (std::size_t r = 0; r < session.network_count(); ++r) {
    add_routing_stats(session.network(r).routing().stats(), c);
  }
}

void TraceCapture::on_event(const srm::trace::Event& event) {
  using srm::trace::Category;
  switch (srm::trace::category_of(event.type)) {
    case Category::kSim:
      ++counts_.sim;
      break;
    case Category::kNet:
      ++counts_.net;
      break;
    case Category::kSrm:
      ++counts_.srm;
      kept_.push_back(event);
      break;
    case Category::kFault:
      ++counts_.fault;
      kept_.push_back(event);
      break;
  }
}

Folded fold_stream(
    const std::vector<srm::trace::Event>& events,
    const std::vector<srm::fault::FaultInjector::Window>& windows,
    double end_of_trace, const srm::fault::CheckerOptions& options,
    RepResult& r) {
  const int timeline_span = r.spans.open("trace.timeline_fold");
  Folded out{srm::trace::RecoveryTimeline::fold(events), {}};
  r.spans.close(timeline_span);
  {
    ScopedSpan span(r.spans, "fault.checker_fold");
    out.report = srm::fault::RecoveryInvariantChecker(options).check(
        events, windows, end_of_trace);
  }
  Metric& storms = r.layer["fault.checker_storm_windows"];
  storms.value += static_cast<double>(out.report.storm_violations);
  storms.unit = "count";
  Metric& worst = r.layer["fault.checker_worst_window"];
  worst.unit = "count";
  worst.value = std::max(worst.value,
                         static_cast<double>(out.report.worst_window_count));
  return out;
}

bool frame_round_trips(const std::vector<std::uint8_t>& expected,
                       const std::uint8_t* received, std::size_t len,
                       srm::transport::DecodePools& pools,
                       std::vector<std::uint8_t>& scratch) {
  srm::net::Packet decoded;
  if (!srm::transport::decode_frame(received, len, pools, decoded)) {
    return false;
  }
  if (!srm::transport::encode_frame(decoded, scratch)) return false;
  return scratch == expected && scratch.size() == len &&
         std::equal(scratch.begin(), scratch.end(), received);
}

NetProbe::NetProbe(srm::harness::SimSession& session, const RepOptions& opts)
    : session_(session) {
  const bool cross = opts.traced && session.kernel() != nullptr;
  for (std::size_t i = 0; i < session.network_count(); ++i) {
    srm::net::MulticastNetwork& net = session.network(i);
    lanes_.push_back(std::make_unique<Lane>());
    Lane* lane = lanes_.back().get();
    lane->previous_send = net.send_observer();
    lane->previous_delivery = net.delivery_observer();
    if (opts.codec) {
      net.set_send_observer([lane](srm::net::NodeId from,
                                   const srm::net::Packet& p) {
        if (lane->previous_send) lane->previous_send(from, p);
        // Only the six SRM message types have a wire format.
        const std::uint32_t kind = p.payload ? p.payload->trace_kind() : 0;
        if (kind < 1 || kind > 6) return;
        const double t0 = now_s();
        const bool ok = srm::transport::encode_frame(p, lane->frame) &&
                        frame_round_trips(lane->frame, lane->frame.data(),
                                          lane->frame.size(), lane->pools,
                                          lane->scratch);
        lane->codec.seconds += now_s() - t0;
        ++lane->codec.frames;
        if (!ok) ++lane->codec.failures;
        lane->codec.bytes.push_back(static_cast<double>(lane->frame.size()));
        if (lane->frame.size() > 1300) ++lane->codec.over_1300b;
      });
    }
    if (cross) {
      const srm::net::RegionMap* regions = &session.region_map();
      net.set_delivery_observer(
          [lane, regions](const srm::net::Packet& p,
                          const srm::net::DeliveryInfo& info) {
            if (regions->of[p.source] != regions->of[info.receiver]) {
              ++lane->cross_region;
            }
            if (lane->previous_delivery) lane->previous_delivery(p, info);
          });
    }
  }
}

NetProbe::~NetProbe() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    session_.network(i).set_send_observer(std::move(lanes_[i]->previous_send));
    session_.network(i).set_delivery_observer(
        std::move(lanes_[i]->previous_delivery));
  }
}

void NetProbe::add_to(RepResult& r) const {
  for (const auto& lane : lanes_) {
    r.codec.frames += lane->codec.frames;
    r.codec.over_1300b += lane->codec.over_1300b;
    r.codec.failures += lane->codec.failures;
    r.codec.seconds += lane->codec.seconds;
    r.codec.bytes.insert(r.codec.bytes.end(), lane->codec.bytes.begin(),
                         lane->codec.bytes.end());
    r.kernel.cross_region_deliveries += lane->cross_region;
  }
}

void add_kernel_stats(srm::harness::SimSession& session, RepResult& r) {
  if (session.kernel() == nullptr) return;
  const auto& stats = session.kernel()->total_stats();
  r.kernel.windows += stats.windows;
  r.kernel.global_phases += stats.global_phases;
  r.kernel.region_events += stats.region_events;
}

}  // namespace perfbench
