// Unit tests of the benchmark's own helpers: metric names, the quantile
// definition, span self times, and the wire check.  Exit status 0 when every
// check passes.  Built and run by perfbench/tests/run_tests.py.
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "probe.h"
#include "srm/messages.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"setup_s", "sim.pdes.speedup", "net.routing.full_builds",
                         "recovery_p99_ms", "a-b", "9lives"}) {
    expect(valid_metric_name(ok), std::string("accepts ") + ok);
  }
  for (const char* bad : {"", "bad name", "x/y", ".lead", "_lead", "q\"uote",
                          "tab\there", "caf\xc3\xa9"}) {
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(valid_metric_name(std::string(64, 'a')), "accepts 64 characters");
  expect(!valid_metric_name(std::string(65, 'a')), "rejects 65 characters");
}

void quantiles() {
  using perfbench::quantile;
  // Linear interpolation between closest ranks: position q * (n - 1).
  const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  expect(near(quantile(four, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile(four, 0.25), 1.75), "q1 of 1..4 is 1.75");
  expect(near(quantile(four, 0.75), 3.25), "q3 of 1..4 is 3.25");
  expect(near(quantile(four, 0.0), 1.0), "q0 is the minimum");
  expect(near(quantile(four, 1.0), 4.0), "q1.0 is the maximum");
  std::vector<double> hundred;
  for (int i = 0; i <= 100; ++i) hundred.push_back(static_cast<double>(100 - i));
  expect(near(quantile(hundred, 0.99), 99.0), "p99 of 0..100 is 99");
  expect(near(quantile({10.0, 20.0}, 0.99), 19.9), "p99 of {10,20} is 19.9");
  expect(near(quantile({7.0}, 0.99), 7.0), "one sample is every quantile");
  expect(quantile({}, 0.5) == 0.0, "empty reads 0");
  expect(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "median of 3 values");
}

void span_self_time() {
  perfbench::SpanLog log(true);
  const int outer = log.open("outer");
  const int inner = log.open("inner");
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  log.close(inner);
  log.close(outer);
  expect(log.spans().size() == 2, "two spans recorded");
  expect(log.spans()[1].parent == 0, "inner span's parent is outer");
  expect(log.self_seconds("outer") >= 0.0, "self time is not negative");
  expect(near(log.self_seconds("outer") + log.self_seconds("inner"),
              log.total_seconds("outer")),
         "self times add up to the root's duration");
  perfbench::SpanLog off(false);
  expect(off.open("x") == -1 && off.spans().empty(), "disabled log is empty");
}

srm::net::Packet request_packet() {
  srm::net::Packet p;
  p.source = 7;
  p.group = 1;
  p.ttl = 9;
  p.payload = std::make_shared<srm::RequestMessage>(
      srm::DataName{7, srm::PageId{7, 2}, 41}, 12, 0.125, 9);
  return p;
}

srm::net::Packet data_packet() {
  srm::net::Packet p;
  p.source = 3;
  p.group = 1;
  p.payload = std::make_shared<srm::DataMessage>(
      srm::DataName{3, srm::PageId{3, 0}, 5},
      std::make_shared<const srm::Payload>(srm::Payload{1, 2, 3, 4}));
  return p;
}

void wire_check() {
  srm::transport::DecodePools pools;
  std::vector<std::uint8_t> scratch;
  for (const srm::net::Packet& p : {request_packet(), data_packet()}) {
    std::vector<std::uint8_t> frame;
    expect(srm::transport::encode_frame(p, frame), "packet encodes");
    expect(perfbench::frame_round_trips(frame, frame.data(), frame.size(),
                                        pools, scratch),
           "intact frame passes the wire check");
    std::size_t flips_caught = 0;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> bad = frame;
      bad[i] ^= 0x01;
      flips_caught += perfbench::frame_round_trips(frame, bad.data(),
                                                   bad.size(), pools, scratch)
                          ? 0
                          : 1;
    }
    expect(flips_caught == frame.size(), "every flipped byte is caught");
    std::size_t cuts_caught = 0;
    for (std::size_t len = 0; len < frame.size(); ++len) {
      cuts_caught += perfbench::frame_round_trips(frame, frame.data(), len,
                                                  pools, scratch)
                         ? 0
                         : 1;
    }
    expect(cuts_caught == frame.size(), "every truncated length is caught");
    std::vector<std::uint8_t> longer = frame;
    longer.push_back(0);
    expect(!perfbench::frame_round_trips(frame, longer.data(), longer.size(),
                                         pools, scratch),
           "a trailing byte is caught");
  }
}

}  // namespace

int main() {
  metric_names();
  quantiles();
  span_self_time();
  wire_check();
  if (failures == 0) std::cout << "perfbench selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
