// Shared pieces of the benchmark: wall clock, the in-memory span log of the
// traced run, the metric set printed as JSON, and the one quantile
// definition every percentile in the benchmark goes through.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, seconds.
double now_s();

// The only percentile definition used by the benchmark:
// util::Samples::quantile (linear interpolation between closest ranks).
// q in [0, 1]; an empty vector reads 0.
double quantile(const std::vector<double>& values, double q);
double median(const std::vector<double>& values);

// A metric name is 1..64 characters from [A-Za-z0-9_.-], starting with a
// letter or digit.
bool valid_metric_name(const std::string& name);

struct Metric {
  double value = 0.0;
  std::string unit;
};
// Ordered by name so the printed JSON is stable.
using Metrics = std::map<std::string, Metric>;

// Spans recorded at the benchmark's calls into each layer.  Spans nest on
// one thread (the benchmark's), so a span's children never overlap and its
// self time is its duration minus the sum of its children's durations.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the log, -1 for a root span
};

class SpanLog {
 public:
  // A disabled log records nothing and open() returns -1.
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int open(const char* name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Summed self time of every span with this name, seconds.
  double self_seconds(const std::string& name) const;
  // Summed duration of every span with this name, seconds.
  double total_seconds(const std::string& name) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a no-op on a disabled log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// Peak resident set of this process, MB.
double peak_rss_mb();

// One-line JSON description of the machine and build: nproc, build type,
// compiler, 1-minute load average.
std::string environment_json();

// {"name": {"value": v, "unit": "u"}, ...} with full double precision.
std::string metrics_json(const Metrics& metrics);

// Writes the span log as JSON lines ({"name","start","end","parent"} per
// span, times relative to the first span) to `path`.  Returns false when
// the file cannot be written.
bool write_spans(const std::string& path, const SpanLog& log);

}  // namespace perfbench
