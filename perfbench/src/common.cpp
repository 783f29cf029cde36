#include "common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/stats.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  srm::util::Samples samples;
  for (double v : values) samples.add(v);
  return samples.quantile(q);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

int SpanLog::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start = now_s();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanLog::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double SpanLog::self_seconds(const std::string& name) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - child_time[i];
    }
  }
  return total;
}

double SpanLog::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the pre-exec image of whoever forked us (run.py's Python).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string environment_json() {
  double load1 = -1.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &load1) != 1) load1 = -1.0;
    std::fclose(f);
  }
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"loadavg_1m\": " << load1 << "}";
  return out.str();
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": {\"value\": " +
           number(metric.value) + ", \"unit\": \"" + json_escape(metric.unit) +
           "\"}";
  }
  return out + "}";
}

bool write_spans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = log.spans().empty() ? 0.0 : log.spans().front().start;
  for (const Span& s : log.spans()) {
    out << "{\"name\": \"" << json_escape(s.name)
        << "\", \"start\": " << number(s.start - t0)
        << ", \"end\": " << number(s.end - t0) << ", \"parent\": " << s.parent
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
