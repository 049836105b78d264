#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "spacefts/core/kernel.hpp"

namespace perfbench {
namespace {

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
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

std::string quoted(const std::string& text) { return '"' + escape(text) + '"'; }

/// Full-precision number; null for a non-finite value, which run.py
/// rejects rather than print.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t host_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void Report::write_json(std::ostream& out, const RunOptions& options) const {
  out << "{\"workload\": " << quoted(options.workload)
      << ", \"traced\": " << (options.trace ? "true" : "false")
      << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failures_.size();
  out << ", \"fingerprint\": {\"cpu_model\": " << quoted(cpu_model())
      << ", \"nproc\": " << host_threads() << ", \"kernel\": "
      << quoted(spacefts::core::kernel_name(
             spacefts::core::resolve_kernel(spacefts::core::Kernel::kAuto)))
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"simd\": " << (PERFBENCH_SIMD ? "true" : "false")
      << ", \"telemetry\": " << (SPACEFTS_TELEMETRY ? "true" : "false")
      << ", \"git_sha\": " << quoted(options.git_sha)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << number(options.seconds) << "}";
  out << ", \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "{\"name\": " << quoted(m.name)
        << ", \"value\": " << number(m.value) << ", \"unit\": "
        << quoted(m.unit) << ", \"samples\": " << m.samples << "}";
  }
  out << "], \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << quoted(failures_[i]);
  }
  out << "], \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << quoted(notes_[i]);
  }
  out << "]}\n";
}

}  // namespace perfbench
