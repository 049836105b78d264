/// \file report.hpp
/// What one benchmark run hands back to run.py: every metric with its unit
/// and sample count, the correctness tally, and the host/run fingerprint,
/// as one JSON document on standard output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";       ///< where span traces and ledgers go
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< how many measurements back the value
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }

  /// Counts one attempted operation.
  void attempt(std::size_t n = 1) noexcept { attempted_ += n; }

  /// Records a failed correctness check (one failed operation).
  void fail(std::string what) { failures_.push_back(std::move(what)); }

  /// Fails with \p what unless \p ok.  Returns \p ok.
  bool expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }

  void note(std::string text) { notes_.push_back(std::move(text)); }

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }

  /// The JSON document; \p options supply the run fingerprint fields.
  void write_json(std::ostream& out, const RunOptions& options) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
};

/// Peak resident set of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// std::thread::hardware_concurrency(), never below 1.
[[nodiscard]] std::size_t host_threads();

}  // namespace perfbench
