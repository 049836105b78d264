/// \file trace.hpp
/// The benchmark's own span recorder.
///
/// Spans are recorded from the benchmark's files around calls into the
/// program's public functions — never from inside the program, whose
/// telemetry hooks stay switched off in every run.  Each span carries a
/// name ("<layer>.<stage>", the layer named after a src/ module), start and
/// end on the steady clock, its parent span, and the operation (flight or
/// request id) it belongs to.  Spans stay in memory and are written out
/// once, when the benchmark ends.
///
/// A span's self time is its duration minus the part of its interval its
/// child spans cover; the ledger reports each stage's self time per
/// operation, so the stages of one flight add up to the flight.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch.
using Nanos = std::int64_t;

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< static string, "<layer>.<stage>"
  Nanos start = 0;
  Nanos end = 0;
  std::int32_t parent = kNoParent;  ///< index into the recorder, or kNoParent
  std::uint64_t op = 0;             ///< flight / request id
};

/// In-memory, single-threaded span store.
class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) {}

  [[nodiscard]] Nanos now() const { return at(Clock::now()); }

  /// \p time as nanoseconds since the recorder's epoch.
  [[nodiscard]] Nanos at(Clock::time_point time) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(time - epoch_)
        .count();
  }

  /// Opens a span now; returns its index.
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t op);
  void close(std::int32_t index) { spans_[static_cast<std::size_t>(index)].end = now(); }

  /// Records a span whose interval was measured elsewhere.
  std::int32_t add(const Span& span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes every span as one CSV row: index,parent,op,name,start_ns,end_ns.
  void write_csv(std::ostream& out) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, const char* name, std::int32_t parent,
             std::uint64_t op)
      : recorder_(recorder), index_(recorder.open(name, parent, op)) {}
  ~ScopedSpan() { recorder_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const noexcept { return index_; }

 private:
  Recorder& recorder_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own.  Children must be recorded after their
/// parent (true for anything recorded through open()/ScopedSpan).
[[nodiscard]] std::vector<Nanos> self_times(const std::vector<Span>& spans);

/// Per operation, the summed self time (ms) of each span name.
using Ledger = std::map<std::uint64_t, std::map<std::string, double>>;
[[nodiscard]] Ledger ledger_ms(const std::vector<Span>& spans);

}  // namespace perfbench
