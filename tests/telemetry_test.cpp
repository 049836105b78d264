// Unit tests for spacefts::telemetry — scoped spans, the metrics registry,
// and the export formats.  The suite runs against both build flavours: with
// SPACEFTS_TELEMETRY=0 the hooks are no-ops and the tests assert exactly
// that (empty collections, zero counters), so the OFF configuration keeps
// its "bit-identical, no output" contract under test too.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace st = spacefts::telemetry;

namespace {

/// Fresh, enabled telemetry state for each test (ON builds); with the
/// hooks compiled out, enable requests are silently ignored.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    st::reset();
    st::set_enabled(true);
  }
  void TearDown() override {
    st::set_enabled(false);
    st::reset();
  }
};

[[nodiscard]] std::vector<st::SpanRecord> spans_named(
    const std::vector<st::SpanRecord>& all, const std::string& name) {
  std::vector<st::SpanRecord> out;
  for (const auto& s : all) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------- spans

TEST_F(TelemetryTest, SpanRecordsNameArgsAndDuration) {
  {
    SPACEFTS_TSPAN("test.outer", {"lambda", 80.0}, {"width", 64.0});
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto outer = spans_named(spans, "test.outer");
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_FALSE(outer[0].instant);
  EXPECT_EQ(outer[0].depth, 0u);
  ASSERT_EQ(outer[0].args.size(), 2u);
  EXPECT_EQ(outer[0].args[0].first, "lambda");
  EXPECT_DOUBLE_EQ(outer[0].args[0].second, 80.0);
  EXPECT_EQ(outer[0].args[1].first, "width");
  EXPECT_DOUBLE_EQ(outer[0].args[1].second, 64.0);
}

TEST_F(TelemetryTest, NestedSpansTrackDepthAndContainment) {
  {
    SPACEFTS_TSPAN("test.parent");
    {
      SPACEFTS_TSPAN("test.child");
      { SPACEFTS_TSPAN("test.grandchild"); }
    }
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto parent = spans_named(spans, "test.parent");
  const auto child = spans_named(spans, "test.child");
  const auto grandchild = spans_named(spans, "test.grandchild");
  ASSERT_EQ(parent.size(), 1u);
  ASSERT_EQ(child.size(), 1u);
  ASSERT_EQ(grandchild.size(), 1u);
  EXPECT_EQ(parent[0].depth, 0u);
  EXPECT_EQ(child[0].depth, 1u);
  EXPECT_EQ(grandchild[0].depth, 2u);
  // Children start no earlier and end no later than their parent.
  EXPECT_GE(child[0].start_ns, parent[0].start_ns);
  EXPECT_LE(child[0].start_ns + child[0].dur_ns,
            parent[0].start_ns + parent[0].dur_ns);
  EXPECT_GE(grandchild[0].start_ns, child[0].start_ns);
}

TEST_F(TelemetryTest, SiblingSpansShareDepth) {
  {
    SPACEFTS_TSPAN("test.parent");
    { SPACEFTS_TSPAN("test.first"); }
    { SPACEFTS_TSPAN("test.second"); }
  }
  const auto spans = st::collect();
  if (!st::kCompiledIn) return;
  const auto first = spans_named(spans, "test.first");
  const auto second = spans_named(spans, "test.second");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].depth, 1u);
  EXPECT_EQ(second[0].depth, 1u);
  // collect() sorts by start time: first precedes second.
  EXPECT_LE(first[0].start_ns, second[0].start_ns);
}

TEST_F(TelemetryTest, InstantEventsHaveZeroDuration) {
  st::instant("test.tick", {"fragment", 3.0});
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto ticks = spans_named(spans, "test.tick");
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_TRUE(ticks[0].instant);
  EXPECT_EQ(ticks[0].dur_ns, 0u);
  ASSERT_EQ(ticks[0].args.size(), 1u);
  EXPECT_DOUBLE_EQ(ticks[0].args[0].second, 3.0);
}

TEST_F(TelemetryTest, WorkerThreadsDrainIntoTheGlobalRing) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SPACEFTS_TSPAN("test.worker", {"lane", static_cast<double>(t)});
      }
    });
  }
  for (auto& w : workers) w.join();
  // Joined threads have unregistered, which drains their buffers; collect()
  // flushes any still-registered thread (this one) as well.
  const auto spans = st::collect();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(spans.empty());
    return;
  }
  const auto worker_spans = spans_named(spans, "test.worker");
  EXPECT_EQ(worker_spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Each worker got its own registration-order tid.
  std::vector<std::uint32_t> tids;
  for (const auto& s : worker_spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TelemetryTest, RingDropsOldestWhenOverCapacity) {
  if (!st::kCompiledIn) return;
  st::set_ring_capacity(8);
  for (int i = 0; i < 32; ++i) {
    SPACEFTS_TSPAN("test.flood");
  }
  const auto spans = st::collect();
  EXPECT_LE(spans.size(), 8u);
  st::set_ring_capacity(1 << 18);
}

TEST_F(TelemetryTest, DisabledRecordingIsInvisible) {
  st::set_enabled(false);
  {
    SPACEFTS_TSPAN("test.dark", {"lambda", 80.0});
    st::instant("test.dark_tick");
    st::counter("test.dark_counter").add(5);
    st::gauge("test.dark_gauge").set(1.0);
    st::histogram("test.dark_histogram").record(2.0);
  }
  EXPECT_TRUE(st::collect().empty());
  EXPECT_EQ(st::counter("test.dark_counter").value(), 0u);
  EXPECT_EQ(st::histogram("test.dark_histogram").count(), 0u);
}

// ----------------------------------------------------------------- registry

TEST_F(TelemetryTest, CounterAccumulatesAndRegistryIsStable) {
  auto& c = st::counter("test.counter");
  c.add();
  c.add(9);
  if (!st::kCompiledIn) {
    EXPECT_EQ(c.value(), 0u);
    return;
  }
  EXPECT_EQ(c.value(), 10u);
  // Same name, same object.
  EXPECT_EQ(&st::counter("test.counter"), &c);
}

TEST_F(TelemetryTest, GaugeKeepsLastValue) {
  auto& g = st::gauge("test.gauge");
  g.set(2.5);
  g.set(-1.25);
  if (!st::kCompiledIn) {
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    return;
  }
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

// ---------------------------------------------------------------- histogram

TEST_F(TelemetryTest, HistogramBucketsByPowerOfTwo) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.buckets");
  h.record(1.5);  // [1, 2)  -> exponent 1
  h.record(1.5);
  h.record(3.0);  // [2, 4)  -> exponent 2
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  // The two values land in adjacent buckets.
  const std::size_t b15 =
      static_cast<std::size_t>(1 - st::Histogram::kMinExp);
  EXPECT_EQ(h.bucket(b15), 2u);
  EXPECT_EQ(h.bucket(b15 + 1), 1u);
}

TEST_F(TelemetryTest, HistogramUnderflowAndNonFiniteGoToBucketZero) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.underflow");
  h.record(0.0);
  h.record(-5.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 3u);
}

TEST_F(TelemetryTest, HistogramMinMaxAndSingleValueQuantiles) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.single");
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 0.0);
  h.record(0.125);
  // A single-valued histogram reports that value for every quantile
  // (the estimate clamps to [min, max]).
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(50.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(100.0), 0.125);
}

TEST_F(TelemetryTest, HistogramQuantilesAreOrderedAndBounded) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.quantiles");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-3);
  const double p50 = h.quantile(50.0);
  const double p95 = h.quantile(95.0);
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p95, h.max());
}

TEST_F(TelemetryTest, ResetClearsEverything) {
  st::counter("test.reset_counter").add(3);
  st::histogram("test.reset_histogram").record(1.0);
  { SPACEFTS_TSPAN("test.reset_span"); }
  st::reset();
  EXPECT_EQ(st::counter("test.reset_counter").value(), 0u);
  EXPECT_EQ(st::histogram("test.reset_histogram").count(), 0u);
  EXPECT_TRUE(st::collect().empty());
}

// ------------------------------------------------------------------ exports

TEST_F(TelemetryTest, TraceJsonHasChromeTraceShape) {
  { SPACEFTS_TSPAN("test.export", {"lambda", 80.0}); }
  const std::string json = st::trace_json();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(json.empty());
    return;
  }
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"lambda\": 80"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonlListsRegisteredInstruments) {
  st::counter("test.jsonl_counter").add(7);
  st::gauge("test.jsonl_gauge").set(0.5);
  st::histogram("test.jsonl_histogram").record(2.0);
  const std::string jsonl = st::metrics_jsonl();
  if (!st::kCompiledIn) {
    EXPECT_TRUE(jsonl.empty());
    return;
  }
  EXPECT_NE(jsonl.find("\"test.jsonl_counter\", \"value\": 7"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"test.jsonl_gauge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"test.jsonl_histogram\""), std::string::npos);
  // Every line is tagged with the shared bench key.
  EXPECT_NE(jsonl.find("\"bench\": \"telemetry\""), std::string::npos);
}

// -------------------------------------------------------------------- jsonl

TEST(JsonlEscape, PassesPlainTextThrough) {
  EXPECT_EQ(st::jsonl::escape("ngst.tile"), "ngst.tile");
}

TEST(JsonlEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(st::jsonl::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(st::jsonl::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(st::jsonl::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(st::jsonl::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonlAppendFmt, UsesTheGivenFormat) {
  std::string out = "x=";
  st::jsonl::append_fmt(out, "%.3f", 1.5);
  EXPECT_EQ(out, "x=1.500");
}

namespace {

/// A fresh directory under the gtest temp root, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              (name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::size_t entries() const {
    return static_cast<std::size_t>(
        std::distance(std::filesystem::directory_iterator(path_),
                      std::filesystem::directory_iterator()));
  }

 private:
  std::filesystem::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Rows key on everything before the first comma.
std::string key_before_comma(std::string_view row) {
  return std::string(row.substr(0, row.find(',')));
}

/// Runs \p write under a 64-byte file-size limit with SIGXFSZ ignored, so
/// any write past 64 bytes fails the way a full disk would.
template <typename Write>
bool under_small_file_limit(Write write) {
  rlimit saved{};
  EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit small = saved;
  small.rlim_cur = 64;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  const bool ok = write();
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  return ok;
}

std::string rows(int count) {
  std::string text;
  for (int i = 0; i < count; ++i) text += "row" + std::to_string(i) + ",x\n";
  return text;
}

}  // namespace

TEST(JsonlReplaceFile, ReplacesTheFileAndLeavesNoStagingFile) {
  const ScratchDir dir("jsonl_replace");
  const std::string path = dir.file("artifact.jsonl");
  ASSERT_TRUE(st::jsonl::replace_file(path, "old\n"));
  ASSERT_TRUE(st::jsonl::replace_file(path, "new\n"));
  EXPECT_EQ(slurp(path), "new\n");
  EXPECT_EQ(dir.entries(), 1u);
}

// A short write must be reported, not hidden behind a buffered stream: the
// small text fails only when close flushes it, the large one in fwrite
// itself.  Either way the old file stays whole and no staged file is left.
TEST(JsonlReplaceFile, FailedWriteReturnsFalseAndLeavesTheOriginalWhole) {
  const ScratchDir dir("jsonl_replace_fail");
  const std::string path = dir.file("artifact.jsonl");
  ASSERT_TRUE(st::jsonl::replace_file(path, "kept\n"));
  for (const int count : {20, 20000}) {
    const std::string text = rows(count);
    EXPECT_FALSE(under_small_file_limit(
        [&] { return st::jsonl::replace_file(path, text); }))
        << text.size() << " bytes";
    EXPECT_EQ(slurp(path), "kept\n");
    EXPECT_EQ(dir.entries(), 1u) << "the staged file must be cleaned up";
  }
}

TEST(JsonlFields, StrictReadersTakeWholeTokensOnly) {
  namespace jsonl = st::jsonl;
  const std::string_view line =
      R"({"kind":"ngst","n":12,"neg":-3,"x":1.5e3,"bad":12x,"empty":,)"
      R"("seed":18446744073709551615})";
  std::string token;
  ASSERT_TRUE(jsonl::find_token(line, "kind", token));
  EXPECT_EQ(token, "\"ngst\"");
  EXPECT_FALSE(jsonl::find_token(line, "empty", token));
  EXPECT_FALSE(jsonl::find_token(line, "absent", token));

  double number = 0.0;
  EXPECT_TRUE(jsonl::find_number(line, "x", number));
  EXPECT_EQ(number, 1500.0);
  EXPECT_TRUE(jsonl::find_number(line, "neg", number));
  EXPECT_EQ(number, -3.0);
  EXPECT_FALSE(jsonl::find_number(line, "bad", number));
  EXPECT_FALSE(jsonl::find_number(line, "kind", number));

  std::uint64_t seed = 0;
  EXPECT_TRUE(jsonl::find_unsigned(line, "seed", seed));
  EXPECT_EQ(seed, 18446744073709551615ULL);  // beyond a double's precision
  std::size_t size = 0;
  EXPECT_TRUE(jsonl::find_unsigned(line, "n", size));
  EXPECT_EQ(size, 12u);
  EXPECT_FALSE(jsonl::find_unsigned(line, "neg", size));
  EXPECT_FALSE(jsonl::find_unsigned(line, "bad", size));
  EXPECT_FALSE(jsonl::find_unsigned(line, "x", size));
}

TEST(JsonlUpsert, ReplacesKeyedRowsAndLeavesNoStagingFile) {
  const ScratchDir dir("jsonl_upsert");
  const std::string path = dir.file("BENCH_test.json");
  ASSERT_TRUE(st::jsonl::upsert_jsonl("a,1\nb,1\n", key_before_comma, path));
  ASSERT_TRUE(st::jsonl::upsert_jsonl("b,2\nc,2\n", key_before_comma, path));
  EXPECT_EQ(slurp(path), "a,1\nb,2\nc,2\n");
  EXPECT_EQ(dir.entries(), 1u);
}

// A write that dies part-way must not cost the rows already on disk.  The
// file-size limit makes the staged write fail after 64 bytes, the way a full
// disk would; rewriting in place would have truncated the original first.
TEST(JsonlUpsert, FailedWriteLeavesTheOriginalWhole) {
  const ScratchDir dir("jsonl_upsert_fail");
  const std::string path = dir.file("BENCH_test.json");
  ASSERT_TRUE(st::jsonl::upsert_jsonl("kept,1\n", key_before_comma, path));
  const std::string before = slurp(path);

  const std::string big = rows(200);
  EXPECT_FALSE(under_small_file_limit(
      [&] { return st::jsonl::upsert_jsonl(big, key_before_comma, path); }));
  EXPECT_EQ(slurp(path), before);
  EXPECT_EQ(dir.entries(), 1u) << "the staged file must be cleaned up";
}

// ------------------------------------------------------- windowed snapshots

TEST_F(TelemetryTest, CounterCursorTakesDeltasSinceLastTake) {
  if (!st::kCompiledIn) return;
  auto& c = st::counter("test.cursor");
  st::CounterCursor cursor;
  c.add(5);
  EXPECT_EQ(cursor.take(c), 5u);
  EXPECT_EQ(cursor.take(c), 0u);  // nothing new since the last sweep
  c.add(3);
  EXPECT_EQ(cursor.take(c), 3u);
  EXPECT_EQ(cursor.last(), 8u);
}

TEST_F(TelemetryTest, DecayedRateFoldsCounterDeltasIntoEwma) {
  if (!st::kCompiledIn) return;
  auto& c = st::counter("test.decayed");
  st::DecayedRate rate(1.0);  // half-life 1 update: alpha = 0.5
  c.add(10);
  EXPECT_DOUBLE_EQ(rate.update(c), 5.0);
  EXPECT_DOUBLE_EQ(rate.update(c), 2.5);  // decays with no new events
  c.add(10);
  EXPECT_DOUBLE_EQ(rate.update(c), 6.25);
  EXPECT_DOUBLE_EQ(rate.value(), 6.25);
}

TEST_F(TelemetryTest, HistogramWindowIsolatesTheWindowFromLifetimeTotals) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.window");
  st::HistogramWindow window;
  h.record(1.5);
  h.record(3.0);
  window.take(h);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_DOUBLE_EQ(window.sum(), 4.5);
  EXPECT_DOUBLE_EQ(window.mean(), 2.25);
  // The next window only sees what arrived after the previous take.
  h.record(100.0);
  window.take(h);
  EXPECT_EQ(window.count(), 1u);
  EXPECT_DOUBLE_EQ(window.sum(), 100.0);
  // Lifetime totals keep accumulating regardless.
  EXPECT_EQ(h.count(), 3u);
}

TEST_F(TelemetryTest, HistogramWindowQuantilesAreBucketBracketed) {
  if (!st::kCompiledIn) return;
  auto& h = st::histogram("test.window.q");
  st::HistogramWindow window;
  window.take(h);
  EXPECT_DOUBLE_EQ(window.quantile(99.0), 0.0);  // empty window
  h.record(3.0);  // bucket [2, 4)
  window.take(h);
  const double q50 = window.quantile(50.0);
  EXPECT_GE(q50, 2.0);  // single sample: bracketed by its bucket
  EXPECT_LE(q50, 4.0);
  for (int i = 0; i < 100; ++i) h.record(i < 90 ? 1.5 : 1000.0);
  window.take(h);
  EXPECT_LE(window.quantile(50.0), 4.0);
  EXPECT_GE(window.quantile(99.0), 512.0);
}
