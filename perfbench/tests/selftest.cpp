// Self-tests of the benchmark's own helpers: the percentile and
// sample-count rule, span self-time arithmetic, and the staged flight
// against downlink::run_chain on tiny configs.  Built by
// `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include "flight.hpp"
#include "spacefts/downlink/chain.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 90.0), 4.6);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
  EXPECT_FALSE(supports_percentile(99, 90.0));
  EXPECT_TRUE(supports_percentile(100, 90.0));

  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  std::vector<Span> spans = {
      {"root", 0, 100, kNoParent, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},   // overlaps a: union 10..50 = 40
      {"c", 90, 120, 0, 1},  // clipped to the parent: 10
      {"a.child", 12, 18, 1, 1},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);

  const Ledger ledger = ledger_ms(spans);
  double total = 0.0;
  for (const auto& [name, ms] : ledger.at(1)) total += ms;
  // Self times add up to the root's interval, plus child time outside it
  // (c: 20), plus the overlap of siblings a and b (10), which both own.
  EXPECT_NEAR(total, (100.0 + 20.0 + 10.0) / 1e6, 1e-12);
}

TEST(SelfTime, RecorderNestsScopedSpans) {
  Recorder recorder;
  {
    const ScopedSpan root(recorder, "root", kNoParent, 7);
    const ScopedSpan child(recorder, "child", root.index(), 7);
  }
  ASSERT_EQ(recorder.size(), 2u);
  const auto& s = recorder.spans();
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_LE(s[0].start, s[1].start);
  EXPECT_GE(s[0].end, s[1].end);
}

void expect_staged_matches(spacefts::downlink::ChainWorkload workload,
                           std::size_t side, std::size_t frames) {
  for (std::uint64_t flight = 0; flight < 6; ++flight) {
    auto config = flight_config(workload, side, frames, 99, flight);
    config.threads = 2;
    const auto chain = spacefts::downlink::run_chain(config);
    Recorder recorder;
    const StagedFlight staged = run_staged(config, recorder, flight);
    const char* diff = first_difference(staged.report, chain);
    EXPECT_EQ(diff, nullptr) << "flight " << flight << ": " << diff;
    EXPECT_EQ(image_crc(staged.report.product), image_crc(chain.product));
    EXPECT_LE(staged.voter_useful, staged.voter_changed);
    // Every span closed inside the flight.
    const Span& root = recorder.spans()[static_cast<std::size_t>(staged.root)];
    for (const Span& s : recorder.spans()) {
      EXPECT_GE(s.start, root.start);
      EXPECT_LE(s.end, root.end);
    }
  }
}

TEST(StagedFlight, MatchesRunChainNgst) {
  expect_staged_matches(spacefts::downlink::ChainWorkload::kNgstImage, 32, 8);
}

TEST(StagedFlight, MatchesRunChainTelemetry) {
  expect_staged_matches(spacefts::downlink::ChainWorkload::kTelemetry, 8, 64);
}

TEST(StagedFlight, DetectsADifferentProduct) {
  auto config = flight_config(spacefts::downlink::ChainWorkload::kNgstImage,
                              32, 8, 99, 1);
  const auto chain = spacefts::downlink::run_chain(config);
  auto other = chain;
  other.product.pixels()[0] ^= 1;
  EXPECT_STREQ(first_difference(chain, other), "product");
}

}  // namespace
}  // namespace perfbench
