// Tests for the fault-injection campaign harness — grid sweep determinism,
// termination under link loss, degraded completion, the CRC framing sweep
// that underpins the link-level detection claim, the shared trial engine,
// and byte-for-byte replay of the committed BENCH_campaign.json rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "spacefts/campaign/campaign.hpp"
#include "spacefts/campaign/compute_sweep.hpp"
#include "spacefts/campaign/downlink_sweep.hpp"
#include "spacefts/campaign/sweep.hpp"
#include "spacefts/common/random.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/message_faults.hpp"

namespace sc = spacefts::campaign;
namespace se = spacefts::edac;
namespace sf = spacefts::fault;
using spacefts::common::Rng;

#ifndef SPACEFTS_BENCH_CAMPAIGN_PATH
#error "SPACEFTS_BENCH_CAMPAIGN_PATH must point at the committed BENCH_campaign.json"
#endif

namespace {

/// The committed BENCH_campaign.json rows of one bench, in file order.
std::string committed_rows(const std::string& bench) {
  std::ifstream in(SPACEFTS_BENCH_CAMPAIGN_PATH);
  EXPECT_TRUE(in) << SPACEFTS_BENCH_CAMPAIGN_PATH;
  const std::string tag = "\"bench\":\"" + bench + "\"";
  std::string rows;
  for (std::string line; std::getline(in, line);) {
    if (line.find(tag) != std::string::npos) rows += line + "\n";
  }
  EXPECT_FALSE(rows.empty()) << "no committed " << bench << " rows";
  return rows;
}

/// A grid small enough for unit-test latency but exercising every fault
/// dimension at once.
sc::CampaignConfig small_campaign() {
  sc::CampaignConfig config;
  config.gamma0_grid = {0.0, 0.005};
  config.crash_grid = {0.3};
  config.link_loss_grid = {0.0, 0.08};
  config.lambda_grid = {80.0};
  config.trials = 2;
  config.seed = 7;
  config.scene_side = 32;
  config.frames = 12;
  config.workers = 3;
  config.fragment_side = 16;
  return config;
}

}  // namespace

TEST(Campaign, ValidatesConfiguration) {
  auto config = small_campaign();
  config.gamma0_grid.clear();
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.trials = 0;
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.crash_grid = {1.5};
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);

  config = small_campaign();
  config.fragment_side = 10;  // 32 % 10 != 0
  EXPECT_THROW((void)sc::run_campaign(config), std::invalid_argument);
}

TEST(Campaign, GridEnumerationIsComplete) {
  const auto config = small_campaign();
  const auto report = sc::run_campaign(config);
  EXPECT_EQ(report.cells.size(), 4u);  // 2 x 1 x 2 x 1
  EXPECT_EQ(report.trials_run, 8u);
  for (const auto& cell : report.cells) EXPECT_EQ(cell.trials, 2u);
}

// Acceptance (a): identical seeds => bit-identical campaign JSON across
// thread counts.
TEST(Campaign, JsonIsBitIdenticalAcrossThreadCounts) {
  auto config = small_campaign();
  config.threads = 1;
  const auto serial = sc::to_jsonl(sc::run_campaign(config));
  config.threads = 4;
  const auto threaded = sc::to_jsonl(sc::run_campaign(config));
  config.threads = 0;  // all hardware threads
  const auto maximal = sc::to_jsonl(sc::run_campaign(config));
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial, maximal);
  EXPECT_NE(serial.find("\"bench\":\"fault_campaign\",\"sampler\":\"geometric\""),
            std::string::npos);
}

// The default grid (seed 42, 3 trials) is what BENCH_campaign.json
// records; every committed row must replay byte for byte.
TEST(Campaign, DefaultGridReproducesCommittedRows) {
  const std::string committed = committed_rows("fault_campaign");
  sc::CampaignConfig config;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    config.threads = threads;
    EXPECT_EQ(sc::to_jsonl(sc::run_campaign(config)), committed)
        << "threads " << threads;
  }
}

TEST(Campaign, DifferentSeedsDiverge) {
  auto config = small_campaign();
  const auto a = sc::to_jsonl(sc::run_campaign(config));
  config.seed = 8;
  const auto b = sc::to_jsonl(sc::run_campaign(config));
  EXPECT_NE(a, b);
}

// Acceptance (b): link loss > 0 with retries enabled always terminates and
// reports coverage.
TEST(Campaign, SurvivesLinkLossWithRetries) {
  auto config = small_campaign();
  config.link_loss_grid = {0.15};
  config.max_link_retries = 6;
  const auto report = sc::run_campaign(config);
  EXPECT_EQ(report.trials_survived, report.trials_run);
  bool saw_link_activity = false;
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.survived, cell.trials);
    EXPECT_GE(cell.min_coverage, 0.0);
    EXPECT_LE(cell.min_coverage, 1.0);
    EXPECT_GE(cell.mean_coverage, cell.min_coverage);
    if (cell.messages_dropped + cell.messages_corrupted > 0) {
      saw_link_activity = true;
    }
  }
  EXPECT_TRUE(saw_link_activity);
}

// Acceptance (c): with retries disabled, hostile links produce flagged
// fallback tiles and coverage < 100% — never a hang or a dead trial.
TEST(Campaign, NoRetriesDegradesInsteadOfDying) {
  auto config = small_campaign();
  config.gamma0_grid = {0.0};
  config.crash_grid = {0.0};
  config.link_loss_grid = {0.25};
  config.max_link_retries = 0;
  config.trials = 4;
  const auto report = sc::run_campaign(config);
  ASSERT_EQ(report.cells.size(), 1u);
  const auto& cell = report.cells[0];
  EXPECT_EQ(cell.survived, cell.trials);
  EXPECT_GT(cell.degraded_fragments, 0u);
  EXPECT_LT(cell.min_coverage, 1.0);
  EXPECT_EQ(cell.link_retries, 0u);
}

TEST(Campaign, EnforcePassesOnHealthyReport) {
  auto config = small_campaign();
  config.link_loss_grid = {0.0, 0.05};
  const auto report = sc::run_campaign(config);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;
  EXPECT_TRUE(diagnostics.empty());
}

TEST(Campaign, EnforceFlagsRegressions) {
  sc::CampaignReport report;
  sc::CellResult dead;
  dead.gamma0 = 0.002;
  dead.trials = 3;
  dead.survived = 1;  // two dead trials: one violation
  report.cells.push_back(dead);
  sc::CellResult holey;
  holey.gamma0 = 0.0;
  holey.trials = 2;
  holey.survived = 2;
  holey.min_coverage = 0.75;  // clean memory must stay fully covered
  report.cells.push_back(holey);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 2u);
  EXPECT_NE(diagnostics.find("did not survive"), std::string::npos);
  EXPECT_NE(diagnostics.find("clean-memory"), std::string::npos);
}

TEST(Campaign, JsonlIsOneRecordPerCell) {
  const auto report = sc::run_campaign(small_campaign());
  const auto jsonl = sc::to_jsonl(report);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, report.cells.size());
  // Every line is a self-contained object.
  EXPECT_EQ(jsonl.find("{\"bench\""), 0u);
  EXPECT_EQ(jsonl.back(), '\n');
}

// Acceptance (d): the CRC framing detects every injected corruption in a
// 10k-message sweep — the property the pipeline's NACK path rests on.
TEST(Campaign, CrcFramingDetectsEveryCorruptionIn10kMessages) {
  sf::MessageFaultConfig fault_config;
  fault_config.corrupt_prob = 1.0;
  fault_config.corrupt_gamma0 = 2e-4;
  const sf::MessageFaultModel model(fault_config);

  Rng rng(99);
  std::size_t corrupted_bits_total = 0;
  for (int message = 0; message < 10000; ++message) {
    std::vector<std::uint8_t> frame(16 + rng.below(240));
    for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng());
    se::frame_append_crc(frame);
    ASSERT_TRUE(se::frame_verify(frame));
    corrupted_bits_total += model.corrupt(frame, rng);
    EXPECT_FALSE(se::frame_verify(frame)) << "message " << message;
  }
  EXPECT_GE(corrupted_bits_total, 10000u);  // at least one flip per message
}

// ------------------------------------------------- untrusted-compute sweep ---

TEST(ComputeSweep, AccountingHoldsAndFullShadowEscapesNothing) {
  sc::ComputeSweepConfig config;
  config.fault_rate_grid = {0.0, 0.4};
  config.shadow_rate_grid = {0.0, 0.5, 1.0};
  config.requests = 16;
  config.side = 12;
  config.frames = 6;
  const auto report = sc::run_compute_sweep(config);
  ASSERT_EQ(report.cells.size(), 6u);

  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;

  std::size_t injected_total = 0;
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.escaped, cell.injected - cell.detected);
    if (cell.fault_rate == 0.0) {
      EXPECT_EQ(cell.injected, 0u);
      EXPECT_EQ(cell.detected, 0u);
    }
    if (cell.shadow_rate >= 1.0) {
      EXPECT_EQ(cell.escaped, 0u);
    }
    injected_total += cell.injected;
  }
  EXPECT_GT(injected_total, 0u) << "rate 0.4 never corrupted an output";

  // Determinism: the same config reproduces the same rows byte for byte.
  EXPECT_EQ(sc::to_jsonl(sc::run_compute_sweep(config)),
            sc::to_jsonl(report));
}

TEST(ComputeSweep, RowKeySeparatesComputeAndClassicCampaignRows) {
  // Both row schemas coexist in BENCH_campaign.json; the shared key must
  // never collide them or merge distinct grid cells.
  const std::string compute_row =
      "{\"bench\":\"compute_shadow\",\"fault_rate\":0.1,"
      "\"shadow_rate\":0.5,\"requests\":48}";
  const std::string compute_row2 =
      "{\"bench\":\"compute_shadow\",\"fault_rate\":0.1,"
      "\"shadow_rate\":1,\"requests\":48}";
  const std::string classic_row =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0.002,\"crash_prob\":0.1,"
      "\"link_loss\":0.3,\"lambda\":80}";
  EXPECT_NE(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(compute_row2));
  EXPECT_NE(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(classic_row));
  EXPECT_EQ(sc::campaign_row_key(compute_row),
            sc::campaign_row_key(compute_row));
}

TEST(ComputeSweep, DefaultGridReproducesCommittedRows) {
  EXPECT_EQ(sc::to_jsonl(sc::run_compute_sweep({})),
            committed_rows("compute_shadow"));
}

TEST(ComputeSweep, RejectsMalformedGrids) {
  sc::ComputeSweepConfig config;
  config.fault_rate_grid = {};
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
  config = {};
  config.shadow_rate_grid = {1.5};
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
  config = {};
  config.requests = 0;
  EXPECT_THROW((void)sc::run_compute_sweep(config), std::invalid_argument);
}

// --------------------------------------------------------- downlink sweep ---

namespace {

sc::DownlinkSweepConfig small_downlink_sweep() {
  sc::DownlinkSweepConfig config;
  config.workload_grid = {spacefts::downlink::ChainWorkload::kNgstImage,
                          spacefts::downlink::ChainWorkload::kTelemetry};
  config.gamma0_grid = {0.0, 0.002};
  config.link_loss_grid = {0.0};
  config.lambda_grid = {80.0};
  config.trials = 2;
  config.seed = 5;
  config.side = 16;
  config.frames = 8;
  config.tile_rows = 4;
  return config;
}

}  // namespace

TEST(DownlinkSweep, OnArmDominatesAndCleanCellsAreLossless) {
  const auto report = sc::run_downlink_sweep(small_downlink_sweep());
  ASSERT_EQ(report.cells.size(), 4u);
  std::string diagnostics;
  EXPECT_EQ(sc::enforce(report, diagnostics), 0u) << diagnostics;
  for (const auto& cell : report.cells) {
    EXPECT_GE(cell.psnr_on_db, cell.psnr_off_db);
    EXPECT_GE(cell.match_on, cell.match_off);
    if (cell.gamma0 == 0.0 && cell.link_loss == 0.0) {
      EXPECT_EQ(cell.psnr_on_db, spacefts::downlink::kPsnrCap);
      EXPECT_EQ(cell.match_on, 1.0);
    } else {
      EXPECT_GT(cell.memory_bits_flipped, 0u);
    }
  }
}

TEST(DownlinkSweep, JsonlIsByteStableAcrossThreadCounts) {
  auto config = small_downlink_sweep();
  config.threads = 1;
  const auto serial = sc::to_jsonl(sc::run_downlink_sweep(config));
  config.threads = 4;
  EXPECT_EQ(sc::to_jsonl(sc::run_downlink_sweep(config)), serial);
  EXPECT_NE(
      serial.find("\"bench\":\"downlink_fidelity\",\"sampler\":\"geometric\""),
      std::string::npos);
  EXPECT_NE(serial.find("\"workload\":\"telemetry\""), std::string::npos);
}

TEST(DownlinkSweep, DefaultGridReproducesCommittedRows) {
  EXPECT_EQ(sc::to_jsonl(sc::run_downlink_sweep({})),
            committed_rows("downlink_fidelity"));
}

TEST(DownlinkSweep, RowKeySeparatesWorkloadsAndOtherBenches) {
  const std::string ngst_row =
      "{\"bench\":\"downlink_fidelity\",\"workload\":\"ngst\","
      "\"gamma0\":0.001,\"link_loss\":0.1,\"lambda\":80}";
  const std::string telem_row =
      "{\"bench\":\"downlink_fidelity\",\"workload\":\"telemetry\","
      "\"gamma0\":0.001,\"link_loss\":0.1,\"lambda\":80}";
  const std::string classic_row =
      "{\"bench\":\"fault_campaign\",\"gamma0\":0.001,\"crash_prob\":0.1,"
      "\"link_loss\":0.1,\"lambda\":80}";
  EXPECT_NE(sc::campaign_row_key(ngst_row), sc::campaign_row_key(telem_row));
  EXPECT_NE(sc::campaign_row_key(ngst_row), sc::campaign_row_key(classic_row));
  EXPECT_EQ(sc::campaign_row_key(ngst_row), sc::campaign_row_key(ngst_row));
}

TEST(DownlinkSweep, EnforceFlagsManufacturedRegression) {
  auto report = sc::run_downlink_sweep(small_downlink_sweep());
  report.cells[0].psnr_on_db = report.cells[0].psnr_off_db - 1.0;
  std::string diagnostics;
  EXPECT_GT(sc::enforce(report, diagnostics), 0u);
  EXPECT_NE(diagnostics.find("PSNR"), std::string::npos);
}

TEST(DownlinkSweep, RejectsMalformedGrids) {
  auto config = small_downlink_sweep();
  config.workload_grid = {};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.trials = 0;
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.gamma0_grid = {2.0};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.lambda_grid = {150.0};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
  config = small_downlink_sweep();
  config.lambda_grid = {80.0, std::nan("")};
  EXPECT_THROW((void)sc::run_downlink_sweep(config), std::invalid_argument);
}

// ------------------------------------------------------------ trial engine ---

namespace {

struct EngineRecord {
  std::size_t cell = 0;
  std::size_t trial = 0;
  std::uint64_t seed = 0;
  bool operator==(const EngineRecord&) const = default;
};

std::vector<EngineRecord> engine_records(std::size_t threads) {
  return sc::run_trials<EngineRecord>(
      5, 3, 42, threads,
      [](std::size_t cell, std::size_t trial, std::uint64_t seed) {
        return EngineRecord{cell, trial, seed};
      });
}

}  // namespace

TEST(TrialEngine, RecordsAndSeedsAreLaneCountIndependent) {
  const auto serial = engine_records(1);
  ASSERT_EQ(serial.size(), 15u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].cell, i / 3);
    EXPECT_EQ(serial[i].trial, i % 3);
    EXPECT_EQ(serial[i].seed, spacefts::common::derive_stream_seed(
                                  42, serial[i].cell, serial[i].trial));
  }
  EXPECT_EQ(engine_records(3), serial);
  EXPECT_EQ(engine_records(8), serial);
}

TEST(TrialEngine, TrialExceptionReachesCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_THROW(
        (void)sc::run_trials<int>(
            4, 2, 7, threads,
            [](std::size_t cell, std::size_t trial, std::uint64_t) {
              if (cell == 2 && trial == 1) {
                throw std::runtime_error("trial failed");
              }
              return 0;
            }),
        std::runtime_error)
        << "threads " << threads;
  }
}
