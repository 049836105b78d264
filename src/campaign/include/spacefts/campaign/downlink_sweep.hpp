/// \file downlink_sweep.hpp
/// End-to-end downlink fidelity campaign — the paper's premise measured.
///
/// Every cell of the (workload, Γ₀, link-loss, Λ) grid flies the full
/// chain (downlink::run_chain) twice per trial at the same seed: once with
/// preprocessing on, once with it off, so both arms see the same scene,
/// the same on-board memory flips, and the same per-tile link fates at
/// equal link budget.  The cell aggregates end-to-end science fidelity
/// (PSNR and bit-exact pixel fraction vs the clean-chain golden) plus the
/// wire cost of each arm.
///
/// `enforce()` is the paper's claim as a gate: preprocessing-on must
/// dominate preprocessing-off on both fidelity metrics in every cell.
/// Deterministic per config, including across `threads` — trial slots are
/// preassigned and aggregation runs in grid order, so the JSONL is
/// byte-identical for any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spacefts/downlink/chain.hpp"

namespace spacefts::campaign {

/// The sweep grid and per-trial chain shape.
struct DownlinkSweepConfig {
  std::vector<downlink::ChainWorkload> workload_grid{
      downlink::ChainWorkload::kNgstImage,
      downlink::ChainWorkload::kTelemetry};
  std::vector<double> gamma0_grid{0.0, 0.001};    ///< on-board memory Γ₀
  std::vector<double> link_loss_grid{0.0, 0.1};   ///< downlink frame loss
  std::vector<double> lambda_grid{80.0};          ///< voter sensitivity Λ

  std::size_t trials = 3;   ///< seeded flights per cell (per arm)
  std::uint64_t seed = 42;  ///< sweep master seed
  std::size_t threads = 1;  ///< trial-level parallelism (0 = all)

  // Chain shape (CI-small by default).
  std::size_t side = 32;      ///< image side / telemetry channels
  std::size_t frames = 16;    ///< readouts / samples per channel
  std::size_t tile_rows = 8;  ///< product rows per downlink frame
};

/// Aggregated fidelity of one grid cell, both arms.
struct DownlinkCellResult {
  downlink::ChainWorkload workload = downlink::ChainWorkload::kNgstImage;
  double gamma0 = 0.0;
  double link_loss = 0.0;
  double lambda = 0.0;
  std::size_t trials = 0;

  // Mean over trials, per arm ("on" = preprocessing enabled).
  double psnr_on_db = 0.0;
  double psnr_off_db = 0.0;
  double match_on = 0.0;   ///< bit-exact pixel fraction vs golden
  double match_off = 0.0;
  double wire_bytes_on = 0.0;
  double wire_bytes_off = 0.0;
  double compressed_bytes_on = 0.0;   ///< rice stream only, pre-padding
  double compressed_bytes_off = 0.0;

  std::size_t tiles = 0;             ///< per flight
  std::size_t degraded_on = 0;       ///< summed over trials
  std::size_t degraded_off = 0;
  std::size_t frames_recovered_on = 0;
  std::size_t frames_recovered_off = 0;
  std::size_t memory_bits_flipped = 0;  ///< summed (same for both arms)
  std::size_t pixels_corrected = 0;     ///< on-arm voter repairs, summed
};

/// One full sweep.
struct DownlinkSweepReport {
  std::vector<DownlinkCellResult> cells;  ///< fixed grid order
};

/// Runs the sweep.  \throws std::invalid_argument for an empty grid axis,
/// a Γ₀ or link-loss value outside [0, 1] or a Λ outside [0, 100] (NaN
/// included), all before any flight; zero trials; or a chain shape
/// run_chain would reject.
[[nodiscard]] DownlinkSweepReport run_downlink_sweep(
    const DownlinkSweepConfig& config);

/// JSON-lines form, one `"bench":"downlink_fidelity"` record per cell
/// (stable field order, %.10g doubles — byte-stable across thread counts).
/// Rows key on (workload, gamma0, link_loss, lambda) under
/// campaign_row_key, sharing BENCH_campaign.json with the other sweeps.
[[nodiscard]] std::string to_jsonl(const DownlinkSweepReport& report);

/// The dominance gate: preprocessing-on must be at least as good as
/// preprocessing-off on PSNR and pixel match in every cell.  Returns the
/// violation count (0 = pass) and appends one line per violation to
/// \p diagnostics.
[[nodiscard]] std::size_t enforce(const DownlinkSweepReport& report,
                                  std::string& diagnostics);

}  // namespace spacefts::campaign
