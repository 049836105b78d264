/// \file chain.hpp
/// The end-to-end downlink scenario — the paper's premise wired as one
/// chain: ingest → preprocess (temporal voter, optionally behind a
/// backend::Backend) → rice compress → CRC-32/Hamming framing → faulty
/// link (fault::MessageFaultModel) → deframe/decode → rice decompress →
/// science product.
///
/// The science product is cut into row-band tiles; each tile travels as
/// one self-contained frame (a single-HDU FITS file holding the tile's
/// Rice-compressed image, Hamming(72,64)-protected word by word, CRC-32
/// sealed).  A frame the link drops, or damages beyond the SEC-DED +
/// CRC recovery, becomes a flagged degraded tile — zero-filled in the
/// received product, never a hang or a crash.  End-to-end fidelity is
/// measured against a clean-chain golden (preprocessed pristine data over
/// a perfect link): PSNR over 16-bit counts plus the surviving-pixel
/// match fraction.
///
/// Determinism: every stochastic stage (scene synthesis, on-board memory
/// flips, per-tile link fates) draws from streams derived off the config
/// seed with common::derive_stream_seed.  ChainConfig::threads lanes run
/// scene synthesis, the voter, product integration and the tile loop; each
/// is bit-identical across lane counts and tile tallies fold in tile order,
/// so the report is identical for any --threads value — CI `cmp`s the FITS
/// outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "spacefts/backend/backend.hpp"
#include "spacefts/common/image.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/fault/message_faults.hpp"

namespace spacefts::downlink {

/// Which workload family flies the chain.
enum class ChainWorkload : std::uint8_t {
  kNgstImage,  ///< 2D image stack; product = integrated baseline image
  kTelemetry,  ///< 1D channel bank (1-row stack); product = channel×sample
};

/// Stable lowercase name ("ngst" / "telemetry") used in JSONL and the CLI.
[[nodiscard]] const char* to_string(ChainWorkload workload) noexcept;

/// One flight of the full chain, fully specified by value.
struct ChainConfig {
  ChainWorkload workload = ChainWorkload::kNgstImage;
  std::size_t side = 32;     ///< image side / telemetry channel count
  std::size_t frames = 16;   ///< temporal readouts / samples per channel
  double lambda = 80.0;      ///< preprocessing sensitivity Λ
  std::size_t upsilon = 4;   ///< voter neighbourhood Υ (even)
  bool preprocess = true;    ///< the paper's on/off experiment arm
  double gamma0 = 0.0;       ///< on-board memory per-bit flip probability Γ₀
  fault::MessageFaultConfig link{};  ///< downlink transmission fault budget
  std::size_t tile_rows = 8;        ///< product rows per downlink frame
  std::size_t threads = 1;
  core::Kernel kernel = core::Kernel::kAuto;
  std::uint64_t seed = 42;
  /// Optional compute seam for the preprocessing stage (cpu / unreliable /
  /// shadowed); null runs the trusted inline voter.  The golden product is
  /// always computed on the trusted path.
  std::shared_ptr<backend::Backend> backend;
};

/// PSNR sentinel for a bit-exact product (MSE = 0); finite so the JSONL
/// stays comparable and the dominance gate's ≥ still holds on ties.
inline constexpr double kPsnrCap = 99.0;

/// Everything measured at the base station.
struct ChainReport {
  common::Image<std::uint16_t> product;  ///< received (degraded tiles zero)
  common::Image<std::uint16_t> golden;   ///< clean-chain reference

  std::size_t tiles = 0;
  std::size_t tiles_degraded = 0;   ///< dropped or unrecoverable frames
  std::size_t frames_sent = 0;      ///< transmissions incl. duplicates
  std::size_t frames_dropped = 0;
  std::size_t frames_corrupted = 0;
  std::size_t frames_recovered = 0;  ///< corrupted but decoded bit-exact
  std::size_t words_corrected = 0;   ///< Hamming single-bit repairs

  std::size_t raw_bytes = 0;   ///< uncompressed science product bytes
  std::size_t wire_bytes = 0;  ///< framed bytes on the link (all overheads)
  /// Rice stream bytes alone, before FITS 2880-block padding and frame
  /// overhead — the honest compressibility measure at CI-small tile sizes,
  /// where padding quantises wire_bytes.
  std::size_t compressed_bytes = 0;
  double compression_ratio = 0.0;  ///< raw_bytes / compressed_bytes

  std::size_t memory_bits_flipped = 0;  ///< Γ₀ faults injected on board
  std::size_t pixels_corrected = 0;     ///< voter repairs (0 when off)
  std::size_t bits_corrected = 0;
  std::size_t pixels_vetoed = 0;

  double psnr_db = 0.0;      ///< vs golden, capped at kPsnrCap
  double pixel_match = 0.0;  ///< fraction of pixels bit-exact vs golden
};

/// Flies the chain once.  \throws std::invalid_argument for an invalid
/// config (side/frames/tile_rows of zero, frames < 3, Λ outside [0, 100],
/// Γ₀ outside [0, 1], or a bad link budget).
[[nodiscard]] ChainReport run_chain(const ChainConfig& config);

/// Seals \p payload into a self-recovering downlink frame: a 4-byte length
/// prefix and the payload (zero-padded to 8-byte words), one Hamming(72,64)
/// parity byte per word, then the CRC-32 trailer of edac::frame_append_crc.
[[nodiscard]] std::vector<std::uint8_t> protect_frame(
    std::span<const std::uint8_t> payload);

/// Attempts to open a (possibly mangled) frame: verifies the CRC, and on
/// failure Hamming-corrects every word (single-bit errors anywhere in data
/// or parity) before re-checking.  Returns the exact original payload, or
/// nullopt when the frame is truncated, malformed, or damaged beyond
/// SEC-DED repair.  \p words_corrected (optional) receives the number of
/// single-bit repairs applied on the successful path.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> recover_frame(
    std::span<const std::uint8_t> frame,
    std::size_t* words_corrected = nullptr);

}  // namespace spacefts::downlink
