#include "flight.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "spacefts/common/random.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"

namespace perfbench {
namespace {

namespace common = spacefts::common;
namespace core = spacefts::core;
namespace datagen = spacefts::datagen;
namespace downlink = spacefts::downlink;
namespace fault = spacefts::fault;
namespace fits = spacefts::fits;

using Stack = common::TemporalStack<std::uint16_t>;
using Image = common::Image<std::uint16_t>;

// The chain's documented sub-stream indices under the flight seed.
constexpr std::uint64_t kStreamScene = 0;
constexpr std::uint64_t kStreamMemory = 1;
constexpr std::uint64_t kStreamLink = 2;

Stack make_stack(const downlink::ChainConfig& config) {
  const std::uint64_t seed =
      common::derive_stream_seed(config.seed, kStreamScene, 0);
  if (config.workload == downlink::ChainWorkload::kTelemetry) {
    datagen::TelemetrySimulator sim(seed);
    datagen::TelemetryParams params;
    params.channels = config.side;
    params.samples = config.frames;
    return sim.stack(params);
  }
  datagen::NgstSimulator sim(seed);
  datagen::SceneParams scene;
  scene.width = config.side;
  scene.height = config.side;
  return sim.stack(config.frames, scene);
}

/// NGST: the integrated baseline image; telemetry: the channel×sample bank.
Image product_image(const Stack& stack, downlink::ChainWorkload workload) {
  if (workload == downlink::ChainWorkload::kTelemetry) {
    Image image(stack.width(), stack.frames());
    for (std::size_t t = 0; t < stack.frames(); ++t) {
      for (std::size_t x = 0; x < stack.width(); ++x) {
        image(x, t) = stack(x, 0, t);
      }
    }
    return image;
  }
  Image image(stack.width(), stack.height());
  for (std::size_t y = 0; y < stack.height(); ++y) {
    for (std::size_t x = 0; x < stack.width(); ++x) {
      double sum = 0.0;
      for (std::size_t t = 0; t < stack.frames(); ++t) {
        sum += static_cast<double>(stack(x, y, t));
      }
      image(x, y) =
          datagen::clamp_pixel(sum / static_cast<double>(stack.frames()));
    }
  }
  return image;
}

core::AlgoNgstConfig algo_config(const downlink::ChainConfig& config) {
  core::AlgoNgstConfig algo;
  algo.lambda = config.lambda;
  algo.upsilon = config.upsilon;
  algo.threads = config.threads;
  algo.kernel = config.kernel;
  return algo;
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::equal(a.pixels().begin(), a.pixels().end(), b.pixels().begin());
}

}  // namespace

std::uint32_t image_crc(const Image& image) {
  const auto pixels = image.pixels();
  return spacefts::edac::crc32(
      {reinterpret_cast<const std::uint8_t*>(pixels.data()),
       pixels.size() * sizeof(std::uint16_t)});
}

StagedFlight run_staged(const downlink::ChainConfig& config,
                        Recorder& recorder, std::uint64_t op) {
  StagedFlight flight;
  downlink::ChainReport& report = flight.report;
  // The root is closed by hand: the repair scoring after it is not flight work.
  const std::int32_t parent = recorder.open("downlink.flight", kNoParent, op);
  flight.root = parent;

  const fault::MessageFaultModel link(config.link);
  const core::AlgoNgstConfig algo = algo_config(config);

  Stack pristine;
  {
    const ScopedSpan span(recorder, "datagen.busy", parent, op);
    pristine = make_stack(config);
  }
  Stack clean;
  {
    const ScopedSpan span(recorder, "core.golden", parent, op);
    clean = pristine;
    (void)core::AlgoNgst(algo).preprocess(clean);
  }
  {
    const ScopedSpan span(recorder, "metrics.score", parent, op);
    report.golden = product_image(clean, config.workload);
  }

  // run_chain moves the pristine stack into the on-board leg; the stage
  // view keeps a copy to score the voter's repairs after the flight.
  Stack stack;
  {
    const ScopedSpan span(recorder, "trace.copy", parent, op);
    stack = pristine;
  }
  if (config.gamma0 > 0.0) {
    const ScopedSpan span(recorder, "fault.memory", parent, op);
    common::Rng memory_rng(
        common::derive_stream_seed(config.seed, kStreamMemory, 0));
    const fault::UncorrelatedFaultModel memory(config.gamma0);
    const auto mask = memory.mask16(stack.cube().voxels().size(), memory_rng);
    report.memory_bits_flipped = fault::count_faults<std::uint16_t>(mask);
    fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  }
  Stack faulty;
  if (config.preprocess) {
    {
      const ScopedSpan span(recorder, "trace.copy", parent, op);
      faulty = stack;
    }
    const ScopedSpan span(recorder, "core.voter", parent, op);
    core::AlgoNgstReport voter;
    if (config.backend) {
      voter = config.backend->preprocess(
          stack, algo, spacefts::backend::ComputeMeta{0, 0}, nullptr);
    } else {
      voter = core::AlgoNgst(algo).preprocess(stack);
    }
    report.pixels_corrected = voter.pixels_corrected;
    report.bits_corrected = voter.bits_corrected;
    report.pixels_vetoed = voter.pixels_vetoed;
  }
  Image sent;
  {
    const ScopedSpan span(recorder, "metrics.score", parent, op);
    sent = product_image(stack, config.workload);
  }

  Image received(sent.width(), sent.height());
  const std::uint64_t link_seed =
      common::derive_stream_seed(config.seed, kStreamLink, 0);
  report.tiles = (sent.height() + config.tile_rows - 1) / config.tile_rows;
  for (std::size_t tile = 0; tile < report.tiles; ++tile) {
    const ScopedSpan tile_span(recorder, "downlink.tile", parent, op);
    const std::int32_t tp = tile_span.index();
    const std::size_t y0 = tile * config.tile_rows;
    const std::size_t rows = std::min(config.tile_rows, sent.height() - y0);
    Image band(sent.width(), rows);
    for (std::size_t y = 0; y < rows; ++y) {
      for (std::size_t x = 0; x < sent.width(); ++x) {
        band(x, y) = sent(x, y0 + y);
      }
    }
    fits::FitsFile file;
    {
      const ScopedSpan span(recorder, "rice.encode", tp, op);
      file.hdus().push_back(downlink::make_compressed_hdu(band));
    }
    report.compressed_bytes += file.hdus().front().data.size();
    std::vector<std::uint8_t> serialized;
    {
      const ScopedSpan span(recorder, "fits.serialize", tp, op);
      serialized = file.serialize();
    }
    std::vector<std::uint8_t> frame;
    {
      const ScopedSpan span(recorder, "edac.protect", tp, op);
      frame = downlink::protect_frame(serialized);
    }

    fault::MessageFaultModel::Outcome fate;
    {
      const ScopedSpan span(recorder, "fault.link", tp, op);
      common::Rng tile_rng(common::derive_stream_seed(link_seed, tile, 0));
      fate = link.sample(tile_rng);
      if (!fate.dropped && fate.corrupted) (void)link.corrupt(frame, tile_rng);
    }
    report.frames_sent += 1 + fate.duplicates;
    report.wire_bytes += frame.size() * (1 + fate.duplicates);
    if (fate.dropped) {
      ++report.frames_dropped;
      ++report.tiles_degraded;
      continue;
    }
    if (fate.corrupted) ++report.frames_corrupted;

    std::size_t repairs = 0;
    std::optional<std::vector<std::uint8_t>> payload;
    {
      const ScopedSpan span(recorder, "edac.recover", tp, op);
      payload = downlink::recover_frame(frame, &repairs);
    }
    report.words_corrected += repairs;
    bool pasted = false;
    if (payload) {
      if (fate.corrupted) ++report.frames_recovered;
      try {
        std::optional<fits::FitsFile> parsed;
        {
          const ScopedSpan span(recorder, "fits.parse", tp, op);
          parsed = fits::FitsFile::parse(*payload);
        }
        if (!parsed->hdus().empty()) {
          std::optional<Image> image;
          {
            const ScopedSpan span(recorder, "rice.decode", tp, op);
            image = downlink::read_compressed_hdu(parsed->hdus().front());
          }
          if (image->width() == sent.width() && image->height() == rows) {
            for (std::size_t y = 0; y < rows; ++y) {
              for (std::size_t x = 0; x < sent.width(); ++x) {
                received(x, y0 + y) = (*image)(x, y);
              }
            }
            pasted = true;
          }
        }
      } catch (const fits::FitsError&) {
        // Damage that slipped the frame check is a degraded tile.
      }
    }
    if (!pasted) ++report.tiles_degraded;
  }

  {
    const ScopedSpan span(recorder, "metrics.score", parent, op);
    report.product = std::move(received);
    report.raw_bytes = report.product.size() * sizeof(std::uint16_t);
    report.compression_ratio =
        report.compressed_bytes > 0
            ? static_cast<double>(report.raw_bytes) /
                  static_cast<double>(report.compressed_bytes)
            : 0.0;
    double mse = 0.0;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < report.product.size(); ++i) {
      const double diff = static_cast<double>(report.product.pixels()[i]) -
                          static_cast<double>(report.golden.pixels()[i]);
      mse += diff * diff;
      matched += diff == 0.0 ? 1 : 0;
    }
    mse /= static_cast<double>(report.product.size());
    report.pixel_match = static_cast<double>(matched) /
                         static_cast<double>(report.product.size());
    report.psnr_db = mse == 0.0 ? downlink::kPsnrCap
                                : std::min(downlink::kPsnrCap,
                                           10.0 * std::log10(65535.0 * 65535.0 / mse));
  }
  recorder.close(parent);

  // Outside the flight span: how many of the voter's rewrites restored the
  // pristine value.
  if (config.preprocess) {
    const auto before = faulty.cube().voxels();
    const auto after = stack.cube().voxels();
    const auto truth = pristine.cube().voxels();
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (after[i] != before[i]) {
        ++flight.voter_changed;
        flight.voter_useful += after[i] == truth[i] ? 1 : 0;
      }
    }
  }
  return flight;
}

const char* first_difference(const downlink::ChainReport& a,
                             const downlink::ChainReport& b) {
  if (!same_pixels(a.product, b.product)) return "product";
  if (!same_pixels(a.golden, b.golden)) return "golden";
  if (a.tiles != b.tiles) return "tiles";
  if (a.tiles_degraded != b.tiles_degraded) return "tiles_degraded";
  if (a.frames_sent != b.frames_sent) return "frames_sent";
  if (a.frames_dropped != b.frames_dropped) return "frames_dropped";
  if (a.frames_corrupted != b.frames_corrupted) return "frames_corrupted";
  if (a.frames_recovered != b.frames_recovered) return "frames_recovered";
  if (a.words_corrected != b.words_corrected) return "words_corrected";
  if (a.raw_bytes != b.raw_bytes) return "raw_bytes";
  if (a.wire_bytes != b.wire_bytes) return "wire_bytes";
  if (a.compressed_bytes != b.compressed_bytes) return "compressed_bytes";
  if (a.memory_bits_flipped != b.memory_bits_flipped) return "memory_bits_flipped";
  if (a.pixels_corrected != b.pixels_corrected) return "pixels_corrected";
  if (a.bits_corrected != b.bits_corrected) return "bits_corrected";
  if (a.pixels_vetoed != b.pixels_vetoed) return "pixels_vetoed";
  if (a.psnr_db != b.psnr_db) return "psnr_db";
  if (a.pixel_match != b.pixel_match) return "pixel_match";
  return nullptr;
}

}  // namespace perfbench
