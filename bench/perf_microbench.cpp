/// Module throughput microbenchmarks (google-benchmark).
///
/// Not a paper figure — engineering numbers a deployment needs: pixels/s
/// of each preprocessing algorithm and of the substrates they feed.  The
/// word-parallel Algo_NGST is the production path (fig3 measures the
/// bit-serial reference, whose cost model matches the paper's).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/check/fault_oracle.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/algo_otis.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/datagen/otis_scenes.hpp"
#include "spacefts/datagen/telemetry.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/edac/crc32.hpp"
#include "spacefts/edac/protected_memory.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/fits.hpp"
#include "spacefts/ngst/cr_reject.hpp"
#include "spacefts/ngst/readout.hpp"
#include "spacefts/rice/rice.hpp"
#include "spacefts/smoothing/temporal.hpp"
#include "spacefts/telemetry/telemetry.hpp"

namespace {

std::vector<std::uint16_t> corrupted_series() {
  spacefts::datagen::NgstSimulator sim(0xBEEF);
  spacefts::common::Rng rng(0xBEEF2);
  auto series = sim.sequence();
  const auto mask =
      spacefts::fault::UncorrelatedFaultModel(0.01).mask16(series.size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(series, mask);
  return series;
}

void BM_AlgoNgstWordParallel(benchmark::State& state) {
  const spacefts::core::AlgoNgst algo;
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AlgoNgstWordParallel);

spacefts::common::TemporalStack<std::uint16_t> corrupted_stack(
    std::size_t side, std::size_t frames) {
  spacefts::datagen::NgstSimulator sim(0xBEEF7);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  auto stack = sim.stack(frames, scene);
  spacefts::common::Rng rng(0xBEEF8);
  const auto mask = spacefts::fault::UncorrelatedFaultModel(0.003).mask16(
      stack.cube().size(), rng);
  spacefts::fault::apply_mask<std::uint16_t>(stack.cube().voxels(), mask);
  return stack;
}

/// The production stack path (tile-blocked SoA gather + per-lane scratch)
/// swept over worker-lane count x voter kernel.  Items = coordinates (time
/// series), so the rate is directly comparable across the whole grid;
/// output is bit-identical for every cell (enforced by tests/kernel_test
/// and src/check).  Registered dynamically from main() so only kernels the
/// host can actually run appear in the report.
void BM_AlgoNgstStackPreprocess(benchmark::State& state,
                                spacefts::core::Kernel kernel) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 50.0;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.kernel = kernel;
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_stack(128, 8);
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 *
                          128);
}

void register_stack_kernel_sweep() {
  for (const auto kernel : spacefts::core::available_kernels()) {
    const std::string name = std::string("BM_AlgoNgstStackPreprocess/") +
                             spacefts::core::kernel_name(kernel);
    benchmark::RegisterBenchmark(name.c_str(), BM_AlgoNgstStackPreprocess,
                                 kernel)
        ->Arg(1)
        ->Arg(4)
        ->Arg(8);
  }
}

void BM_AlgoOtisPlane(benchmark::State& state,
                      spacefts::core::Kernel kernel) {
  spacefts::datagen::OtisSceneGenerator gen(0xBEEF3);
  const auto scene = gen.generate(spacefts::datagen::OtisSceneKind::kBlob);
  spacefts::core::AlgoOtisConfig config;
  config.kernel = kernel;
  const spacefts::core::AlgoOtis algo(config);
  auto plane = scene.radiance.plane_image(0);
  for (auto _ : state) {
    auto working = plane;
    benchmark::DoNotOptimize(
        algo.preprocess_plane(working, scene.wavelengths_um[0]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(plane.size()));
}

void register_otis_kernel_sweep() {
  for (const auto kernel : spacefts::core::available_kernels()) {
    const std::string name = std::string("BM_AlgoOtisPlane/") +
                             spacefts::core::kernel_name(kernel);
    benchmark::RegisterBenchmark(name.c_str(), BM_AlgoOtisPlane, kernel);
  }
}

void BM_CrRejectIntegrate(benchmark::State& state) {
  spacefts::common::Rng rng(0xBEEF4);
  const auto flux = spacefts::ngst::make_flux_scene(32, 32, rng);
  spacefts::ngst::RampParams ramp;
  ramp.frames = 32;
  const auto stack = spacefts::ngst::make_ramp_stack(flux, ramp, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::ngst::reject_and_integrate(stack.readouts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_CrRejectIntegrate);

void BM_RiceCompress(benchmark::State& state) {
  spacefts::datagen::NgstSimulator sim(0xBEEF5);
  std::vector<std::uint16_t> data;
  for (int s = 0; s < 64; ++s) {
    const auto seq = sim.sequence();
    data.insert(data.end(), seq.begin(), seq.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::rice::compress16(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 2));
}
BENCHMARK(BM_RiceCompress);

void BM_RiceDecompress(benchmark::State& state) {
  spacefts::datagen::NgstSimulator sim(0xBEEF5);
  std::vector<std::uint16_t> data;
  for (int s = 0; s < 64; ++s) {
    const auto seq = sim.sequence();
    data.insert(data.end(), seq.begin(), seq.end());
  }
  const auto stream = spacefts::rice::compress16(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spacefts::rice::decompress16(stream, data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * 2));
}
BENCHMARK(BM_RiceDecompress);

void BM_Crc32(benchmark::State& state) {
  spacefts::common::Rng rng(0xBEEF8);
  std::vector<std::uint8_t> bytes(64 * 1024);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::edac::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

/// The serialized FITS payload of one downlink tile of the telemetry
/// workload: 8 product rows (samples) of a 64-channel bank, Rice-compressed.
std::vector<std::uint8_t> telemetry_tile_payload() {
  spacefts::datagen::TelemetrySimulator sim(0xBEEF9);
  spacefts::datagen::TelemetryParams params;
  params.channels = 64;
  params.samples = 8;
  const auto bank = sim.stack(params);
  spacefts::common::Image<std::uint16_t> band(bank.width(), bank.frames());
  for (std::size_t t = 0; t < bank.frames(); ++t) {
    for (std::size_t x = 0; x < bank.width(); ++x) band(x, t) = bank(x, 0, t);
  }
  spacefts::fits::FitsFile file;
  file.hdus().push_back(spacefts::downlink::make_compressed_hdu(band));
  return file.serialize();
}

/// Seals one telemetry tile: Hamming parity per word plus the CRC trailer.
void BM_FrameProtect(benchmark::State& state) {
  const auto payload = telemetry_tile_payload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::downlink::protect_frame(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_FrameProtect);

/// Opens one telemetry tile's frame: range(0) = 0 arrives clean (CRC fast
/// path), 1 with one flipped data bit (SEC-DED pass and CRC recheck).
void BM_FrameRecover(benchmark::State& state) {
  const auto payload = telemetry_tile_payload();
  auto frame = spacefts::downlink::protect_frame(payload);
  if (state.range(0) != 0) frame[frame.size() / 3] ^= 0x10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::downlink::recover_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_FrameRecover)->ArgName("flipped")->Arg(0)->Arg(1);

void BM_FitsRoundtrip(benchmark::State& state) {
  spacefts::datagen::NgstSimulator sim(0xBEEF6);
  const auto img = sim.base_scene({});
  for (auto _ : state) {
    const auto hdu = spacefts::fits::make_image_hdu(img);
    benchmark::DoNotOptimize(spacefts::fits::read_image_u16(hdu));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(img.size() * 2));
}
BENCHMARK(BM_FitsRoundtrip);

void BM_SecDedScrub(benchmark::State& state) {
  std::vector<std::uint16_t> pixels(4096, 27000);
  std::vector<std::uint16_t> out;
  for (auto _ : state) {
    spacefts::edac::ProtectedMemory memory(pixels);
    benchmark::DoNotOptimize(memory.scrub(out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pixels.size() * 2));
}
BENCHMARK(BM_SecDedScrub);

/// Memory-fault injection over one 256x256x8 flight (524288 words) at
/// Γ₀ = range(0) / 1e6.  The production position sampler (mask16, and
/// inject16 beside it) pays one draw and one log1p per flip; the per-bit
/// reference sampler pays one draw per bit.  The sweep up to Γ₀ = 0.2 shows
/// where the log1p per flip catches up with the draw per bit.  Items = bits.
constexpr std::size_t kFaultWords = 256 * 256 * 8;

double fault_gamma0(const benchmark::State& state) {
  return static_cast<double>(state.range(0)) / 1e6;
}

void BM_FaultMask16(benchmark::State& state) {
  const spacefts::fault::UncorrelatedFaultModel model(fault_gamma0(state));
  spacefts::common::Rng rng(0xFA17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mask16(kFaultWords, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFaultWords * 16));
}
BENCHMARK(BM_FaultMask16)->Arg(1000)->Arg(10000)->Arg(200000);

void BM_FaultInject16(benchmark::State& state) {
  const spacefts::fault::UncorrelatedFaultModel model(fault_gamma0(state));
  spacefts::common::Rng rng(0xFA17);
  std::vector<std::uint16_t> data(kFaultWords, 0x4321);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.inject16(data, rng));
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFaultWords * 16));
}
BENCHMARK(BM_FaultInject16)->Arg(1000)->Arg(10000)->Arg(200000);

void BM_FaultMask16PerBit(benchmark::State& state) {
  const double gamma0 = fault_gamma0(state);
  spacefts::common::Rng rng(0xFA17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spacefts::check::oracle_uncorrelated_mask16(gamma0, kFaultWords, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFaultWords * 16));
}
BENCHMARK(BM_FaultMask16PerBit)->Arg(1000)->Arg(10000)->Arg(200000);

/// Scene synthesis at 1 and 4 lanes: the serial skip pass plus the
/// row-parallel regeneration (bit-identical to one lane).  Real time, since
/// the rows run on pool lanes the main thread's CPU clock does not see.
/// Items = voxels.
void BM_NgstStack(benchmark::State& state) {
  spacefts::datagen::SceneParams scene;
  scene.width = 256;
  scene.height = 256;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    spacefts::datagen::NgstSimulator sim(0x5CE7E);
    benchmark::DoNotOptimize(
        sim.stack(8, scene, spacefts::datagen::kDefaultSigma, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          256 * 8);
}
BENCHMARK(BM_NgstStack)->Arg(1)->Arg(4)->UseRealTime();

/// Whole downlink flights at 1 and 4 lanes, in the benchmark's flight
/// configuration (Γ₀ = 1e-3, link loss 0.05).  Items = flights.
void BM_DownlinkChain(benchmark::State& state,
                      spacefts::downlink::ChainWorkload workload) {
  spacefts::downlink::ChainConfig config;
  config.workload = workload;
  const bool telemetry =
      workload == spacefts::downlink::ChainWorkload::kTelemetry;
  config.side = telemetry ? 64 : 256;
  config.frames = telemetry ? 2048 : 8;
  config.gamma0 = 1e-3;
  config.link.drop_prob = 0.05;
  config.link.corrupt_prob = 0.05;
  config.link.duplicate_prob = 0.025;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.seed = 0xF117;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spacefts::downlink::run_chain(config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_DownlinkChain, ngst_256,
                  spacefts::downlink::ChainWorkload::kNgstImage)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DownlinkChain, telemetry_64x2048,
                  spacefts::downlink::ChainWorkload::kTelemetry)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

/// Cost of an instrumentation point when telemetry is compiled in but
/// runtime-disabled — the flight configuration.  This is the overhead every
/// hot-path hook pays unconditionally: one relaxed atomic load.  The
/// acceptance bar is <= 3% on real workloads, which at ~1 ns/span and
/// tile-granularity hooks is comfortably met (see the StackPreprocess pair
/// below for the end-to-end number).
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(false);
  for (auto _ : state) {
    SPACEFTS_TSPAN("bench.disabled", {"lambda", 50.0}, {"width", 64.0});
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetrySpanDisabled);

/// The same span with recording live: clock reads plus a thread-local
/// buffer push (amortised drain into the global ring).
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(true);
  for (auto _ : state) {
    SPACEFTS_TSPAN("bench.enabled", {"lambda", 50.0}, {"width", 64.0});
    benchmark::ClobberMemory();
  }
  spacefts::telemetry::set_enabled(false);
  spacefts::telemetry::reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  spacefts::telemetry::set_enabled(false);
  auto& c = spacefts::telemetry::counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryCounterDisabled);

/// End-to-end overhead check: the production stack path with tracing live.
/// Compare against BM_AlgoNgstStackPreprocess/1 (telemetry disabled) to
/// read off the per-tile span cost on a real workload.
void BM_AlgoNgstStackPreprocessTraced(benchmark::State& state) {
  spacefts::core::AlgoNgstConfig config;
  config.lambda = 50.0;
  config.threads = 1;
  const spacefts::core::AlgoNgst algo(config);
  const auto base = corrupted_stack(128, 8);
  spacefts::telemetry::set_enabled(true);
  for (auto _ : state) {
    auto working = base;
    benchmark::DoNotOptimize(algo.preprocess(working));
    // Keep the ring from growing across iterations; not timed work in any
    // real deployment, but excluded here via PauseTiming for cleanliness.
    state.PauseTiming();
    spacefts::telemetry::reset();
    state.ResumeTiming();
  }
  spacefts::telemetry::set_enabled(false);
  spacefts::telemetry::reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128 *
                          128);
}
BENCHMARK(BM_AlgoNgstStackPreprocessTraced);

void BM_MedianBaseline(benchmark::State& state) {
  const auto base = corrupted_series();
  for (auto _ : state) {
    auto working = base;
    spacefts::smoothing::median_smooth3(working);
    benchmark::DoNotOptimize(working.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_MedianBaseline);

}  // namespace

int main(int argc, char** argv) {
  register_stack_kernel_sweep();
  register_otis_kernel_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
