// downlink_ngst / downlink_telemetry: back-to-back flights of the whole
// downlink chain (downlink::run_chain), untraced; or, traced, each flight
// re-flown stage by stage (flight.hpp) next to an untraced run_chain of
// the same flight, which it must match byte for byte.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "flight.hpp"
#include "spacefts/common/random.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace downlink = spacefts::downlink;

/// Untraced flights per run at least: backs p90 with ten samples beyond
/// it, and fixes the flight set the quality figures are taken over, so
/// psnr_db and pixel_match are a pure function of the seed.
constexpr std::size_t kQualityFlights = 100;
/// Traced flights per run at least; the per-flight counts are taken over
/// exactly these, so they repeat exactly for a seed.
constexpr std::size_t kCountFlights = 16;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kHardStopSeconds = 150.0;

struct Shape {
  std::size_t side;
  std::size_t frames;
};

Shape shape_of(downlink::ChainWorkload workload) {
  return workload == downlink::ChainWorkload::kTelemetry ? Shape{64, 2048}
                                                         : Shape{256, 8};
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool keep_flying(Clock::time_point start, double seconds, std::size_t done,
                 std::size_t minimum) {
  const double elapsed = seconds_since(start);
  if (elapsed > kHardStopSeconds) return false;
  return elapsed < seconds || done < minimum;
}

/// Self-consistency of one run_chain report; nullptr when consistent.
const char* inconsistency(const downlink::ChainReport& r) {
  if (r.product.size() == 0 || r.product.width() != r.golden.width() ||
      r.product.height() != r.golden.height()) {
    return "product/golden geometry";
  }
  if (r.tiles_degraded > r.tiles || r.frames_recovered > r.frames_corrupted ||
      r.frames_dropped + r.frames_corrupted > r.tiles) {
    return "frame accounting";
  }
  std::size_t matched = 0;
  for (std::size_t i = 0; i < r.product.size(); ++i) {
    matched += r.product.pixels()[i] == r.golden.pixels()[i] ? 1 : 0;
  }
  if (static_cast<double>(matched) / static_cast<double>(r.product.size()) !=
      r.pixel_match) {
    return "pixel_match";
  }
  return nullptr;
}

std::string artifact(const RunOptions& options, const char* kind,
                     const char* ext) {
  return options.out_dir + "/" + kind + "-" + options.workload + "-" +
         std::to_string(options.seed) + ext;
}

/// Per flight, the product CRC and the flight's wall time (ms): written by
/// the untraced run, read by the traced run of the same seed.
struct LedgerEntry {
  std::uint32_t crc = 0;
  double ms = 0.0;
};
using CrcLedger = std::map<std::uint64_t, LedgerEntry>;

CrcLedger read_ledger(const std::string& path) {
  CrcLedger ledger;
  std::ifstream in(path);
  std::uint64_t flight = 0;
  LedgerEntry entry;
  while (in >> flight >> entry.crc >> entry.ms) ledger[flight] = entry;
  return ledger;
}

void write_ledger(const std::string& path, const CrcLedger& ledger) {
  std::ofstream out(path);
  out.precision(17);
  for (const auto& [flight, entry] : ledger) {
    out << flight << ' ' << entry.crc << ' ' << entry.ms << '\n';
  }
}

void add_timing(Report& report, const std::string& stem,
                const std::vector<double>& ms, double tail) {
  report.add(stem + "_p50", median(ms), "ms", ms.size());
  report.add(stem + "_p" + std::to_string(static_cast<int>(tail)),
             percentile(ms, tail), "ms", ms.size());
}

void run_untraced(const RunOptions& options, Shape shape,
                  downlink::ChainWorkload workload, Report& report) {
  std::vector<double> flight_s;
  std::vector<double> psnr;
  double match = 0.0;
  CrcLedger crcs;
  const auto start = Clock::now();
  for (std::uint64_t i = 1;
       keep_flying(start, options.seconds, flight_s.size(), kQualityFlights);
       ++i) {
    const auto config =
        flight_config(workload, shape.side, shape.frames, options.seed, i);
    const auto t0 = Clock::now();
    const auto flight = downlink::run_chain(config);
    flight_s.push_back(seconds_since(t0));

    report.attempt();
    if (const char* what = inconsistency(flight)) {
      report.fail("flight " + std::to_string(i) + ": inconsistent " + what);
    }
    crcs[i] = {image_crc(flight.product), flight_s.back() * 1e3};
    if (i <= kQualityFlights) {
      psnr.push_back(flight.psnr_db);
      match += flight.pixel_match;
    }
  }
  write_ledger(artifact(options, "ledger", ".crc"), crcs);

  std::vector<double> ms;
  for (const double s : flight_s) ms.push_back(s * 1e3);
  if (!report.expect(psnr.size() == kQualityFlights &&
                         supports_percentile(ms.size(), 90.0),
                     "run too short: fewer than " +
                         std::to_string(kQualityFlights) + " flights")) {
    return;
  }
  double busy_s = 0.0;
  for (const double s : flight_s) busy_s += s;
  report.add("flights_per_s", static_cast<double>(flight_s.size()) / busy_s,
             "1/s", flight_s.size());
  add_timing(report, "flight_ms", ms, 90.0);
  report.add("psnr_db", median(psnr), "dB", psnr.size());
  report.add("pixel_match", match / static_cast<double>(kQualityFlights),
             "fraction", kQualityFlights);
  char tail[64];
  std::snprintf(tail, sizeof tail, "tail percentile backed by this run: p%g",
                highest_supported_percentile(ms.size()));
  report.note(tail);
}

/// The stage spans of a staged flight, reported as "<name>_ms".
constexpr const char* kStages[] = {
    "datagen.busy", "core.golden",    "fault.memory", "core.voter",
    "fault.link",   "rice.encode",    "rice.decode",  "fits.serialize",
    "fits.parse",   "edac.protect",   "edac.recover", "metrics.score",
    "downlink.tile", "trace.copy"};

void run_traced(const RunOptions& options, Shape shape,
                downlink::ChainWorkload workload, Report& report) {
  Recorder recorder;
  const CrcLedger untraced = read_ledger(artifact(options, "ledger", ".crc"));
  std::vector<double> chain_ms;
  std::vector<double> staged_ms;
  std::vector<std::uint64_t> flights;
  std::size_t cross_checked = 0;

  // Per-flight counts over the first kCountFlights flights.
  std::map<std::string, double> counts;
  std::vector<double> psnr;
  double changed = 0, useful = 0, corrupted = 0, recovered = 0, raw = 0,
         compressed = 0;

  const auto start = Clock::now();
  for (std::uint64_t i = 1;
       keep_flying(start, options.seconds, flights.size(), kCountFlights);
       ++i) {
    const auto config =
        flight_config(workload, shape.side, shape.frames, options.seed, i);
    downlink::ChainReport chain;
    auto fly_chain = [&] {
      const auto t0 = Clock::now();
      chain = downlink::run_chain(config);
      chain_ms.push_back(seconds_since(t0) * 1e3);
    };
    // Alternate which side flies first so neither always meets warm caches.
    if (i % 2 == 0) fly_chain();
    const StagedFlight staged = run_staged(config, recorder, i);
    if (i % 2 == 1) fly_chain();
    const Span& root = recorder.spans()[static_cast<std::size_t>(staged.root)];
    staged_ms.push_back(static_cast<double>(root.end - root.start) / 1e6);
    flights.push_back(i);

    report.attempt();
    const std::string tag = "flight " + std::to_string(i) + ": ";
    if (const char* what = first_difference(staged.report, chain)) {
      report.fail(tag + "staged flight differs from run_chain in " + what);
    }
    if (const auto it = untraced.find(i); it != untraced.end()) {
      ++cross_checked;
      report.expect(it->second.crc == image_crc(chain.product),
                    tag + "product CRC differs from the untraced run");
    }

    if (i <= kCountFlights) {
      const auto& r = staged.report;
      counts["fault.bits_flipped"] += static_cast<double>(r.memory_bits_flipped);
      counts["fault.frames_dropped"] += static_cast<double>(r.frames_dropped);
      counts["fault.frames_corrupted"] += static_cast<double>(r.frames_corrupted);
      counts["core.pixels_corrected"] += static_cast<double>(r.pixels_corrected);
      counts["core.pixels_vetoed"] += static_cast<double>(r.pixels_vetoed);
      counts["rice.compressed_bytes"] += static_cast<double>(r.compressed_bytes);
      counts["edac.wire_bytes"] += static_cast<double>(r.wire_bytes);
      counts["edac.words_corrected"] += static_cast<double>(r.words_corrected);
      counts["downlink.tiles_degraded"] += static_cast<double>(r.tiles_degraded);
      psnr.push_back(r.psnr_db);
      changed += static_cast<double>(staged.voter_changed);
      useful += static_cast<double>(staged.voter_useful);
      corrupted += static_cast<double>(r.frames_corrupted);
      recovered += static_cast<double>(r.frames_recovered);
      raw += static_cast<double>(r.raw_bytes);
      compressed += static_cast<double>(r.compressed_bytes);
    }
  }
  report.note("cross-checked " + std::to_string(cross_checked) +
              " flights against the untraced run's CRC ledger");
  if (!report.expect(flights.size() >= kCountFlights,
                     "run too short: fewer than " +
                         std::to_string(kCountFlights) + " traced flights")) {
    return;
  }

  const Ledger ledger = ledger_ms(recorder.spans());
  for (const char* stage : kStages) {
    std::vector<double> per_flight;
    for (const std::uint64_t f : flights) {
      const auto& stages = ledger.at(f);
      const auto it = stages.find(stage);
      per_flight.push_back(it == stages.end() ? 0.0 : it->second);
    }
    report.add(std::string(stage) + "_ms", median(per_flight), "ms",
               per_flight.size());
  }
  double unattributed = 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < flights.size(); ++k) {
    unattributed += ledger.at(flights[k]).at("downlink.flight");
    total += staged_ms[k];
  }
  report.add("downlink.unattributed_frac", unattributed / total, "fraction",
             flights.size());
  report.add("trace.overhead_frac", median(staged_ms) / median(chain_ms) - 1.0,
             "fraction", flights.size());
  report.add("downlink.staged_flight_ms", median(staged_ms), "ms",
             staged_ms.size());
  report.add("downlink.chain_flight_ms", median(chain_ms), "ms",
             chain_ms.size());

  const double n = static_cast<double>(kCountFlights);
  for (const auto& [name, sum] : counts) {
    report.add(name, sum / n, name.ends_with("_bytes") ? "bytes" : "count",
               kCountFlights);
  }
  report.add("core.useful_frac", changed > 0 ? useful / changed : 0.0,
             "fraction", kCountFlights);
  report.add("rice.ratio", compressed > 0 ? raw / compressed : 0.0, "ratio",
             kCountFlights);
  report.add("edac.recovered_frac", corrupted > 0 ? recovered / corrupted : 0.0,
             "fraction", kCountFlights);
  report.add("metrics.psnr_db", median(psnr), "dB", psnr.size());

  std::ofstream spans(artifact(options, "spans", ".csv"));
  recorder.write_csv(spans);
}

}  // namespace

downlink::ChainConfig flight_config(downlink::ChainWorkload workload,
                                    std::size_t side, std::size_t frames,
                                    std::uint64_t seed, std::uint64_t flight) {
  downlink::ChainConfig config;
  config.workload = workload;
  config.side = side;
  config.frames = frames;
  config.lambda = 80.0;
  config.upsilon = 4;
  config.preprocess = true;
  config.gamma0 = 1e-3;
  config.link.drop_prob = 0.05;
  config.link.corrupt_prob = 0.05;
  config.link.duplicate_prob = 0.025;
  config.link.delay_prob = 0.05;
  config.threads = host_threads();
  config.seed = spacefts::common::derive_stream_seed(seed, flight, 0);
  return config;
}

Report run_downlink(const RunOptions& options,
                    downlink::ChainWorkload workload) {
  Report report;
  const Shape shape = shape_of(workload);

  // Set-up: the first flight warms the voter's lane pool, the allocator
  // and the caches.  Repeated; the median is reported.
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    const auto config =
        flight_config(workload, shape.side, shape.frames, options.seed, 0);
    (void)downlink::run_chain(config);
    setup_s.push_back(seconds_since(t0));
  }
  report.add("setup_s", median(setup_s), "s", setup_s.size());

  if (options.trace) {
    run_traced(options, shape, workload, report);
  } else {
    run_untraced(options, shape, workload, report);
  }
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return report;
}

}  // namespace perfbench
