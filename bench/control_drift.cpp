/// \file control_drift.cpp
/// The adaptive-sensitivity trajectory: the drifting-Γ₀ sweep of
/// campaign::run_drift, one BENCH_control.json row per arm.
///
/// The committed artifact is the controller's existence proof (DESIGN.md
/// §13): the adaptive arm must be ≥ every fixed-Λ baseline on science
/// fidelity at equal-or-better virtual deadline compliance.  enforce_drift
/// gates the write — the binary exits 1 without touching the artifact when
/// the controller regresses, so a bad build cannot commit its own alibi.
///
/// All compared fields in a row are deterministic (decision log, science,
/// virtual-time compliance); p99_e2e_ms and the provenance stamps are the
/// only wall-clock content.  Rows upsert keyed by (bench, arm, shards,
/// phase_len), so re-runs replace rows instead of accumulating.
///
///   control_drift [seed=42] [phase_len=96] [workers=2] [shards=0]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "spacefts/campaign/drift.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/telemetry/jsonl.hpp"

namespace {

namespace jsonl = spacefts::telemetry::jsonl;
using spacefts::campaign::DriftArm;

/// Configuration identity of one BENCH_control.json row — the upsert key.
std::string control_record_key(std::string_view line) {
  return jsonl::json_field(line, "bench") + "|" +
         jsonl::json_field(line, "arm") + "|" +
         jsonl::json_field(line, "shards") + "|" +
         jsonl::json_field(line, "phase_len");
}

/// Renders one arm as a trajectory row, or refuses (empty string) when any
/// metric fails the hygiene guard — science is the one legitimately signed
/// metric (corrected_faulty − corrected_clean).
std::string to_record(const DriftArm& arm, std::size_t phase_len,
                      std::size_t workers, std::size_t shards,
                      std::uint64_t seed) {
  const bool ok = jsonl::valid_metric(arm.science, /*signed_ok=*/true) &&
                  jsonl::valid_metric(arm.fixed_lambda) &&
                  jsonl::valid_metric(arm.virtual_cost_ms_mean) &&
                  jsonl::valid_metric(arm.virtual_compliance) &&
                  jsonl::valid_metric(arm.p99_e2e_ms);
  if (!ok) {
    std::fprintf(stderr,
                 "control_drift: arm %s has NaN/negative metrics; refusing "
                 "to record it\n",
                 arm.name.c_str());
    return "";
  }
  std::string line = "{\"bench\": \"control_drift\", \"arm\": \"" +
                     jsonl::escape(arm.name) + "\"";
  line += ", \"adaptive\": ";
  line += arm.adaptive ? "true" : "false";
  jsonl::append_fmt(line, ", \"fixed_lambda\": %.10g", arm.fixed_lambda);
  line += ", \"requests\": " + std::to_string(arm.requests);
  line += ", \"completed\": " + std::to_string(arm.completed);
  line += ", \"corrected_faulty\": " + std::to_string(arm.corrected_faulty);
  line += ", \"corrected_clean\": " + std::to_string(arm.corrected_clean);
  line += ", \"vetoed\": " + std::to_string(arm.vetoed);
  jsonl::append_fmt(line, ", \"science\": %.10g", arm.science);
  jsonl::append_fmt(line, ", \"virtual_cost_ms_mean\": %.10g",
                    arm.virtual_cost_ms_mean);
  line += ", \"virtual_misses\": " + std::to_string(arm.virtual_misses);
  jsonl::append_fmt(line, ", \"virtual_compliance\": %.10g",
                    arm.virtual_compliance);
  line += ", \"decisions\": " + std::to_string(arm.decisions);
  line += ", \"raises\": " + std::to_string(arm.raises);
  line += ", \"relaxes\": " + std::to_string(arm.relaxes);
  line += ", \"sheds\": " + std::to_string(arm.sheds);
  jsonl::append_fmt(line, ", \"p99_e2e_ms\": %.6g", arm.p99_e2e_ms);
  line += ", \"phase_len\": " + std::to_string(phase_len);
  line += ", \"workers\": " + std::to_string(workers);
  line += ", \"shards\": " + std::to_string(shards);
  line += ", \"seed\": " + std::to_string(seed);
  line += ", \"kernel\": \"" +
          std::string(spacefts::core::kernel_name(
              spacefts::core::resolve_kernel(spacefts::core::Kernel::kAuto))) +
          "\"";
  line += ", \"git_sha\": \"" + jsonl::escape(SPACEFTS_GIT_SHA) + "\"";
  line += ", \"iso_timestamp\": \"" + bench::iso_timestamp_utc() + "\"}\n";
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::size_t phase_len = 96, workers = 2, shards = 0;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) phase_len = std::strtoul(argv[2], nullptr, 10);
  if (argc > 3) workers = std::strtoul(argv[3], nullptr, 10);
  if (argc > 4) shards = std::strtoul(argv[4], nullptr, 10);
  if (phase_len == 0 || workers == 0) {
    std::fprintf(stderr, "control_drift: phase_len and workers must be > 0\n");
    return 1;
  }

  spacefts::campaign::DriftConfig config;
  for (auto& phase : config.phases) phase.requests = phase_len;
  config.seed = seed;
  config.workers = workers;
  config.shards = shards;

  const auto report = spacefts::campaign::run_drift(config);
  std::printf("%-12s %12s %11s %11s %10s %10s\n", "arm", "science",
              "faulty_px", "clean_px", "vcost_ms", "compliance");
  for (const DriftArm& arm : report.arms) {
    std::printf("%-12s %12.0f %11llu %11llu %10.4g %10.4g\n",
                arm.name.c_str(), arm.science,
                static_cast<unsigned long long>(arm.corrected_faulty),
                static_cast<unsigned long long>(arm.corrected_clean),
                arm.virtual_cost_ms_mean, arm.virtual_compliance);
  }

  std::string diagnostics;
  if (const auto violations =
          spacefts::campaign::enforce_drift(report, diagnostics);
      violations != 0) {
    std::fprintf(stderr, "%scontrol_drift: %zu gate violation(s); artifact "
                 "not written\n",
                 diagnostics.c_str(), violations);
    return 1;
  }

  std::size_t written = 0;
  for (const DriftArm& arm : report.arms) {
    const std::string row =
        to_record(arm, phase_len, workers, shards, seed);
    if (row.empty()) return 1;
    if (!jsonl::upsert_jsonl(row, control_record_key, "BENCH_control.json")) {
      std::fprintf(stderr, "control_drift: cannot write BENCH_control.json\n");
      return 1;
    }
    ++written;
  }
  std::printf("control_drift: gate passed; wrote %zu rows to "
              "BENCH_control.json\n",
              written);
  return 0;
}
