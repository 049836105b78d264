// perfbench: runs one benchmark workload and prints one JSON document with
// every metric, the correctness tally and the run fingerprint.  Normally
// driven by perfbench/run.py, which builds this binary and formats the
// result:
//
//   perfbench --workload downlink_ngst --seed 1 --seconds 10 --trace 0
//             [--out-dir DIR] [--git-sha SHA]

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload downlink_ngst|downlink_telemetry|"
               "serve_mix --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  try {
    perfbench::Report report;
    if (options.workload == "downlink_ngst") {
      report = perfbench::run_downlink(
          options, spacefts::downlink::ChainWorkload::kNgstImage);
    } else if (options.workload == "downlink_telemetry") {
      report = perfbench::run_downlink(
          options, spacefts::downlink::ChainWorkload::kTelemetry);
    } else if (options.workload == "serve_mix") {
      report = perfbench::run_serve_mix(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    report.write_json(std::cout, options);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }
}
