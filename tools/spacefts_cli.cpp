/// \file spacefts_cli.cpp
/// Command-line front end for the preprocessing layer.  Every verb, its
/// positionals and its flags are declared once in the tables below; one
/// parse loop checks a command line against them, and `spacefts_cli help
/// [verb]` prints the usage text generated from them.
///
/// Exit codes: 0 success, 1 operation failed, 2 usage error (unknown verb,
/// wrong number of positionals), 3 bad flag (unknown flag; missing,
/// malformed or out-of-range value; a campaign flag outside its mode; an
/// output path that cannot be opened; an inconsistent flag combination).
#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "spacefts/backend/backend.hpp"
#include "spacefts/campaign/campaign.hpp"
#include "spacefts/campaign/compute_sweep.hpp"
#include "spacefts/campaign/downlink_sweep.hpp"
#include "spacefts/campaign/drift.hpp"
#include "spacefts/check/corpus.hpp"
#include "spacefts/control/bank.hpp"
#include "spacefts/control/controller.hpp"
#include "spacefts/check/differential.hpp"
#include "spacefts/common/parallel.hpp"
#include "spacefts/core/algo_ngst.hpp"
#include "spacefts/core/kernel.hpp"
#include "spacefts/datagen/ngst.hpp"
#include "spacefts/dist/pipeline.hpp"
#include "spacefts/downlink/chain.hpp"
#include "spacefts/downlink/compressed_hdu.hpp"
#include "spacefts/fault/models.hpp"
#include "spacefts/fits/io.hpp"
#include "spacefts/fits/sanity.hpp"
#include "spacefts/ingest/guard.hpp"
#include "spacefts/metrics/error.hpp"
#include "spacefts/serve/router.hpp"
#include "spacefts/serve/server.hpp"
#include "spacefts/serve/workload.hpp"
#include "spacefts/telemetry/jsonl.hpp"
#include "spacefts/telemetry/telemetry.hpp"

#ifndef SPACEFTS_VERSION
#define SPACEFTS_VERSION "0.0.0"
#endif

namespace {

using spacefts::telemetry::jsonl::replace_file;

constexpr int kExitFailure = 1;  ///< the operation itself failed
constexpr int kExitUsage = 2;    ///< unknown verb / wrong positional count
constexpr int kExitBadFlag = 3;  ///< see the file comment

int bad_flag(const std::string& flag, const std::string& detail) {
  std::fprintf(stderr, "spacefts_cli: %s: %s\n", flag.c_str(), detail.c_str());
  return kExitBadFlag;
}

/// Strict parsers: the whole token must be consumed, so "8x" or "" is a
/// reportable mistake instead of a silent 8 (or 0).

[[nodiscard]] bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text.c_str(), &end);
  // strtod happily parses "inf" and "nan" with errno == 0, but no flag has a
  // meaningful non-finite value, and an infinity would slip through every
  // open-ended range check.
  return errno == 0 && *end == '\0' && std::isfinite(out);
}

/// Base-10 unsigned integer that fits T; a sign is rejected, not wrapped.
template <typename T>
[[nodiscard]] bool parse_unsigned(const std::string& text, T& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' ||
      value > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// A --shard-kill operand "I@C": kill shard I once the router has recorded
/// C results.
using ShardKill = std::pair<std::size_t, std::uint64_t>;

[[nodiscard]] bool parse_shard_kill(const std::string& text, ShardKill& out) {
  const auto at = text.find('@');
  return at != std::string::npos &&
         parse_unsigned(text.substr(0, at), out.first) &&
         parse_unsigned(text.substr(at + 1), out.second);
}

/// The one list splitter: comma-separated items, none of them empty.
[[nodiscard]] bool split_list(const std::string& text,
                              std::vector<std::string>& items) {
  items.clear();
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    items.push_back(text.substr(start, comma - start));
    if (items.back().empty()) return false;
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

/// Converts one value into its target; false when it does not parse.
template <typename T>
bool convert(const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, double>) {
    return parse_double(text, out);
  } else if constexpr (std::is_integral_v<T>) {
    return parse_unsigned(text, out);
  } else if constexpr (std::is_same_v<T, spacefts::core::Kernel>) {
    // An explicit variant the host cannot run is honoured via
    // resolve_kernel's documented fallback, so it is not a bad value.
    return spacefts::core::parse_kernel(text, out);
  } else if constexpr (std::is_same_v<T, spacefts::downlink::ChainWorkload>) {
    out = text == "telemetry" ? spacefts::downlink::ChainWorkload::kTelemetry
                              : spacefts::downlink::ChainWorkload::kNgstImage;
  } else {  // a comma list
    std::vector<std::string> items;
    if (!split_list(text, items)) return false;
    out.resize(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!convert(items[i], out[i])) return false;
    }
  }
  return true;
}

/// How a flag's value (each item of a list value) is parsed and checked.
enum class Kind {
  kUnsigned,  ///< a std::size_t or std::uint64_t, range-checked
  kDouble,    ///< a finite double, range-checked
  kChoice,    ///< one of the '|'- or ','-separated words of the placeholder
  kShardKill, ///< I@C, repeatable
  kInPath,    ///< a file to read
  kOutPath,   ///< a file to write, probed before the run
  kSwitch,    ///< no value
  kMode,      ///< a switch selecting the verb's mode (campaign)
};
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "kUnsigned values convert to either target");

/// The campaign modes a flag applies to.  A verb without kMode rows always
/// runs in kClassic, so its rows keep the kAnyMode default.
enum Mode { kClassic = 1, kControl = 2, kCompute = 4, kDownlink = 8 };
constexpr unsigned kAnyMode = kClassic | kControl | kCompute | kDownlink;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Lower bound for values the library requires to be strictly positive.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

struct Flag {
  const char* name;
  Kind kind;
  /// Help placeholder.  A comma in it ("a,b") makes the value a comma list
  /// of such items; for kChoice it is the set of accepted words.
  const char* meta = "";
  double lo = -kInf;  ///< inclusive range of every number the value carries
  double hi = kInf;
  unsigned modes = kAnyMode;
};

/// \p flag restricted to the campaign \p modes.
Flag only(unsigned modes, Flag flag) {
  flag.modes = modes;
  return flag;
}

/// Checks one scalar value, or one list item, against its row.  Returns the
/// complaint, empty when the item is acceptable.
std::string check_item(const Flag& flag, const std::string& text) {
  double number = 0.0;
  switch (flag.kind) {
    case Kind::kUnsigned: {
      std::uint64_t value = 0;
      if (!parse_unsigned(text, value)) return "bad value";
      number = static_cast<double>(value);
      break;
    }
    case Kind::kDouble:
      if (!parse_double(text, number)) return "bad value";
      break;
    case Kind::kChoice: {
      std::string words = std::string("|") + flag.meta + "|";
      std::replace(words.begin(), words.end(), ',', '|');
      if (text.find_first_of("|,") == std::string::npos &&
          words.find("|" + text + "|") != std::string::npos) {
        return {};
      }
      return std::string("must be one of ") + flag.meta;
    }
    case Kind::kShardKill: {
      ShardKill kill;
      if (parse_shard_kill(text, kill)) return {};
      return "expected SHARD@RESULT_COUNT (e.g. 1@50)";
    }
    default:  // paths
      return text.empty() ? "missing file argument" : "";
  }
  if (number >= flag.lo && number <= flag.hi) return {};
  char complaint[128];
  std::snprintf(complaint, sizeof(complaint), "%s outside %s%.10g, %.10g]",
                text.c_str(), flag.lo == kPositive ? "(" : "[",
                flag.lo == kPositive ? 0.0 : flag.lo, flag.hi);
  return complaint;
}

std::string check_value(const Flag& flag, const std::string& text) {
  std::vector<std::string> items{text};
  if (std::strchr(flag.meta, ',') != nullptr && !split_list(text, items)) {
    return "empty list item";
  }
  for (const auto& item : items) {
    std::string complaint = check_item(flag, item);
    if (!complaint.empty()) return complaint;
  }
  return {};
}

/// Early writability probe for an output path: a typo'd directory should
/// cost exit 3 before the run, not exit 1 after minutes of compute.  Append
/// mode never truncates an existing file, and a file the probe itself
/// created is removed again, so a run that writes nothing leaves nothing.
[[nodiscard]] bool probe_writable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) return false;
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

/// One command line after the parse loop: the positionals, plus every
/// flag given with its values in order, each already checked against its
/// row.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::vector<std::string>> given;

  [[nodiscard]] bool has(const std::string& flag) const {
    return given.count(flag) > 0;
  }

  /// The flag's last value, or \p fallback when it was not given.
  [[nodiscard]] std::string text(const std::string& flag,
                                 const std::string& fallback = "") const {
    const auto it = given.find(flag);
    return it == given.end() ? fallback : it->second.back();
  }

  /// Overwrites \p target with the flag's last value when it was given;
  /// a repeatable --shard-kill collects all of its values.
  template <typename T>
  void get(const std::string& flag, T& target) const {
    if (!has(flag)) return;
    if constexpr (std::is_same_v<T, std::vector<ShardKill>>) {
      for (const auto& value : given.at(flag)) {
        (void)parse_shard_kill(value, target.emplace_back());
      }
    } else {
      (void)convert(text(flag), target);
    }
  }
};

struct Verb {
  const char* name;
  const char* positionals;  ///< help text: "<required> [optional=default]"
  std::vector<Flag> flags;
  int (*run)(const Args&);
  const char* summary;  ///< indented description for `help <verb>`

  /// Names of the kMode rows in \p modes, joined by \p separator.
  [[nodiscard]] std::string mode_names(unsigned modes,
                                       const char* separator) const {
    std::string names;
    for (const Flag& row : flags) {
      if (row.kind != Kind::kMode || (row.modes & modes) == 0) continue;
      names += (names.empty() ? "" : separator) + std::string(row.name);
    }
    return names;
  }
};

int usage();

/// Checks argv[2..] against \p verb's rows into \p args.  Returns 0, or the
/// exit code of the first problem after reporting it.
int parse_args(const Verb& verb, int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    const auto flag = std::ranges::find_if(
        verb.flags, [&](const Flag& row) { return arg == row.name; });
    if (flag == verb.flags.end()) return bad_flag(arg, "unknown flag");
    std::string value;
    if (flag->kind != Kind::kSwitch && flag->kind != Kind::kMode) {
      if (i + 1 >= argc) return bad_flag(arg, "missing value");
      value = argv[++i];
      const std::string complaint = check_value(*flag, value);
      if (!complaint.empty()) return bad_flag(arg, complaint);
    }
    args.given[arg].push_back(value);
  }

  const std::string_view shape = verb.positionals;  // "<required> [optional]"
  const auto given = static_cast<std::ptrdiff_t>(args.positional.size());
  const auto required = std::ranges::count(shape, '<');
  if (given < required || given > required + std::ranges::count(shape, '[')) {
    return usage();
  }

  unsigned mode = 0;
  for (const Flag& row : verb.flags) {
    if (row.kind == Kind::kMode && args.has(row.name)) mode |= row.modes;
  }
  if (std::popcount(mode) > 1) {
    return bad_flag(verb.mode_names(kAnyMode, "/"),
                    "modes are mutually exclusive");
  }
  if (mode == 0) mode = kClassic;
  // Report the given flags outside the mode that share the first one's
  // complaint: "--a/--b: require --control" or "--c: not valid with --x".
  std::string outside, complaint;
  for (const Flag& row : verb.flags) {
    if ((row.modes & mode) != 0 || !args.has(row.name)) continue;
    const std::string why =
        mode == kClassic ? "require " + verb.mode_names(row.modes, " or ")
                         : "not valid with " + verb.mode_names(mode, "");
    if (complaint.empty()) complaint = why;
    if (why != complaint) continue;
    outside += (outside.empty() ? "" : "/") + std::string(row.name);
  }
  if (!outside.empty()) return bad_flag(outside, complaint);

  for (const Flag& row : verb.flags) {
    if (row.kind == Kind::kOutPath && args.has(row.name) &&
        !probe_writable(args.text(row.name))) {
      return bad_flag(row.name, "cannot open for writing");
    }
  }
  return 0;
}

/// Rows shared verbatim by several verbs.
const std::vector<Flag> kTelemetryFlags = {
    {"--trace-out", Kind::kOutPath, "file"},
    {"--metrics-out", Kind::kOutPath, "file"},
};
const std::vector<Flag> kBackendFlags = {
    {"--backend", Kind::kChoice, "cpu|unreliable|shadowed"},
    {"--compute-fault-rate", Kind::kDouble, "X", 0.0, 1.0},
    {"--compute-fault-seed", Kind::kUnsigned, "S"},
    {"--shadow-rate", Kind::kDouble, "X", 0.0, 1.0},
    {"--backend-log", Kind::kOutPath, "file"},
};
const Flag kKernelFlag{"--kernel", Kind::kChoice, "auto|swar|avx2"};

std::vector<Flag> rows(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> all;
  for (const auto& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

/// One --link-loss knob (default \p loss) drives every link fault kind.
void set_link_loss(const Args& args, double loss,
                   spacefts::fault::MessageFaultConfig& link) {
  args.get("--link-loss", loss);
  link.drop_prob = loss;
  link.corrupt_prob = loss;
  link.duplicate_prob = loss / 2.0;
  link.delay_prob = loss;
}

/// Post-parse: every --shard-kill index must name one of the --shards.
int check_shard_kills(const std::vector<ShardKill>& kills, std::size_t shards) {
  for (const auto& kill : kills) {
    if (kill.first >= shards) {
      return bad_flag("--shard-kill", shards == 0 ? "requires --shards"
                                                  : "shard index out of range");
    }
  }
  return 0;
}

/// Post-parse consistency of the backend rows: combinations that cannot
/// mean anything.  Returns 0, or exit 3 after reporting the combination.
int check_backend(const Args& args) {
  const std::string kind = args.text("--backend", "cpu");
  const char* complaint = nullptr;
  if (args.has("--shadow-rate") && kind != "shadowed") {
    complaint = "--shadow-rate requires --backend shadowed";
  } else if ((args.has("--compute-fault-rate") ||
              args.has("--compute-fault-seed")) &&
             kind == "cpu") {
    complaint = "--compute-fault-rate/--compute-fault-seed require --backend "
                "unreliable or shadowed";
  } else if (args.has("--backend-log") && kind != "shadowed") {
    complaint = "--backend-log requires --backend shadowed";
  }
  return complaint == nullptr ? 0 : bad_flag("--backend", complaint);
}

/// Builds the backend stack the flags ask for; null without --backend (the
/// legacy inline-CPU path).  When the stack includes a shadow guard,
/// \p shadow receives it so the caller can export the decision log and
/// health counters.
[[nodiscard]] std::shared_ptr<spacefts::backend::Backend> build_backend(
    const Args& args,
    std::shared_ptr<spacefts::backend::ShadowBackend>* shadow) {
  namespace be = spacefts::backend;
  if (!args.has("--backend")) return nullptr;
  const std::string kind = args.text("--backend");
  auto cpu = std::make_shared<be::CpuBackend>();
  if (kind == "cpu") return cpu;
  spacefts::fault::ComputeFaultConfig faults;
  args.get("--compute-fault-rate", faults.fault_rate);
  args.get("--compute-fault-seed", faults.seed);
  auto unreliable = std::make_shared<be::UnreliableBackend>(cpu, faults);
  if (kind == "unreliable") return unreliable;
  be::ShadowConfig sc;
  // The CLI default is 1.0 — check everything — so the shadowed path is
  // payload-safe out of the box; production-style sampling opts down.
  sc.shadow_rate = 1.0;
  args.get("--shadow-rate", sc.shadow_rate);
  auto shadowed = std::make_shared<be::ShadowBackend>(unreliable, cpu, sc);
  if (shadow != nullptr) *shadow = shadowed;
  return shadowed;
}

/// Reads all of \p path into \p text; on failure reports it as \p who.
[[nodiscard]] bool read_text(const char* who, const std::string& path,
                             std::string& text) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", who, path.c_str());
    return false;
  }
  std::ostringstream all;
  all << in.rdbuf();
  text = all.str();
  return true;
}

/// Exports a shadow guard's canonical decision log (sorted, deduplicated)
/// as JSON-lines, replacing any previous run's log.
[[nodiscard]] bool write_backend_log(
    const Args& args,
    const std::shared_ptr<spacefts::backend::ShadowBackend>& shadow) {
  return replace_file(
      args.text("--backend-log"),
      spacefts::backend::decisions_to_jsonl(shadow->decisions()));
}

/// Turns telemetry recording on before the instrumented run starts when
/// --trace-out or --metrics-out asks for it.
void arm_telemetry(const Args& args) {
  if (!args.has("--trace-out") && !args.has("--metrics-out")) return;
  if (!spacefts::telemetry::kCompiledIn) {
    std::fprintf(stderr,
                 "spacefts_cli: built with SPACEFTS_TELEMETRY=OFF; "
                 "--trace-out/--metrics-out produce no output\n");
    return;
  }
  spacefts::telemetry::set_enabled(true);
}

/// Writes the requested telemetry artifacts after the run; 0 on success.
[[nodiscard]] int finish_telemetry(const Args& args) {
  if (!spacefts::telemetry::kCompiledIn) return 0;
  int rc = 0;
  if (args.has("--trace-out")) {
    const std::string path = args.text("--trace-out");
    if (spacefts::telemetry::write_trace(path)) {
      std::printf("wrote trace %s\n", path.c_str());
    } else {
      rc = kExitFailure;
    }
  }
  if (args.has("--metrics-out")) {
    const std::string path = args.text("--metrics-out");
    if (spacefts::telemetry::write_metrics(path)) {
      std::printf("wrote metrics %s\n", path.c_str());
    } else {
      rc = kExitFailure;
    }
  }
  return rc;
}

/// Learns the baseline geometry from the first HDU whose header and
/// payload agree (a real deployment knows it a priori).
spacefts::fits::ImageExpectation probe_expectation(
    std::span<const std::uint8_t> bytes) {
  spacefts::fits::ImageExpectation expectation;
  expectation.bitpix = 16;
  try {
    const auto probe = spacefts::fits::FitsFile::parse(bytes);
    for (const auto& hdu : probe.hdus()) {
      const auto w = hdu.header.get_int("NAXIS1");
      const auto h = hdu.header.get_int("NAXIS2");
      if (w && h && *w > 0 && *h > 0 &&
          hdu.data.size() ==
              static_cast<std::size_t>(*w) * static_cast<std::size_t>(*h) * 2) {
        expectation.width = *w;
        expectation.height = *h;
        break;
      }
    }
  } catch (const spacefts::fits::FitsError&) {
    // Leave the expectation open; the guard reports what it can.
  }
  return expectation;
}

spacefts::common::TemporalStack<std::uint16_t> load_stack(
    const std::string& path) {
  const auto bytes = spacefts::fits::read_bytes(path);
  // Load through the sanity layer (Λ = 0: repair headers, never touch
  // data) so damaged files remain readable.
  spacefts::ingest::IngestConfig config;
  config.algo.lambda = 0.0;
  config.expectation = probe_expectation(bytes);
  const spacefts::ingest::IngestGuard guard(config);
  auto result = guard.ingest(bytes);
  if (!result.ok) throw spacefts::fits::FitsError(result.error);
  return std::move(result.stack);
}

/// Converts positional \p index, when given, into \p out; false after
/// reporting a value that does not parse.
template <typename T>
bool positional(const Args& args, std::size_t index, T& out, const char* what) {
  const auto& pos = args.positional;
  if (index >= pos.size() || convert(pos[index], out)) return true;
  (void)bad_flag(pos[index], std::string("bad ") + what + " value");
  return false;
}

int cmd_gen(const Args& args) {
  const std::string& out = args.positional[0];
  std::size_t frames = 64, side = 32;
  std::uint64_t seed = 1;
  if (!positional(args, 1, frames, "frames") ||
      !positional(args, 2, side, "side") ||
      !positional(args, 3, seed, "seed")) {
    return kExitBadFlag;
  }

  spacefts::datagen::NgstSimulator sim(seed);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  const auto stack = sim.stack(frames, scene);
  spacefts::fits::write_bytes(out, spacefts::ingest::IngestGuard::pack(stack));
  std::printf("wrote %s: %zux%zu, %zu readouts\n", out.c_str(), side, side,
              frames);
  return 0;
}

int cmd_corrupt(const Args& args) {
  const std::string& in = args.positional[0];
  const std::string& out = args.positional[1];
  double gamma0 = 0.0;
  std::uint64_t seed = 2;
  if (!positional(args, 2, gamma0, "gamma0") ||
      !positional(args, 3, seed, "seed")) {
    return kExitBadFlag;
  }

  auto file = spacefts::fits::read_file(in);
  spacefts::common::Rng rng(seed);
  const spacefts::fault::UncorrelatedFaultModel model(gamma0);
  std::size_t flipped = 0;
  for (auto& hdu : file.hdus()) {
    // The data unit is a byte array; corrupt it 16 bits at a time.
    const std::size_t words = hdu.data.size() / 2;
    const auto mask = model.mask16(words, rng);
    for (std::size_t w = 0; w < words; ++w) {
      hdu.data[2 * w] ^= static_cast<std::uint8_t>(mask[w] >> 8);
      hdu.data[2 * w + 1] ^= static_cast<std::uint8_t>(mask[w] & 0xFF);
    }
    flipped += spacefts::fault::count_faults<std::uint16_t>(mask);
  }
  if (args.has("--header") && !file.hdus().empty()) {
    auto& header = file.hdus()[file.hdus().size() / 2].header;
    const auto naxis1 = header.get_int("NAXIS1").value_or(0);
    header.set_int("NAXIS1", naxis1 ^ 0x20);
    std::printf("damaged NAXIS1 of HDU %zu: %lld -> %lld\n",
                file.hdus().size() / 2, static_cast<long long>(naxis1),
                static_cast<long long>(naxis1 ^ 0x20));
  }
  spacefts::fits::write_file(out, file);
  std::printf("wrote %s with %zu flipped data bits (gamma0=%g)\n", out.c_str(),
              flipped, gamma0);
  return 0;
}

int cmd_ingest(const Args& args) {
  const std::string& in = args.positional[0];
  const std::string& out = args.positional[1];
  double lambda = 80.0;
  std::size_t upsilon = 4;
  if (!positional(args, 2, lambda, "lambda") ||
      !positional(args, 3, upsilon, "upsilon")) {
    return kExitBadFlag;
  }

  const auto bytes = spacefts::fits::read_bytes(in);
  spacefts::ingest::IngestConfig config;
  config.algo.lambda = lambda;
  config.algo.upsilon = upsilon;
  args.get("--threads", config.algo.threads);
  args.get("--kernel", config.algo.kernel);
  config.expectation = probe_expectation(bytes);

  arm_telemetry(args);
  const spacefts::ingest::IngestGuard guard(config);
  const auto result = guard.ingest(bytes);
  std::size_t issues = 0, repaired = 0;
  for (const auto& report : result.sanity) {
    issues += report.issues.size();
    for (const auto& issue : report.issues) repaired += issue.repaired ? 1 : 0;
  }
  std::printf("sanity: %zu issue(s), %zu repaired\n", issues, repaired);
  if (!result.ok) {
    std::fprintf(stderr, "ingest failed: %s\n", result.error.c_str());
    const int telem_rc = finish_telemetry(args);
    return telem_rc != 0 ? telem_rc : kExitFailure;
  }
  std::printf("preprocessing: %zu bits corrected across %zu pixels\n",
              result.preprocess.bits_corrected,
              result.preprocess.pixels_corrected);
  spacefts::fits::write_bytes(out,
                              spacefts::ingest::IngestGuard::pack(result.stack));
  std::printf("wrote %s\n", out.c_str());
  return finish_telemetry(args);
}

int cmd_info(const Args& args) {
  const auto file = spacefts::fits::read_file(args.positional[0]);
  std::printf("%zu HDU(s)\n", file.hdus().size());
  for (std::size_t i = 0; i < file.hdus().size(); ++i) {
    const auto& hdu = file.hdus()[i];
    std::printf("HDU %zu: BITPIX=%lld NAXIS1=%lld NAXIS2=%lld data=%zu bytes\n",
                i,
                static_cast<long long>(hdu.header.get_int("BITPIX").value_or(0)),
                static_cast<long long>(hdu.header.get_int("NAXIS1").value_or(0)),
                static_cast<long long>(hdu.header.get_int("NAXIS2").value_or(0)),
                hdu.data.size());
  }
  return 0;
}

int cmd_psi(const Args& args) {
  const auto a = load_stack(args.positional[0]);
  const auto b = load_stack(args.positional[1]);
  if (a.cube().size() != b.cube().size()) {
    std::fprintf(stderr, "baseline sizes differ\n");
    return kExitFailure;
  }
  const double psi = spacefts::metrics::average_relative_error<std::uint16_t>(
      a.cube().voxels(), b.cube().voxels());
  std::printf("Psi = %.8f\n", psi);
  return 0;
}

int cmd_pipeline(const Args& args) {
  if (const int rc = check_backend(args)) return rc;
  std::size_t side = 32, frames = 16;
  std::uint64_t seed = 42;
  double control_budget_ms = 0.0;  ///< > 0: fit lambda/upsilon to budget
  args.get("--side", side);
  args.get("--frames", frames);
  args.get("--seed", seed);
  args.get("--control-budget-ms", control_budget_ms);
  auto kernel = spacefts::core::Kernel::kAuto;
  args.get("--kernel", kernel);

  arm_telemetry(args);
  spacefts::datagen::NgstSimulator gen(seed);
  spacefts::datagen::SceneParams scene;
  scene.width = side;
  scene.height = side;
  auto readouts = gen.stack(frames, scene);

  // The real acquisition path: container roundtrip through the ingest
  // guard (Λ = 0, lossless) before the master scatters fragments.
  spacefts::ingest::IngestConfig ic;
  ic.expectation.bitpix = 16;
  ic.expectation.width = static_cast<std::int64_t>(side);
  ic.expectation.height = static_cast<std::int64_t>(side);
  ic.algo.lambda = 0.0;
  ic.algo.kernel = kernel;
  const spacefts::ingest::IngestGuard guard(ic);
  auto ingested = guard.ingest(spacefts::ingest::IngestGuard::pack(readouts));
  if (!ingested.ok) {
    std::fprintf(stderr, "pipeline: ingest failed: %s\n",
                 ingested.error.c_str());
    return kExitFailure;
  }
  readouts = std::move(ingested.stack);

  // One end-to-end run under a deliberately lively default fault model, so
  // a default invocation's trace shows the full protocol (retries, CRC
  // rejects, degraded completions) rather than a straight-line success.
  spacefts::dist::PipelineConfig pc;
  pc.workers = 4;
  pc.fragment_side = 16;
  pc.gamma0 = 0.002;
  pc.worker_crash_prob = 0.1;
  args.get("--workers", pc.workers);
  args.get("--fragment-side", pc.fragment_side);
  args.get("--gamma0", pc.gamma0);
  args.get("--crash", pc.worker_crash_prob);
  args.get("--lambda", pc.algo.lambda);
  args.get("--threads", pc.threads);
  args.get("--retries", pc.max_link_retries);
  set_link_loss(args, 0.3, pc.link.faults);
  pc.algo.kernel = kernel;
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  if (const auto backend = build_backend(args, &shadow)) {
    // Fragment i computes as epoch 1 + i so fault plans and shadow samples
    // are per-fragment, matching the serving tier's pipeline epochs.
    pc.ngst_executor = [backend](
                           spacefts::common::TemporalStack<std::uint16_t>& tile,
                           const spacefts::core::AlgoNgstConfig& cfg,
                           std::size_t fragment) {
      const spacefts::backend::ComputeMeta meta{0, 1 + fragment};
      return backend->preprocess(tile, cfg, meta, nullptr);
    };
  }
  if (control_budget_ms > 0.0) {
    // Open-loop controller fit: the hottest (lambda, upsilon) whose virtual
    // cost for this job keeps headroom under the budget.  Overrides
    // --lambda — the two knobs answer the same question differently.
    spacefts::control::ControlConfig cc;
    cc.deadline_budget_ms = control_budget_ms;
    auto point = spacefts::control::fit_budget(cc, side * side * frames);
    // Same per-instrument clamp the serving tuner applies: NGST voting
    // needs upsilon < frames, rounded down to even.
    std::size_t upsilon_cap = frames > 1 ? frames - 1 : 2;
    upsilon_cap -= upsilon_cap % 2;
    if (upsilon_cap >= 2 && point.upsilon > upsilon_cap) {
      point.upsilon = upsilon_cap;
    }
    pc.algo.lambda = point.lambda;
    pc.algo.upsilon = point.upsilon;
    std::printf(
        "control: budget %.3g ms -> lambda %.10g, upsilon %zu (virtual cost"
        " %.4g ms)\n",
        control_budget_ms, point.lambda, point.upsilon,
        spacefts::control::virtual_cost_ms(cc, side * side * frames, point));
  }

  spacefts::common::Rng rng = gen.rng().split();
  const auto result = spacefts::dist::run_pipeline(readouts, pc, rng);

  std::printf(
      "pipeline: %zu fragments, coverage %.4f, makespan %.4fs\n"
      "  faults injected %zu, pixels corrected %zu\n"
      "  link retries %zu, crc failures %zu, byzantine rejected %zu\n"
      "  worker crashes %zu, reassignments %zu, degraded fragments %zu\n",
      result.fragments, result.coverage, result.makespan_s,
      result.faults_injected, result.pixels_corrected, result.link_retries,
      result.crc_failures, result.byzantine_rejected, result.worker_crashes,
      result.reassignments, result.degraded_fragments);
  if (shadow) {
    const auto health = shadow->health();
    std::printf(
        "  shadow guard: %zu executed, %zu sampled, %zu mismatches%s\n",
        health.executed, health.sampled, health.mismatches,
        health.quarantined ? " [QUARANTINE]" : "");
    if (args.has("--backend-log") && !write_backend_log(args, shadow)) {
      return kExitFailure;
    }
  }
  return finish_telemetry(args);
}

/// The end-to-end downlink scenario as a verb: fly the full chain once
/// (datagen → optional voter → rice → CRC/Hamming frames → faulty link →
/// deframe → science product) and report fidelity vs the clean-chain
/// golden.  --out writes the received product as a Rice-compressed FITS —
/// deterministic bytes, so CI `cmp`s runs across thread counts.
int cmd_downlink(const Args& args) {
  spacefts::downlink::ChainConfig config;
  args.get("--workload", config.workload);
  args.get("--side", config.side);
  args.get("--frames", config.frames);
  args.get("--tile-rows", config.tile_rows);
  args.get("--lambda", config.lambda);
  args.get("--upsilon", config.upsilon);
  args.get("--gamma0", config.gamma0);
  if (args.has("--link-loss")) set_link_loss(args, 0.0, config.link);
  config.preprocess = !args.has("--no-preprocess");
  args.get("--seed", config.seed);
  args.get("--threads", config.threads);
  args.get("--kernel", config.kernel);
  if (config.upsilon % 2 != 0) {
    return bad_flag("--upsilon", "upsilon must be a positive even count");
  }
  if (const int rc = check_backend(args)) return rc;
  const std::string out_path = args.text("--out");
  const std::string golden_path = args.text("--golden-out");
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  config.backend = build_backend(args, &shadow);

  // The rows already enforce run_chain's config checks; anything it still
  // throws is an operational failure for main() to report.
  const auto report = spacefts::downlink::run_chain(config);

  std::printf("downlink: workload=%s side=%zu frames=%zu lambda=%g "
              "gamma0=%g preprocess=%s\n",
              spacefts::downlink::to_string(config.workload), config.side,
              config.frames, config.lambda, config.gamma0,
              config.preprocess ? "on" : "off");
  std::printf(
      "  tiles %zu (%zu degraded), frames sent %zu, dropped %zu, corrupted "
      "%zu, recovered %zu, hamming repairs %zu\n",
      report.tiles, report.tiles_degraded, report.frames_sent,
      report.frames_dropped, report.frames_corrupted, report.frames_recovered,
      report.words_corrected);
  std::printf(
      "  wire %zu bytes for %zu raw (ratio %.3f), memory bits flipped %zu, "
      "voter corrected %zu pixels (%zu vetoed)\n",
      report.wire_bytes, report.raw_bytes, report.compression_ratio,
      report.memory_bits_flipped, report.pixels_corrected,
      report.pixels_vetoed);
  std::printf("  fidelity vs golden: psnr %.2f dB, pixel match %.6f\n",
              report.psnr_db, report.pixel_match);

  const auto write_product =
      [](const std::string& path,
         const spacefts::common::Image<std::uint16_t>& image) {
        spacefts::fits::FitsFile file;
        file.hdus().push_back(spacefts::downlink::make_compressed_hdu(image));
        spacefts::fits::write_bytes(path, file.serialize());
      };
  if (!out_path.empty()) {
    write_product(out_path, report.product);
    std::printf("wrote product %s\n", out_path.c_str());
  }
  if (!golden_path.empty()) {
    write_product(golden_path, report.golden);
    std::printf("wrote golden %s\n", golden_path.c_str());
  }
  if (args.has("--backend-log") && shadow && !write_backend_log(args, shadow)) {
    return kExitFailure;
  }
  return 0;
}

/// The tail every campaign mode shares: run the --enforce gate, then write
/// the report's JSONL rows, print the summary line and write the telemetry
/// artifacts.  A gate violation writes no rows, so a failing run can never
/// replace the committed artifact it failed to reproduce.
template <typename Report>
int finish_campaign(const Args& args, const std::string& path,
                    const Report& report, const std::string& summary) {
  namespace camp = spacefts::campaign;
  // The drift report is a byte-comparable artifact, so it replaces the
  // file; every other sweep upserts its keyed rows into a shared file.
  constexpr bool kDrift = std::is_same_v<Report, camp::DriftReport>;
  const bool enforce = args.has("--enforce");
  if (enforce) {
    std::string diagnostics;
    std::size_t violations = 0;
    if constexpr (kDrift) {
      violations = camp::enforce_drift(report, diagnostics);
    } else {
      violations = camp::enforce(report, diagnostics);
    }
    if (violations > 0) {
      std::fprintf(stderr,
                   "campaign enforce: %zu violation(s); %s not written\n%s",
                   violations, path.c_str(), diagnostics.c_str());
      return kExitFailure;
    }
  }
  const std::string rows = camp::to_jsonl(report);
  if (kDrift ? !replace_file(path, rows)
             : !spacefts::telemetry::jsonl::upsert_jsonl(
                   rows, camp::campaign_row_key, path)) {
    return kExitFailure;
  }
  std::printf("campaign: %s %s\n", summary.c_str(), path.c_str());
  if (enforce) std::printf("campaign enforce: pass\n");
  return finish_telemetry(args);
}

int cmd_campaign(const Args& args) {
  namespace camp = spacefts::campaign;
  const std::string out_path = args.text("--out", "BENCH_campaign.json");

  if (args.has("--downlink")) {
    // End-to-end downlink fidelity sweep: the --gamma0/--link-loss/--lambda
    // grids become chain axes, replacing the sweep's own defaults only when
    // given — the classic campaign's defaults are not chain defaults.
    camp::DownlinkSweepConfig dc;
    args.get("--gamma0", dc.gamma0_grid);
    args.get("--link-loss", dc.link_loss_grid);
    args.get("--lambda", dc.lambda_grid);
    args.get("--workloads", dc.workload_grid);
    args.get("--side", dc.side);
    args.get("--frames", dc.frames);
    args.get("--tile-rows", dc.tile_rows);
    args.get("--trials", dc.trials);
    args.get("--seed", dc.seed);
    args.get("--threads", dc.threads);
    arm_telemetry(args);
    const auto report = camp::run_downlink_sweep(dc);
    std::printf("%-10s %8s %10s %8s %9s %9s %9s %9s %9s\n", "workload",
                "gamma0", "link_loss", "lambda", "psnr_on", "psnr_off",
                "match_on", "match_off", "degraded");
    for (const auto& c : report.cells) {
      std::printf("%-10s %8.4g %10.4g %8.4g %9.2f %9.2f %9.4f %9.4f %4zu/%-4zu\n",
                  spacefts::downlink::to_string(c.workload), c.gamma0,
                  c.link_loss, c.lambda, c.psnr_on_db, c.psnr_off_db,
                  c.match_on, c.match_off, c.degraded_on, c.degraded_off);
    }
    return finish_campaign(args, out_path, report,
                           "downlink sweep, " +
                               std::to_string(report.cells.size()) +
                               " cells; appended to");
  }

  if (args.has("--compute")) {
    // Compute-fault x shadow-rate sweep: detected-vs-escaped curve for the
    // backend subsystem's untrusted-accelerator axis.
    camp::ComputeSweepConfig cc;
    args.get("--fault-rates", cc.fault_rate_grid);
    args.get("--shadow-rates", cc.shadow_rate_grid);
    args.get("--requests", cc.requests);
    args.get("--seed", cc.seed);
    arm_telemetry(args);
    const auto report = camp::run_compute_sweep(cc);
    std::printf("%-12s %-12s %8s %8s %8s %8s %8s %s\n", "fault_rate",
                "shadow_rate", "requests", "injected", "detected", "escaped",
                "stalls", "quarantine");
    for (const auto& c : report.cells) {
      std::printf("%-12g %-12g %8zu %8zu %8zu %8zu %8zu %s\n", c.fault_rate,
                  c.shadow_rate, c.requests, c.injected, c.detected, c.escaped,
                  c.stalls, c.quarantined ? "yes" : "no");
    }
    return finish_campaign(args, out_path, report,
                           "compute sweep, " +
                               std::to_string(report.cells.size()) +
                               " cells; appended to");
  }

  if (args.has("--control")) {
    // Drifting-gamma0 controller sweep: --gamma0 is the phase schedule and
    // --lambda the fixed-baseline grid.
    camp::DriftConfig dc;
    std::size_t phase_len = 96;
    args.get("--phase-len", phase_len);
    if (args.has("--gamma0")) {
      std::vector<double> schedule;
      args.get("--gamma0", schedule);
      dc.phases.clear();
      for (const double gamma0 : schedule) {
        dc.phases.push_back({gamma0, phase_len});
      }
    } else {
      for (auto& phase : dc.phases) phase.requests = phase_len;
    }
    args.get("--lambda", dc.lambda_grid);
    args.get("--seed", dc.seed);
    // --threads means serve worker threads here (the determinism axis the
    // control-smoke CI job sweeps); the classic grid uses it for trials.
    // 0 is one worker per hardware thread, as in every other mode.
    std::size_t threads = 1;
    args.get("--threads", threads);
    dc.workers = spacefts::common::parallel::resolve_threads(threads);
    args.get("--shards", dc.shards);
    args.get("--shard-kill", dc.shard_kills);
    if (const int rc = check_shard_kills(dc.shard_kills, dc.shards)) return rc;
    args.get("--control-budget-ms", dc.control.deadline_budget_ms);

    arm_telemetry(args);
    const auto report = camp::run_drift(dc);
    for (const auto& arm : report.arms) {
      std::printf(
          "control %-12s science %12.0f  corrected %llu/%llu  vetoed %llu"
          "  vcost %.4g ms  compliance %.4g  decisions %zu (+%zu/-%zu/!%zu)\n",
          arm.name.c_str(), arm.science,
          static_cast<unsigned long long>(arm.corrected_faulty),
          static_cast<unsigned long long>(arm.corrected_clean),
          static_cast<unsigned long long>(arm.vetoed),
          arm.virtual_cost_ms_mean, arm.virtual_compliance, arm.decisions,
          arm.raises, arm.relaxes, arm.sheds);
    }
    return finish_campaign(args, args.text("--out", "BENCH_control.json"),
                           report,
                           "controller sweep, " +
                               std::to_string(report.arms.size()) +
                               " arms; wrote");
  }

  camp::CampaignConfig config;
  args.get("--gamma0", config.gamma0_grid);
  args.get("--crash", config.crash_grid);
  args.get("--link-loss", config.link_loss_grid);
  args.get("--lambda", config.lambda_grid);
  args.get("--trials", config.trials);
  args.get("--seed", config.seed);
  args.get("--threads", config.threads);
  args.get("--retries", config.max_link_retries);
  if (args.has("--no-retries")) config.max_link_retries = 0;
  arm_telemetry(args);
  const auto report = camp::run_campaign(config);
  std::printf("%8s %8s %10s %9s %9s %9s %9s\n", "gamma0", "crash",
              "link_loss", "survived", "min_cov", "corr", "makespan");
  for (const auto& c : report.cells) {
    std::printf("%8.4g %8.4g %10.4g %6zu/%-2zu %9.4f %9.4f %9.6f\n", c.gamma0,
                c.crash_prob, c.link_loss, c.survived, c.trials,
                c.min_coverage, c.correction_rate, c.mean_makespan_s);
  }
  return finish_campaign(
      args, out_path, report,
      std::to_string(report.cells.size()) + " cells, " +
          std::to_string(report.trials_survived) + "/" +
          std::to_string(report.trials_run) + " trials survived; appended to");
}

int cmd_serve(const Args& args) {
  spacefts::serve::WorkloadSpec spec;
  spec.ngst_side = 16;
  spec.ngst_frames = 8;
  args.get("--requests", spec.requests);
  args.get("--rate", spec.rate_hz);
  args.get("--seed", spec.seed);
  args.get("--otis-frac", spec.otis_fraction);
  args.get("--pipeline-frac", spec.pipeline_fraction);
  args.get("--deadline-ms", spec.deadline_ms);
  args.get("--priorities", spec.priority_levels);
  args.get("--streams", spec.streams);

  spacefts::serve::ServerConfig config;
  // Replay defaults favour determinism: a bounded admission wait long
  // enough that statuses do not depend on scheduling luck.  Overload
  // studies opt into shedding with --admit-wait-ms 0.
  config.admission_timeout_ms = 10'000.0;
  config.exec.fragment_side = 8;
  args.get("--capacity", config.capacity);
  args.get("--threads", config.workers);
  args.get("--batch", config.max_batch);
  args.get("--linger-ms", config.batch_linger_ms);
  args.get("--admit-wait-ms", config.admission_timeout_ms);
  args.get("--ingress-drop", config.exec.ingress.drop_prob);
  args.get("--ingress-corrupt", config.exec.ingress.corrupt_prob);
  args.get("--kernel", config.exec.kernel);

  std::size_t shards = 0;  ///< 0 = classic single-server path
  args.get("--shards", shards);
  std::vector<ShardKill> kills;
  args.get("--shard-kill", kills);
  spacefts::fault::ShardFaultConfig chaos;
  args.get("--shard-crash", chaos.crash_prob);
  args.get("--shard-stall", chaos.stall_prob);
  args.get("--shard-slow", chaos.slow_prob);

  spacefts::control::ControlConfig control_cfg;
  args.get("--control-budget-ms", control_cfg.deadline_budget_ms);
  args.get("--control-window", control_cfg.window);
  args.get("--control-lag", control_cfg.lag);
  const bool control_enabled = args.has("--control");
  const bool gen_only = args.has("--gen-only");
  const std::string replay_path = args.text("--replay");
  const std::string workload_out = args.text("--workload-out");
  const std::string control_out = args.text("--control-out");

  if (gen_only && workload_out.empty()) {
    return bad_flag("--gen-only", "requires --workload-out");
  }
  if (gen_only && !replay_path.empty()) {
    return bad_flag("--gen-only", "incompatible with --replay");
  }
  if (const int rc = check_shard_kills(kills, shards)) return rc;
  if (shards == 0 && !chaos.perfect()) {
    return bad_flag("--shard-crash/--shard-stall/--shard-slow",
                    "require --shards");
  }
  if (!control_enabled && !control_out.empty()) {
    return bad_flag("--control-out", "requires --control");
  }
  if (const int rc = check_backend(args)) return rc;

  // Obtain the workload: replay a committed file or generate in-process.
  std::vector<spacefts::serve::WorkloadItem> items;
  if (!replay_path.empty()) {
    std::string text;
    if (!read_text("serve", replay_path, text)) return kExitFailure;
    items = spacefts::serve::parse_workload_jsonl(text);
  } else {
    items = spacefts::serve::generate_workload(spec);
  }
  if (!workload_out.empty()) {
    if (!replace_file(workload_out, spacefts::serve::to_jsonl(items))) {
      return kExitFailure;
    }
    std::printf("wrote workload %s (%zu requests)\n", workload_out.c_str(),
                items.size());
  }
  if (gen_only) return 0;

  arm_telemetry(args);
  // One backend stack shared by every shard: the shadow guard's health is
  // a property of the accelerator substrate, not of any one shard, and its
  // per-(request, epoch) streams are order-independent so sharing stays
  // deterministic.
  std::shared_ptr<spacefts::backend::ShadowBackend> shadow;
  config.exec.backend = build_backend(args, &shadow);
  // The controller bank outlives the server/router so every worker-thread
  // tuner call and result observation lands on live state.
  std::optional<spacefts::control::ControllerBank> bank;
  if (control_enabled) {
    bank.emplace(control_cfg);
    config.exec.tuner = [&bank](const spacefts::serve::Request& r) {
      return bank->point(r.id);
    };
    // Single-server observer; the router clears it from the shard template
    // and delivers its own exactly-once stream via RouterConfig::on_result.
    config.on_result = [&bank](const spacefts::serve::RequestResult& r) {
      bank->observe(r);
    };
  }
  const bool pace = args.has("--pace");
  std::vector<spacefts::serve::RequestResult> results;
  const auto start = std::chrono::steady_clock::now();
  const auto submit_all = [&](auto& sink) {
    for (const auto& item : items) {
      if (pace) {
        // Open-loop arrival process: honour the workload's timestamps.
        const auto due =
            start +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(item.arrival_s));
        std::this_thread::sleep_until(due);
      }
      if (bank) (void)bank->admit(item.request);
      (void)sink.submit(item.request);
    }
  };

  if (shards > 0) {
    spacefts::serve::RouterConfig rc;
    rc.shards = shards;
    rc.shard = config;
    rc.chaos = chaos;
    if (bank) {
      rc.on_result = [&bank](const spacefts::serve::RequestResult& r) {
        bank->observe(r);
      };
    }
    spacefts::serve::Router router(rc);
    for (const auto& [victim, after] : kills) {
      router.schedule_kill(victim, after);
    }
    submit_all(router);
    router.wait_idle();
    router.drain();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = router.stats();
    results = router.take_results();
    std::printf(
        "serve: %llu submitted across %zu shards in %.3fs (%.1f req/s)\n"
        "  accepted %llu, completed %llu, shed %llu, lost %llu\n"
        "  cancelled %llu, expired %llu, failed %llu\n"
        "  replays %llu, spills %llu, ejections %llu, readmissions %llu,"
        " kills %llu, stale %llu\n",
        static_cast<unsigned long long>(stats.submitted), shards, wall_s,
        wall_s > 0.0 ? static_cast<double>(stats.submitted) / wall_s : 0.0,
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.lost),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.replays),
        static_cast<unsigned long long>(stats.spills),
        static_cast<unsigned long long>(stats.ejections),
        static_cast<unsigned long long>(stats.readmissions),
        static_cast<unsigned long long>(stats.kills),
        static_cast<unsigned long long>(stats.stale_results));
    for (std::size_t i = 0; i < shards; ++i) {
      const auto snap = router.shard(i);
      std::printf("  shard %zu: %s epoch %llu, completed %llu, ejections"
                  " %llu\n",
                  i, spacefts::serve::to_string(snap.state),
                  static_cast<unsigned long long>(snap.epoch),
                  static_cast<unsigned long long>(snap.completed),
                  static_cast<unsigned long long>(snap.ejections));
    }
  } else {
    spacefts::serve::Server server(config);
    submit_all(server);
    server.wait_idle();
    server.drain();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = server.stats();
    results = server.take_results();
    std::printf(
        "serve: %llu submitted in %.3fs (%.1f req/s offered)\n"
        "  accepted %llu, completed %llu, shed %llu, lost %llu\n"
        "  cancelled %llu, expired %llu, failed %llu, batches %llu\n"
        "  ingress corrupted %llu, ingress duplicates %llu\n",
        static_cast<unsigned long long>(stats.submitted), wall_s,
        wall_s > 0.0 ? static_cast<double>(stats.submitted) / wall_s : 0.0,
        static_cast<unsigned long long>(stats.accepted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.lost),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.ingress_corrupted),
        static_cast<unsigned long long>(stats.ingress_duplicates));
  }

  if (shadow) {
    const auto health = shadow->health();
    std::printf("shadow guard: %zu executed, %zu sampled, %zu mismatches%s\n",
                health.executed, health.sampled, health.mismatches,
                health.quarantined ? " [QUARANTINE]" : "");
    if (args.has("--backend-log")) {
      if (!write_backend_log(args, shadow)) return kExitFailure;
      std::printf("wrote backend decisions %s\n",
                  args.text("--backend-log").c_str());
    }
  }
  if (bank) {
    std::printf("control: %zu stream controller(s), %zu decision(s)\n",
                bank->stream_count(), bank->decisions().size());
  }
  if (bank && !control_out.empty()) {
    if (!replace_file(control_out, spacefts::control::decisions_to_jsonl(
                                       bank->decisions()))) {
      return kExitFailure;
    }
    std::printf("wrote control decisions %s\n", control_out.c_str());
  }

  if (args.has("--results-out")) {
    const std::string results_out = args.text("--results-out");
    if (!replace_file(results_out,
                      spacefts::serve::results_to_jsonl(std::move(results)))) {
      return kExitFailure;
    }
    std::printf("wrote results %s\n", results_out.c_str());
  }
  // kFailed requests (e.g. ingress corruption the sanity layer could not
  // repair) are deterministic served outcomes recorded in the results, not
  // operational errors of the CLI run.
  return finish_telemetry(args);
}

int cmd_check(const Args& args) {
  std::uint64_t seed = 1;
  std::size_t cases = 50;
  args.get("--seed", seed);
  args.get("--cases", cases);
  spacefts::check::RunOptions options;
  args.get("--threads", options.threads);
  // auto keeps the default cross-kernel sweep; an explicit variant narrows
  // the diff families to that one kernel.
  auto kernel = spacefts::core::Kernel::kAuto;
  args.get("--kernel", kernel);
  if (kernel != spacefts::core::Kernel::kAuto) options.kernels = {kernel};
  const std::string corpus_out = args.text("--corpus-out");
  const std::string replay_path = args.text("--replay");

  spacefts::check::CheckReport report;
  if (!replay_path.empty()) {
    std::string text;
    if (!read_text("check", replay_path, text)) return kExitFailure;
    report = spacefts::check::run_cases(
        spacefts::check::parse_corpus_jsonl(text), options);
  } else {
    report = spacefts::check::run_fuzz(seed, cases, options);
  }

  // Stdout is the deterministic replay record: it depends only on the case
  // specs and the oracle answers, so CI byte-compares it across --threads
  // values.  Failure diagnostics go to stderr.
  for (const auto& line : report.lines) std::printf("%s\n", line.c_str());
  std::printf("check: %zu cases, %zu failures\n", report.cases,
              report.failures.size());
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "check failure: %s\n  %s\n",
                 spacefts::check::to_json(failure.spec).c_str(),
                 failure.detail.c_str());
  }
  if (!corpus_out.empty() && !report.failures.empty()) {
    std::vector<spacefts::check::CaseSpec> specs = report.shrunk;
    if (specs.empty()) {
      for (const auto& failure : report.failures) {
        specs.push_back(failure.spec);
      }
    }
    if (!replace_file(corpus_out, spacefts::check::corpus_to_jsonl(specs))) {
      return kExitFailure;
    }
    std::fprintf(stderr, "check: wrote %zu failing case(s) to %s\n",
                 specs.size(), corpus_out.c_str());
  }
  return report.ok() ? 0 : kExitFailure;
}

int cmd_version(const Args&) {
  std::printf("spacefts_cli %s\n", SPACEFTS_VERSION);
  return 0;
}

int cmd_help(const Args& args);

/// Every verb: its positionals, its flag rows and its run function.  The
/// parse loop, `help` and `main()` dispatch all read this one table.
const std::vector<Verb>& verbs() {
  static const std::vector<Verb> table = {
      {"gen", "<out.fits> [frames=64] [side=32] [seed=1]", {}, cmd_gen,
       "  synthesise a baseline (NGST Gaussian model) as a multi-HDU FITS\n"},
      {"corrupt", "<in> <out> <gamma0> [seed=2]",
       {{"--header", Kind::kSwitch}}, cmd_corrupt,
       "  flip data bits with probability gamma0 per bit; --header also\n"
       "  damages one structural keyword\n"},
      {"ingest", "<in> <out> [lambda=80] [upsilon=4]",
       rows({{{"--threads", Kind::kUnsigned, "N"}, kKernelFlag},
             kTelemetryFlags}),
       cmd_ingest,
       "  run the ingest layer (sanity + Algo_NGST) and write the repaired\n"
       "  baseline; output is identical for every --threads and --kernel\n"},
      {"info", "<in>", {}, cmd_info, "  print HDU headers and geometry\n"},
      {"psi", "<a> <b>", {}, cmd_psi,
       "  the paper's average relative error between two baselines\n"},
      {"pipeline", "",
       rows({{{"--side", Kind::kUnsigned, "N", 1},
              {"--frames", Kind::kUnsigned, "N", 3},
              {"--workers", Kind::kUnsigned, "N", 1},
              {"--fragment-side", Kind::kUnsigned, "N", 1},
              {"--gamma0", Kind::kDouble, "X", 0.0, 1.0},
              {"--crash", Kind::kDouble, "X", 0.0, 1.0},
              {"--link-loss", Kind::kDouble, "X", 0.0, 1.0},
              {"--lambda", Kind::kDouble, "X", 0.0, 100.0},
              {"--retries", Kind::kUnsigned, "N"},
              {"--seed", Kind::kUnsigned, "S"},
              {"--threads", Kind::kUnsigned, "N"},
              kKernelFlag,
              {"--control-budget-ms", Kind::kDouble, "X", kPositive}},
             kBackendFlags, kTelemetryFlags}),
       cmd_pipeline,
       "  ingest one baseline and run the distributed pipeline once under a\n"
       "  lively default fault model (the single-run form of campaign)\n"},
      {"campaign", "",
       rows({{only(kControl, {"--control", Kind::kMode}),
              only(kCompute, {"--compute", Kind::kMode}),
              only(kDownlink, {"--downlink", Kind::kMode}),
              only(kClassic | kControl | kDownlink,
                   {"--gamma0", Kind::kDouble, "a,b", 0.0, 1.0}),
              only(kClassic, {"--crash", Kind::kDouble, "a,b", 0.0, 1.0}),
              only(kClassic | kDownlink,
                   {"--link-loss", Kind::kDouble, "a,b", 0.0, 1.0}),
              only(kClassic | kControl | kDownlink,
                   {"--lambda", Kind::kDouble, "a,b", 0.0, 100.0}),
              only(kClassic | kDownlink, {"--trials", Kind::kUnsigned, "N", 1}),
              {"--seed", Kind::kUnsigned, "S"},
              only(kClassic | kControl | kDownlink,
                   {"--threads", Kind::kUnsigned, "N"}),
              only(kClassic, {"--retries", Kind::kUnsigned, "N"}),
              only(kClassic, {"--no-retries", Kind::kSwitch}),
              {"--out", Kind::kOutPath, "file"},
              {"--enforce", Kind::kSwitch},
              only(kControl, {"--phase-len", Kind::kUnsigned, "N", 1}),
              only(kControl, {"--shards", Kind::kUnsigned, "N", 1}),
              only(kControl, {"--shard-kill", Kind::kShardKill, "I@C"}),
              only(kControl,
                   {"--control-budget-ms", Kind::kDouble, "X", kPositive}),
              only(kCompute,
                   {"--fault-rates", Kind::kDouble, "a,b", 0.0, 1.0}),
              only(kCompute,
                   {"--shadow-rates", Kind::kDouble, "a,b", 0.0, 1.0}),
              only(kCompute, {"--requests", Kind::kUnsigned, "N", 1}),
              only(kDownlink,
                   {"--workloads", Kind::kChoice, "ngst,telemetry"}),
              only(kDownlink, {"--side", Kind::kUnsigned, "N", 1}),
              only(kDownlink, {"--frames", Kind::kUnsigned, "N", 3}),
              only(kDownlink, {"--tile-rows", Kind::kUnsigned, "N", 1})},
             kTelemetryFlags}),
       cmd_campaign,
       "  sweep a seeded fault grid over the distributed pipeline into --out\n"
       "  (default BENCH_campaign.json; BENCH_control.json under --control);\n"
       "  --control races the adaptive controller over drifting gamma0,\n"
       "  --compute sweeps compute faults x shadow rates, --downlink sweeps\n"
       "  fidelity with preprocessing on vs off; --enforce gates each claim\n"},
      {"downlink", "",
       rows({{{"--workload", Kind::kChoice, "ngst|telemetry"},
              {"--side", Kind::kUnsigned, "N", 1},
              {"--frames", Kind::kUnsigned, "N", 3},
              {"--tile-rows", Kind::kUnsigned, "N", 1},
              {"--lambda", Kind::kDouble, "X", 0.0, 100.0},
              {"--upsilon", Kind::kUnsigned, "N", 2},
              {"--gamma0", Kind::kDouble, "X", 0.0, 1.0},
              {"--link-loss", Kind::kDouble, "X", 0.0, 1.0},
              {"--no-preprocess", Kind::kSwitch},
              {"--seed", Kind::kUnsigned, "S"},
              {"--threads", Kind::kUnsigned, "N"},
              kKernelFlag,
              {"--out", Kind::kOutPath, "file"},
              {"--golden-out", Kind::kOutPath, "file"}},
             kBackendFlags}),
       cmd_downlink,
       "  fly the flight chain once (preprocess, rice, CRC/Hamming frames,\n"
       "  faulty link, deframe) and report fidelity vs the clean golden\n"},
      {"serve", "",
       rows({{{"--replay", Kind::kInPath, "file"},
              {"--requests", Kind::kUnsigned, "N", 1},
              {"--rate", Kind::kDouble, "X", kPositive},
              {"--otis-frac", Kind::kDouble, "X", 0.0, 1.0},
              {"--pipeline-frac", Kind::kDouble, "X", 0.0, 1.0},
              {"--deadline-ms", Kind::kDouble, "X"},
              {"--priorities", Kind::kUnsigned, "N", 1, INT_MAX},
              {"--seed", Kind::kUnsigned, "S"},
              {"--streams", Kind::kUnsigned, "N"},
              {"--capacity", Kind::kUnsigned, "N", 1},
              {"--threads", Kind::kUnsigned, "N", 1},
              {"--batch", Kind::kUnsigned, "N", 1},
              {"--linger-ms", Kind::kDouble, "X", 0.0},
              {"--admit-wait-ms", Kind::kDouble, "X", 0.0},
              {"--pace", Kind::kSwitch},
              {"--ingress-drop", Kind::kDouble, "X", 0.0, 1.0},
              {"--ingress-corrupt", Kind::kDouble, "X", 0.0, 1.0},
              {"--shards", Kind::kUnsigned, "N", 1},
              {"--shard-kill", Kind::kShardKill, "I@C"},
              {"--shard-crash", Kind::kDouble, "X", 0.0, 1.0},
              {"--shard-stall", Kind::kDouble, "X", 0.0, 1.0},
              {"--shard-slow", Kind::kDouble, "X", 0.0, 1.0},
              {"--results-out", Kind::kOutPath, "file"},
              {"--workload-out", Kind::kOutPath, "file"},
              {"--gen-only", Kind::kSwitch},
              kKernelFlag,
              {"--control", Kind::kSwitch},
              {"--control-out", Kind::kOutPath, "file"},
              {"--control-budget-ms", Kind::kDouble, "X", kPositive},
              {"--control-window", Kind::kUnsigned, "N", 1},
              {"--control-lag", Kind::kUnsigned, "N", 1}},
             kBackendFlags, kTelemetryFlags}),
       cmd_serve,
       "  run the preprocessing service over a replayed or generated\n"
       "  open-loop workload (--gen-only stops after --workload-out)\n"},
      {"check", "",
       {{"--seed", Kind::kUnsigned, "S"},
        {"--cases", Kind::kUnsigned, "N", 1},
        {"--threads", Kind::kUnsigned, "a,b,c", 1},
        kKernelFlag,
        {"--corpus-out", Kind::kOutPath, "file"},
        {"--replay", Kind::kInPath, "file"}},
       cmd_check,
       "  fuzz seeded cases (or --replay a corpus) against the golden oracles\n"
       "  at every (kernel, thread count); exits 1 on any divergence\n"},
      {"version", "", {}, cmd_version,
       "  print the tool version (also spacefts_cli --version)\n"},
      {"help", "[verb]", {}, cmd_help,
       "  print the global usage, or one verb's usage\n"},
  };
  return table;
}

const Verb* find_verb(const std::string& name) {
  for (const Verb& verb : verbs()) {
    if (name == verb.name) return &verb;
  }
  return nullptr;
}

/// Prints \p line followed by \p words, wrapping at 80 columns.
void print_wrapped(std::FILE* out, std::string line,
                   const std::vector<std::string>& words) {
  for (const auto& word : words) {
    if (line.size() + 1 + word.size() > 80) {
      std::fprintf(out, "%s\n", line.c_str());
      line.assign(15, ' ');
    }
    line += ' ' + word;
  }
  std::fprintf(out, "%s\n", line.c_str());
}

void print_synopsis(std::FILE* out, const Verb& verb) {
  std::vector<std::string> words;
  if (*verb.positionals != '\0') words.emplace_back(verb.positionals);
  for (const Flag& row : verb.flags) {
    std::string& word = words.emplace_back("[");
    word += row.name;
    if (*row.meta != '\0') word.append(" ").append(row.meta);
    word += ']';
  }
  print_wrapped(out, std::string("  spacefts_cli ") + verb.name, words);
}

void print_usage(std::FILE* out) {
  std::fputs("usage:\n", out);
  for (const Verb& verb : verbs()) print_synopsis(out, verb);
  std::fputs("exit codes: 0 ok, 1 failed, 2 usage error, 3 bad flag value;"
             " `help <verb>` describes one verb\n", out);
}

int usage() {
  print_usage(stderr);
  return kExitUsage;
}

int cmd_help(const Args& args) {
  if (args.positional.empty()) {
    print_usage(stdout);
    return 0;
  }
  const Verb* verb = find_verb(args.positional[0]);
  if (verb == nullptr) {
    std::fprintf(stderr, "spacefts_cli: help: unknown verb '%s'\n",
                 args.positional[0].c_str());
    return usage();
  }
  std::fputs("usage:\n", stdout);
  print_synopsis(stdout, *verb);
  std::fputs(verb->summary, stdout);
  if (verb->mode_names(kAnyMode, "").empty()) return 0;
  std::fputs("  mode-only flags (the others apply in every mode; a flag used"
             " outside\n  its mode exits 3):\n",
             stdout);
  for (unsigned mode = kClassic; mode < kAnyMode; mode <<= 1) {
    std::vector<std::string> names;
    for (const Flag& row : verb->flags) {
      if (row.kind != Kind::kMode && row.modes != kAnyMode &&
          (row.modes & mode) != 0) {
        names.emplace_back(row.name);
      }
    }
    const std::string label =
        mode == kClassic ? "default" : verb->mode_names(mode, "");
    print_wrapped(stdout, "    " + label + ":", names);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string name = argv[1];
  if (name == "--version") name = "version";
  if (name == "--help") name = "help";
  const Verb* verb = find_verb(name);
  if (verb == nullptr) {
    std::fprintf(stderr, "spacefts_cli: unknown verb '%s'\n", name.c_str());
    return usage();
  }
  try {
    Args args;
    if (const int rc = parse_args(*verb, argc, argv, args)) return rc;
    return verb->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitFailure;
  }
}
