// The CLI's help surface is part of its scriptable contract: `help` must
// list every verb (version included), and every verb that executes
// preprocessing compute must document its --kernel and --backend flags the
// same way.  These tests drive the real binary (path injected by CMake) so
// the assertion covers what users actually see.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef SPACEFTS_CLI_PATH
#error "SPACEFTS_CLI_PATH must point at the spacefts_cli binary"
#endif

namespace {

/// Runs `spacefts_cli <args>` and captures stdout (help goes to stdout on
/// the explicit `help` verb).
std::string cli_stdout(const std::string& args) {
  const std::string command = std::string(SPACEFTS_CLI_PATH) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return {};
  std::string out;
  std::array<char, 4096> chunk{};
  std::size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    out.append(chunk.data(), n);
  }
  pclose(pipe);
  return out;
}

/// Every verb the CLI dispatches.  A new verb must appear here and in the
/// help table — this list is the test's single point of maintenance.
constexpr const char* kVerbs[] = {"gen",      "corrupt", "ingest", "info",
                                  "psi",      "pipeline", "campaign", "downlink",
                                  "serve",    "check",   "version", "help"};

TEST(CliHelp, GlobalUsageListsEveryVerb) {
  const std::string help = cli_stdout("help");
  ASSERT_FALSE(help.empty());
  for (const char* verb : kVerbs) {
    EXPECT_NE(help.find(std::string("spacefts_cli ") + verb),
              std::string::npos)
        << "verb '" << verb << "' missing from global help";
  }
}

TEST(CliHelp, PerVerbHelpIsConsistentForComputeFlags) {
  // The verbs that execute the preprocessing kernels document --kernel...
  for (const char* verb : {"ingest", "pipeline", "serve", "check"}) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    EXPECT_NE(help.find("--kernel"), std::string::npos)
        << "'" << verb << "' help does not document --kernel";
  }
  // ...and the ones that can run on a pluggable substrate document the
  // backend family the same way.
  for (const char* verb : {"pipeline", "serve", "downlink"}) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    EXPECT_NE(help.find("--backend cpu|unreliable|shadowed"),
              std::string::npos)
        << "'" << verb << "' help does not document --backend";
    EXPECT_NE(help.find("--compute-fault-rate"), std::string::npos)
        << "'" << verb << "' help does not document --compute-fault-rate";
    EXPECT_NE(help.find("--shadow-rate"), std::string::npos)
        << "'" << verb << "' help does not document --shadow-rate";
    EXPECT_NE(help.find("--backend-log"), std::string::npos)
        << "'" << verb << "' help does not document --backend-log";
  }
  // The campaign's compute sweep rides the same subsystem.
  const std::string campaign = cli_stdout("help campaign");
  EXPECT_NE(campaign.find("--compute"), std::string::npos);
  EXPECT_NE(campaign.find("--shadow-rates"), std::string::npos);
  // The downlink sweep and verb document the end-to-end axes.
  EXPECT_NE(campaign.find("--downlink"), std::string::npos);
  const std::string downlink = cli_stdout("help downlink");
  EXPECT_NE(downlink.find("--link-loss"), std::string::npos);
  EXPECT_NE(downlink.find("--no-preprocess"), std::string::npos);
  EXPECT_NE(downlink.find("--workload"), std::string::npos);
}

/// Runs the CLI with stdout/stderr silenced and returns its exit status.
int cli_exit_code(const std::string& args) {
  const std::string command =
      std::string(SPACEFTS_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliFlags, NonFiniteDoubleValuesExitThree) {
  // inf/nan parse as doubles but are never meaningful flag values; each
  // double-valued flag must refuse them with the bad-flag exit code.
  const char* kDoubleFlags[][2] = {
      {"downlink", "--gamma0"},
      {"downlink", "--link-loss"},
      {"downlink", "--lambda"},
      {"serve --requests 1", "--otis-frac"},
      {"serve --requests 1", "--ingress-corrupt"},
      {"pipeline", "--lambda"},
  };
  for (const auto& [verb, flag] : kDoubleFlags) {
    for (const char* value : {"inf", "-inf", "nan"}) {
      const std::string args =
          std::string(verb) + " " + flag + " " + value;
      EXPECT_EQ(cli_exit_code(args), 3) << args;
    }
  }
}

TEST(CliHelp, EveryFlagInHelpIsRecognisedByItsVerb) {
  // Help and parsing must not drift: every "[--flag ...]" that `help <verb>`
  // shows is accepted by that verb.  A valued flag is given no value and a
  // switch is followed by an unknown flag, so each command stops at a
  // bad-flag error (exit 3) before running anything; that error must not be
  // about the flag under test.
  for (const char* verb : kVerbs) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    for (std::size_t at = help.find("[--"); at != std::string::npos;
         at = help.find("[--", at + 1)) {
      const std::size_t end = help.find_first_of(" ]", at);
      ASSERT_NE(end, std::string::npos) << help;
      const std::string flag = help.substr(at + 1, end - at - 1);
      const bool is_switch = help[end] == ']';
      const std::string args = std::string(verb) + " " + flag +
                               (is_switch ? " --no-such-flag" : "");
      const std::string errors = cli_stdout(args + " 2>&1");
      EXPECT_EQ(errors.find(flag + ": unknown flag"), std::string::npos)
          << args << ": " << errors;
      EXPECT_EQ(cli_exit_code(args), 3) << args;
    }
  }
}

TEST(CliHelp, EveryVerbHasPerVerbHelp) {
  for (const char* verb : kVerbs) {
    const std::string help = cli_stdout(std::string("help ") + verb);
    EXPECT_NE(help.find(verb), std::string::npos)
        << "no per-verb help for '" << verb << "'";
  }
}

}  // namespace
