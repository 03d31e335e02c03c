#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/montecarlo.hpp"
#include "exp/sweep.hpp"
#include "io/bench_json.hpp"

/// The `gridcast_race` command line: argument parsing, dispatch, usage.
///
/// The engines it drives live in their own modules: the Monte-Carlo race
/// (`--race`, the Figs. 1-4 experiment) in exp/montecarlo.hpp, the
/// message-size sweep (the Figs. 5/6 experiment, any registered backend
/// and verb) in exp/sweep.hpp.  Everything is library code — the tool is a
/// thin `main` — so parsing, dispatch and the baseline gate are
/// unit-testable.
namespace gridcast::exp {

/// One parsed `gridcast_race` invocation.
struct RaceCli {
  enum class Action : std::uint8_t { kRun, kRace, kCheck, kListBackends };
  Action action = Action::kRun;

  // kRun
  RaceSpec spec;
  std::string grid_arg = "grid5000";  ///< "grid5000" or a grid-file path
  std::size_t threads = 0;            ///< 0 = inline
  std::string out_path;               ///< empty = stdout

  // kRace (`--race`): empty sched_names = the paper's seven heuristics
  RaceGridSpec race;

  // kCheck
  std::string check_path;
  std::string baseline_path;
  io::BenchCompareOptions tolerances;
};

/// Parse argv (without the program name).  Throws InvalidInput on unknown
/// flags, malformed values, or inconsistent combinations (e.g. sweep-only
/// flags like `--sizes`/`--grid` with `--race`); the message is one line,
/// ready for stderr.
[[nodiscard]] RaceCli parse_race_cli(const std::vector<std::string>& args);

/// Parse a `--clusters` list: comma-separated tokens, each a count ("8"),
/// an inclusive range ("5-50", step 1) or a stepped range ("5-50:5").
[[nodiscard]] std::vector<std::size_t> parse_cluster_list(
    const std::string& value);

/// Parse a size token: plain bytes ("262144") or a K/KiB/M/MiB-suffixed
/// decimal ("256K", "4.25MiB", case-insensitive).
[[nodiscard]] Bytes parse_size(const std::string& token);

/// Execute a parsed invocation end to end (grid loading, racing, or the
/// baseline gate).  Reports go to `out_path` or `out`; diagnostics
/// go to `err`.  Returns the process exit code (non-zero when the check
/// action finds regressions).
int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err);

/// CLI usage text.
[[nodiscard]] std::string race_cli_usage();

}  // namespace gridcast::exp
