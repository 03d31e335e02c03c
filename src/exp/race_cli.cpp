#include "exp/race_cli.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>

#include "collective/backend.hpp"
#include "io/grid_io.hpp"
#include "support/error.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {

namespace {

std::uint64_t parse_u64(const std::string& token, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw InvalidInput(std::string(what) + ": '" + token +
                       "' is not a non-negative integer");
  return v;
}

double parse_double(const std::string& token, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty())
    throw InvalidInput(std::string(what) + ": '" + token +
                       "' is not a number");
  return v;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// A gate tolerance: finite and >= 0.  NaN fails every comparison and inf
/// passes every one, so both would silently disable the gate they tune.
double parse_tolerance(const std::string& token, const char* what) {
  const double v = parse_double(token, what);
  if (!std::isfinite(v) || v < 0)
    throw InvalidInput(std::string(what) + " must be a finite number >= 0, "
                       "got '" + token + "'");
  return v;
}

/// The paper's seven heuristics — the race default when no --sched list is
/// given (`--sched=all` would pull in shape-gated and ablation entries,
/// which a hit-rate race must refuse, not skip).
std::vector<std::string> paper_sched_names() {
  std::vector<std::string> names;
  for (const auto& c : sched::paper_heuristics())
    names.emplace_back(c.name());
  return names;
}

}  // namespace

Bytes parse_size(const std::string& token) {
  std::size_t suffix = 0;
  while (suffix < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[suffix])) ||
          token[suffix] == '.'))
    ++suffix;
  const std::string num = token.substr(0, suffix);
  const std::string unit = lower(token.substr(suffix));
  if (num.empty())
    throw InvalidInput("size '" + token + "' has no numeric part");
  const double v = parse_double(num, "size");
  double scale = 1.0;
  if (unit == "k" || unit == "kib")
    scale = 1024.0;
  else if (unit == "m" || unit == "mib")
    scale = 1048576.0;
  else if (!unit.empty())
    throw InvalidInput("size '" + token +
                       "': unknown unit '" + unit + "' (use K/KiB/M/MiB)");
  const double bytes = v * scale;
  // >= 1 (not > 0): a sub-byte size like "0.5" would truncate to 0 and
  // only die much later on a message-size assertion.  The upper bound
  // keeps the cast to Bytes defined.
  if (!(bytes >= 1.0))
    throw InvalidInput("size '" + token + "' must be at least one byte");
  if (bytes > 9.0e18)
    throw InvalidInput("size '" + token + "' is out of range");
  return static_cast<Bytes>(bytes);
}

std::vector<std::size_t> parse_cluster_list(const std::string& value) {
  std::vector<std::size_t> counts;
  for (const auto& tok : split_csv(value)) {
    if (tok.empty())
      throw InvalidInput("--clusters: empty token in list '" + value + "'");
    const std::size_t dash = tok.find('-');
    if (dash == std::string::npos) {
      counts.push_back(
          static_cast<std::size_t>(parse_u64(tok, "--clusters")));
      continue;
    }
    const std::size_t colon = tok.find(':', dash);
    const std::uint64_t lo = parse_u64(tok.substr(0, dash), "--clusters");
    const std::uint64_t hi = parse_u64(
        tok.substr(dash + 1,
                   colon == std::string::npos ? std::string::npos
                                              : colon - dash - 1),
        "--clusters");
    const std::uint64_t step =
        colon == std::string::npos
            ? 1
            : parse_u64(tok.substr(colon + 1), "--clusters");
    if (step == 0)
      throw InvalidInput("--clusters: range '" + tok + "' has step 0");
    if (hi < lo)
      throw InvalidInput("--clusters: range '" + tok + "' is descending");
    // Iterate without `n += step` overflow: a range ending near 2^64
    // would otherwise wrap and loop forever.  The point cap bounds both
    // memory and the loop itself.
    for (std::uint64_t n = lo;; n += step) {
      if (counts.size() >= 100000)
        throw InvalidInput("--clusters: list '" + value +
                           "' expands to more than 100000 parameter points");
      counts.push_back(static_cast<std::size_t>(n));
      if (hi - n < step) break;
    }
  }
  return counts;
}

RaceCli parse_race_cli(const std::vector<std::string>& args) {
  RaceCli cli;
  std::vector<std::string> positionals;
  bool race_seen = false;
  bool sizes_seen = false;
  bool grid_seen = false;
  bool iters_seen = false;
  bool verb_seen = false;
  bool completion_seen = false;

  const auto value_of = [](const std::string& arg) {
    const std::size_t eq = arg.find('=');
    // Without this check a bare `--out` would wrap to substr(0) and
    // silently use the flag name itself as the value.
    if (eq == std::string::npos)
      throw InvalidInput("option '" + arg + "' needs a value: " + arg +
                         "=...");
    return arg.substr(eq + 1);
  };

  for (const auto& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    if (arg == "--race") {
      race_seen = true;
    } else if (arg == "--realise") {
      cli.race.realise = true;
    } else if (key == "--clusters") {
      cli.race.cluster_counts = parse_cluster_list(value_of(arg));
    } else if (key == "--iters") {
      iters_seen = true;
      cli.race.iterations = parse_u64(value_of(arg), "--iters");
      if (cli.race.iterations == 0)
        throw InvalidInput("--iters must be >= 1");
    } else if (arg == "--no-prune") {
      cli.spec.prune = false;
    } else if (key == "--check") {
      cli.action = RaceCli::Action::kCheck;
      cli.check_path = value_of(arg);
    } else if (key == "--baseline") {
      cli.baseline_path = value_of(arg);
    } else if (key == "--rtol") {
      cli.tolerances.makespan_rtol = parse_tolerance(value_of(arg), "--rtol");
    } else if (key == "--sched") {
      const std::string v = value_of(arg);
      if (lower(v) == "all") {
        cli.spec.sched_names.clear();  // empty = every registered entry
      } else {
        for (auto& name : split_csv(v)) {
          if (name.empty())
            throw InvalidInput("--sched: empty name in list '" + v + "'");
          cli.spec.sched_names.push_back(std::move(name));
        }
      }
    } else if (key == "--sizes") {
      sizes_seen = true;
      const std::string v = value_of(arg);
      if (lower(v) == "default") {
        cli.spec.sizes.clear();
      } else {
        for (const auto& tok : split_csv(v))
          cli.spec.sizes.push_back(parse_size(tok));
      }
    } else if (key == "--verb") {
      // to_verb throws the shared one-line "unknown verb" diagnostic.
      verb_seen = true;
      cli.spec.verb = collective::to_verb(value_of(arg));
    } else if (key == "--grid") {
      grid_seen = true;
      cli.grid_arg = value_of(arg);
    } else if (key == "--root") {
      constexpr ClusterId kMaxRoot = std::numeric_limits<ClusterId>::max();
      const std::uint64_t root = parse_u64(value_of(arg), "--root");
      if (root > kMaxRoot)
        throw InvalidInput("--root=" + std::to_string(root) +
                           " exceeds the largest cluster id (" +
                           std::to_string(kMaxRoot) + ")");
      cli.spec.root = static_cast<ClusterId>(root);
    } else if (key == "--backend") {
      // resolve() throws at parse time for typos, listing what is
      // registered, and stores the canonical name (so the registered
      // aliases "predicted"/"measured" land on "plogp"/"sim").
      cli.spec.backend = collective::backend_registry().resolve(value_of(arg));
    } else if (arg == "--list-backends") {
      cli.action = RaceCli::Action::kListBackends;
    } else if (key == "--completion") {
      completion_seen = true;
      const std::string v = lower(value_of(arg));
      if (v == "eager")
        cli.spec.completion = sched::CompletionModel::kEager;
      else if (v == "after-last-send")
        cli.spec.completion = sched::CompletionModel::kAfterLastSend;
      else
        throw InvalidInput(
            "--completion must be 'eager' or 'after-last-send', got '" +
            value_of(arg) + "'");
    } else if (key == "--jitter") {
      cli.spec.jitter = parse_double(value_of(arg), "--jitter");
      if (!std::isfinite(cli.spec.jitter) || cli.spec.jitter < 0)
        throw InvalidInput("--jitter must be a finite number >= 0 (the sim "
                           "backend takes [0, 0.5))");
    } else if (key == "--seed") {
      cli.spec.seed = parse_u64(value_of(arg), "--seed");
    } else if (key == "--threads") {
      // Each worker is an OS thread; past the cap a typo would exhaust
      // the process instead of being refused.
      constexpr std::uint64_t kMaxThreads = 1024;
      const std::uint64_t threads = parse_u64(value_of(arg), "--threads");
      if (threads > kMaxThreads)
        throw InvalidInput("--threads=" + std::to_string(threads) +
                           " exceeds the cap of " +
                           std::to_string(kMaxThreads) + " workers");
      cli.threads = static_cast<std::size_t>(threads);
    } else if (key == "--out") {
      cli.out_path = value_of(arg);
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      throw InvalidInput("unknown option '" + arg +
                         "' (gridcast_race --help lists the options)");
    } else {
      positionals.push_back(arg);
    }
  }

  if (race_seen) {
    if (cli.action != RaceCli::Action::kRun)
      throw InvalidInput(
          "--race cannot be combined with --check/--list-backends");
    if (sizes_seen)
      throw InvalidInput(
          "--sizes applies to sweep mode; the race draws 1 MB Table 2 "
          "instances (use --clusters to choose the parameter points)");
    if (grid_seen)
      throw InvalidInput(
          "--grid applies to sweep mode; the race samples its instances "
          "instead of deriving them from a grid");
    if (verb_seen)
      throw InvalidInput(
          "--verb applies to sweep mode; the Monte-Carlo race broadcasts "
          "by definition");
    cli.action = RaceCli::Action::kRace;
    cli.race.sched_names = cli.spec.sched_names;
    cli.race.seed = cli.spec.seed;
    cli.race.root = cli.spec.root;
    cli.race.backend = cli.spec.backend;
    cli.race.completion = cli.spec.completion;
    cli.race.jitter = cli.spec.jitter;
    cli.race.prune = cli.spec.prune;
    // Refuse an oversized (point x block) grid before anything allocates
    // it; run_race_grid repeats the check for library callers.
    (void)race_block_count(cli.race.cluster_counts.empty()
                               ? fig1_cluster_ladder().size()
                               : cli.race.cluster_counts.size(),
                           cli.race.iterations, cli.race.block_iters);
    if (!positionals.empty())
      throw InvalidInput("unexpected argument '" + positionals.front() +
                         "' (gridcast_race --help shows the usage)");
    return cli;
  }
  if (completion_seen && cli.spec.verb != collective::Verb::kBcast)
    throw InvalidInput(
        "--completion applies to broadcast sweeps; scatter/alltoall "
        "schedules are derived and timed with the eager model");
  if (!cli.race.cluster_counts.empty())
    throw InvalidInput("--clusters requires --race");
  if (iters_seen) throw InvalidInput("--iters requires --race");
  if (cli.race.realise) throw InvalidInput("--realise requires --race");

  switch (cli.action) {
    case RaceCli::Action::kCheck:
      if (cli.baseline_path.empty())
        throw InvalidInput("--check needs --baseline=<baseline.json>");
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "'");
      break;
    case RaceCli::Action::kRun:
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "' (gridcast_race --help shows the usage)");
      break;
    case RaceCli::Action::kRace:
      break;  // validated and returned above
    case RaceCli::Action::kListBackends:
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "'");
      break;
  }
  return cli;
}

namespace {

topology::Grid load_grid(const std::string& grid_arg,
                         std::string& grid_name) {
  if (lower(grid_arg) == "grid5000") {
    grid_name = "grid5000_testbed";
    return topology::grid5000_testbed();
  }
  std::ifstream in(grid_arg);
  if (!in)
    throw InvalidInput("cannot open grid file '" + grid_arg +
                       "' (use --grid=grid5000 for the built-in testbed)");
  grid_name = grid_arg;
  return io::read_grid(in);
}

io::BenchReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  return io::read_bench_json(in);
}

void write_report(const io::BenchReport& r, const std::string& path,
                  std::ostream& fallback) {
  if (path.empty()) {
    io::write_bench_json(fallback, r);
    return;
  }
  std::ofstream out(path);
  if (!out) throw InvalidInput("cannot open '" + path + "' for writing");
  io::write_bench_json(out, r);
}

}  // namespace

int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err) {
  switch (cli.action) {
    case RaceCli::Action::kRun: {
      std::string grid_name;
      const topology::Grid grid = load_grid(cli.grid_arg, grid_name);
      RaceSpec spec = cli.spec;
      if (spec.sched_names.empty())
        spec.sched_names = sched::registry().names();
      InstanceCache cache(grid);
      ThreadPool pool(cli.threads);
      std::vector<std::string> skipped;
      const io::BenchReport report =
          run_race_sweep(cache, grid_name, spec, pool, &skipped);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " sizes (backend " << spec.backend;
      if (spec.verb != collective::Verb::kBcast)
        err << ", verb " << collective::verb_name(spec.verb);
      err << ", " << report.mode << ", " << cache.misses()
          << " instances derived)";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      if (!skipped.empty()) {
        err << "skipped (can_schedule refused this grid):";
        for (const auto& name : skipped) err << " " << name;
        err << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kRace: {
      RaceGridSpec spec = cli.race;
      if (spec.sched_names.empty()) spec.sched_names = paper_sched_names();
      ThreadPool pool(cli.threads);
      const io::BenchReport report = run_race_grid(spec, pool);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " cluster counts (" << report.iterations
          << " iterations/point, backend " << spec.backend << ", "
          << report.mode << (spec.realise ? ", realised grids" : "") << ")";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      return 0;
    }
    case RaceCli::Action::kListBackends: {
      auto& reg = collective::backend_registry();
      for (const auto& name : reg.names()) {
        out << name;
        const auto aliases = reg.aliases_of(name);
        if (!aliases.empty()) {
          out << " (aliases:";
          for (const auto& a : aliases) out << " " << a;
          out << ")";
        }
        out << " - " << reg.description_of(name) << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kCheck: {
      const io::BenchReport baseline = read_report_file(cli.baseline_path);
      const io::BenchReport current = read_report_file(cli.check_path);
      const std::vector<std::string> problems =
          io::compare_bench(baseline, current, cli.tolerances);
      for (const auto& p : problems) err << "REGRESSION: " << p << "\n";
      if (problems.empty()) {
        err << "baseline gate OK: " << current.series.size() << " series x "
            << current.sizes.size()
            << (current.is_montecarlo() ? " cluster counts" : " sizes")
            << " within tolerance of " << cli.baseline_path << "\n";
        return 0;
      }
      err << problems.size() << " regression(s) against " << cli.baseline_path
          << "\n";
      return 1;
    }
  }
  return 2;  // unreachable
}

std::string race_cli_usage() {
  return
      "usage:\n"
      "  gridcast_race [--sched=a,b,c|all] [--backend=plogp|sim]\n"
      "                [--verb=bcast|scatter|alltoall]\n"
      "                [--grid=grid5000|<file>] [--root=N]\n"
      "                [--sizes=default|256K,1M,...] [--completion=eager|"
      "after-last-send]\n"
      "                [--jitter=F] [--seed=N] [--threads=N] [--no-prune]\n"
      "                [--out=FILE]\n"
      "  gridcast_race --race [--sched=a,b,c] [--backend=plogp|sim]\n"
      "                [--clusters=2-10|5-50:5|3,7,9] [--iters=N] "
      "[--realise]\n"
      "                [--root=N] [--completion=...] [--jitter=F] "
      "[--seed=N]\n"
      "                [--threads=N] [--no-prune] [--out=FILE]\n"
      "  gridcast_race --check=current.json --baseline=baseline.json\n"
      "                [--rtol=1e-6]\n"
      "  gridcast_race --list-backends\n"
      "(--race runs the Figs. 1-4 Monte-Carlo races over random Table 2\n"
      " instances; grid-executing backends need --realise.  --verb races\n"
      " the two-level scatter/alltoall instead of the broadcast: sizes are\n"
      " then per-rank (scatter) / per-rank-pair (alltoall) blocks.  Any\n"
      " --threads value produces byte-identical reports.\n"
      " --no-prune disables lower-bound pruning in the 'auto' selector —\n"
      " a pure optimisation, so reports are byte-identical either way.)\n";
}

}  // namespace gridcast::exp
