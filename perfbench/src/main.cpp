// gridcast_perfbench: the repository's benchmark.
//
//   gridcast_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// replays the same inputs one layer call at a time under spans and
// reports the per-layer metrics.  Either way the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.  With
// --out-dir, the traced run writes its spans there as CSV.  Workloads are
// described in perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "replay.hpp"
#include "sched/auto_scheduler.hpp"
#include "sched/evaluate.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0))
    throw std::invalid_argument(
        "usage: gridcast_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--out-dir DIR]");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted values.
double rank_percentile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// The highest of a fixed list of percentiles that leaves at least ten
/// samples beyond it (50 when none does).
double tail_percentile(std::size_t samples) {
  for (const double q : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(samples)));
    if (samples >= rank + 10) return q;
  }
  return 50.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Operations attempted and failed (threw or failed a correctness check).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(std::uint64_t ops, bool ok) {
    attempted += ops;
    if (!ok) failed += ops;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// One measured activity of a run, repeated in steps.
struct Phase {
  double share;          ///< target fraction of the run's time
  std::size_t min_reps;  ///< steps it must get whatever the budget
  std::function<void()> step;
  std::vector<double> walls = {};  ///< wall time of each step
  double elapsed = 0.0;
};

/// Run the phases' steps interleaved until `budget_s` has passed and each
/// phase has had its minimum number of steps.  The next step always goes
/// to the phase furthest below its time share, so every phase samples the
/// whole run and a slow spell of the machine falls on all of them alike.
void interleave(double budget_s, std::vector<Phase*> phases) {
  const auto start = Clock::now();
  for (;;) {
    const bool over = seconds_since(start) >= budget_s;
    Phase* next = nullptr;
    for (Phase* p : phases) {
      if (over && p->walls.size() >= p->min_reps) continue;
      if (next == nullptr ||
          p->elapsed / p->share < next->elapsed / next->share)
        next = p;
    }
    if (next == nullptr) return;
    const auto t0 = Clock::now();
    next->step();
    next->walls.push_back(seconds_since(t0));
    next->elapsed += next->walls.back();
  }
}

/// The 10th-percentile time of repeats of the same work.  On a shared host
/// the CPU a call runs on is slowed by its neighbours for seconds at a
/// time (by up to 1.6x on the fig1_small selection calls), and a parallel
/// pass waits for its most contended worker; the fast tail is the
/// program's own cost and moves far less from run to run than the median.
double fast_wall(std::vector<double> walls) {
  std::sort(walls.begin(), walls.end());
  return rank_percentile(walls, 10.0);
}

std::size_t pool_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::min<std::size_t>(hc == 0 ? 1 : hc, 4);
}

/// One engine pass, checked byte for byte against `reference` (empty =
/// this pass becomes the reference).
void engine_pass(const Inputs& in, ThreadPool& pool, std::string& reference,
                 Tally& tally, EngineRun* keep = nullptr) {
  EngineRun run;
  bool ok = true;
  try {
    run = run_engine(in, pool);
  } catch (const std::exception& e) {
    std::cerr << "engine pass threw: " << e.what() << '\n';
    ok = false;
  }
  if (ok && reference.empty()) reference = run.json;
  ok = ok && run.json == reference;
  tally.add(std::max<std::uint64_t>(run.schedules, 1), ok);
  if (keep != nullptr) *keep = std::move(run);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

/// The makespan of the best candidate "auto" may choose from, computed
/// candidate by candidate outside the selector.
Time best_candidate(const sched::AutoScheduler& selector,
                    const sched::Instance& inst) {
  Time best = std::numeric_limits<Time>::infinity();
  const sched::SchedulerRuntimeInfo info(inst, 0, selector.options().completion);
  for (const auto name : selector.candidate_names()) {
    const sched::Scheduler cand(name, selector.options());
    if (!cand.entry().can_schedule(info)) continue;
    best = std::min(best, sched::evaluate_order(inst, cand.order(info),
                                                info.completion())
                              .makespan);
  }
  return best;
}

int run_end_to_end(const WorkloadDef& def, const Args& args) {
  Tally tally;
  const auto t_setup = Clock::now();
  const std::unique_ptr<Inputs> in = make_inputs(def, args.seed);
  std::vector<double> setup_s = {seconds_since(t_setup)};

  ThreadPool serial(0);
  ThreadPool parallel(pool_workers());
  std::string reference;
  EngineRun first;
  engine_pass(*in, serial, reference, tally, &first);  // warm-up
  const double per_pass = static_cast<double>(first.schedules);
  // Peak memory of set-up and one pass, taken before any parallel pass:
  // how much the worker threads' malloc arenas hold depends on how their
  // chunks happened to overlap in time.
  const double rss_mb = peak_rss_mb();

  // Selection latency: Scheduler("auto").run(inst) over the instance set,
  // single thread.  Each instance's latency is the fast tail of its calls.
  const sched::Scheduler& selector = in->comps[in->auto_index];
  const auto& set = in->select_set;
  std::vector<std::vector<double>> calls(set.size());
  std::vector<Time> made(set.size(), std::numeric_limits<Time>::quiet_NaN());
  std::vector<bool> consistent(set.size(), true);

  Phase setup{0.03, 10, [&] {
                const auto t0 = Clock::now();
                (void)make_inputs(def, args.seed);
                setup_s.push_back(seconds_since(t0));
              }};
  Phase serial_passes{0.37, 3,
                      [&] { engine_pass(*in, serial, reference, tally); }};
  Phase parallel_passes{0.30, 3,
                        [&] { engine_pass(*in, parallel, reference, tally); }};
  // One round over the set per step, so every instance's calls spread
  // over the whole run.
  Phase select{0.30, 3, [&] {
                 for (std::size_t i = 0; i < set.size(); ++i) {
                   const auto t0 = Clock::now();
                   try {
                     const Time mk = selector.run(set[i]).makespan;
                     if (std::isnan(made[i])) made[i] = mk;
                     if (mk != made[i]) consistent[i] = false;
                   } catch (const std::exception& e) {
                     std::cerr << "selection threw: " << e.what() << '\n';
                     consistent[i] = false;
                   }
                   calls[i].push_back(seconds_since(t0));
                 }
               }};
  interleave(args.seconds, {&setup, &serial_passes, &parallel_passes, &select});

  const auto* autos =
      dynamic_cast<const sched::AutoScheduler*>(&selector.entry());
  std::vector<double> latency;
  for (std::size_t i = 0; i < set.size(); ++i) {
    bool ok = autos != nullptr && consistent[i];
    try {
      ok = ok && made[i] == best_candidate(*autos, set[i]);
    } catch (const std::exception& e) {
      std::cerr << "candidate check threw: " << e.what() << '\n';
      ok = false;
    }
    tally.add(calls[i].size(), ok);
    latency.push_back(fast_wall(calls[i]));
  }
  std::sort(latency.begin(), latency.end());
  const double tail_q = tail_percentile(latency.size());

  std::vector<double> serial_rate;
  for (const double w : serial_passes.walls) serial_rate.push_back(per_pass / w);

  std::cout << "workload " << def.name << " seed " << args.seed << ": "
            << per_pass << " schedules per pass, " << serial_rate.size()
            << " serial and " << parallel_passes.walls.size()
            << " parallel passes ("
            << parallel.worker_count() << " workers), " << setup_s.size()
            << " setups\n"
            << "select: " << latency.size() << " instances, "
            << select.walls.size() << " rounds; p50 and p" << tail_q
            << " (the highest percentile with >= 10 instances beyond it) of "
               "per-instance 10th-percentile latency\n"
            << "failed_ratio " << tally.failed << "/" << tally.attempted
            << "\n";
  print_result(tally,
               {{"schedules_per_s", median(serial_rate), "1/s"},
                {"schedules_per_s_par",
                 per_pass / fast_wall(parallel_passes.walls), "1/s"},
                {"select_p50_s", rank_percentile(latency, 50.0), "s"},
                {"select_tail_s", rank_percentile(latency, tail_q), "s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

int run_traced(const WorkloadDef& def, const Args& args) {
  constexpr std::size_t kKeptSpans = 200000;
  const double s = args.seconds;
  Tally tally;

  const std::unique_ptr<Inputs> in = make_inputs(def, args.seed);
  ThreadPool serial(0);
  ThreadPool parallel(pool_workers());
  std::string reference;
  EngineRun ref;
  engine_pass(*in, serial, reference, tally, &ref);  // warm-up + reference
  const double per_pass = static_cast<double>(ref.schedules);

  // The traced replay, checked cell by cell against the untraced report,
  // interleaved with untraced passes so the overhead compares like with
  // like.
  Tracer tr(kKeptSpans);
  ReplayCounts counts;
  Phase serial_passes{0.25, 2,
                      [&] { engine_pass(*in, serial, reference, tally); }};
  Phase parallel_passes{0.20, 2,
                        [&] { engine_pass(*in, parallel, reference, tally); }};
  Phase replays{0.25, 1, [&] {
                  ReplayCounts c;
                  bool ok = true;
                  try {
                    c = replay(*in, ref.reports, tr);
                  } catch (const std::exception& e) {
                    std::cerr << "replay threw: " << e.what() << '\n';
                    ok = false;
                  }
                  ok = ok && c.mismatched == 0 && c.schedules == per_pass;
                  tally.add(static_cast<std::uint64_t>(per_pass), ok);
                  counts = c;
                }};
  interleave(0.70 * s, {&serial_passes, &parallel_passes, &replays});
  const double serial_wall = median(serial_passes.walls);
  const std::vector<double>& replay_walls = replays.walls;
  double traced_wall = 0.0;
  for (const double w : replay_walls) traced_wall += w;
  const double reps = static_cast<double>(replay_walls.size());

  // io: serialise and parse the engine's reports.
  std::vector<double> write_s, parse_s;
  std::size_t bytes = 0;
  Phase io{1.0, 5, [&] {
             auto t0 = Clock::now();
             std::vector<std::string> texts;
             for (const auto& r : ref.reports)
               texts.push_back(io::bench_to_json(r));
             write_s.push_back(seconds_since(t0));
             t0 = Clock::now();
             std::vector<io::BenchReport> parsed;
             for (const auto& t : texts) parsed.push_back(io::bench_from_json(t));
             parse_s.push_back(seconds_since(t0));
             std::string again;
             bytes = 0;
             for (std::size_t k = 0; k < parsed.size(); ++k) {
               bytes += texts[k].size();
               again += io::bench_to_json(parsed[k]);
             }
             tally.add(1, again == reference);
           }};
  interleave(0.02 * s, {&io});

  const auto ladder = order_ladder(args.seed);

  // Busy-time share per cluster count.
  const auto& groups = tr.group_self();
  double busy = 0.0;
  for (const auto& [n, v] : groups) busy += v;
  const double top_share =
      groups.empty() ? 0.0 : groups.rbegin()->second / busy;

  const auto self = [&](const char* name) {
    return tr.self_s(name) / reps;
  };
  const double sim_busy =
      self("sim.bcast") + self("sim.scatter") + self("sim.alltoall");
  const double untraced_rate = per_pass / serial_wall;
  const double traced_rate = per_pass / median(replay_walls);
  const double workers = static_cast<double>(parallel.worker_count());
  const double probed =
      static_cast<double>(counts.auto_evaluated + counts.auto_pruned);

  std::cout << "workload " << def.name << " seed " << args.seed << ": "
            << serial_passes.walls.size() << " serial and "
            << parallel_passes.walls.size() << " parallel passes ("
            << parallel.worker_count() << " workers), "
            << replay_walls.size() << " traced replays, " << tr.spans()
            << " spans, " << counts.auto_proposals
            << " auto proposals per replay\nbusy share by cluster count:";
  for (const auto& [n, v] : groups) std::cout << " n" << n << "=" << v / busy;
  std::cout << "\n";
  if (!args.out_dir.empty()) {
    std::ofstream f(args.out_dir + "/trace_" + std::string(def.name) + "_" +
                    std::to_string(args.seed) + ".csv");
    tr.write_csv(f);
  }

  std::vector<Metric> m = {
      {"failed_ratio",
       static_cast<double>(tally.failed) / static_cast<double>(tally.attempted),
       "ratio"},
      {"trace.coverage", tr.self_total() / traced_wall, "ratio"},
      {"trace.overhead", 1.0 - traced_rate / untraced_rate, "ratio"},
      {"trace.schedules_per_s", traced_rate, "1/s"},
      {"trace.untraced_schedules_per_s", untraced_rate, "1/s"},
      {"exp.pool.idle_ratio",
       1.0 - fast_wall(serial_passes.walls) /
                 (workers * fast_wall(parallel_passes.walls)),
       "ratio"},
      {"exp.busy_share.largest_n", top_share, "ratio"},
      {"exp.race.busy_s", self("exp.race.draw"), "s"},
      {"exp.sweep.busy_s", self("exp.sweep") + self("exp.sweep.cell"), "s"},
      {"exp.sample.busy_s", self("exp.sample"), "s"},
      {"exp.instance_cache.busy_s", self("exp.instance_cache"), "s"},
      {"exp.instance_cache.hit_ratio",
       counts.cache_lookups == 0
           ? 0.0
           : static_cast<double>(counts.cache_hits) /
                 static_cast<double>(counts.cache_lookups),
       "ratio"},
      {"sched.order.busy_s", self("sched.order"), "s"},
      {"sched.evaluate.calls", static_cast<double>(counts.evaluate_calls),
       "count"},
      {"sched.evaluate.busy_s", self("sched.evaluate"), "s"},
      {"sched.derive.calls", static_cast<double>(counts.derive_calls), "count"},
      {"sched.derive.busy_s", self("sched.derive"), "s"},
      {"sched.auto.evaluated", static_cast<double>(counts.auto_evaluated),
       "count"},
      {"sched.auto.pruned", static_cast<double>(counts.auto_pruned), "count"},
      {"sched.auto.gated", static_cast<double>(counts.auto_gated), "count"},
      {"sched.auto.prune_ratio",
       probed == 0.0 ? 0.0 : static_cast<double>(counts.auto_pruned) / probed,
       "ratio"},
      {"plogp.bcast.busy_s", self("plogp.bcast"), "s"},
      {"plogp.scatter.busy_s", self("plogp.scatter"), "s"},
      {"plogp.alltoall.busy_s", self("plogp.alltoall"), "s"},
      {"sim.bcast.busy_s", self("sim.bcast"), "s"},
      {"sim.scatter.busy_s", self("sim.scatter"), "s"},
      {"sim.alltoall.busy_s", self("sim.alltoall"), "s"},
      {"sim.messages", static_cast<double>(counts.sim_messages), "count"},
      {"sim.wan_messages", static_cast<double>(counts.sim_wan_messages),
       "count"},
      {"sim.bytes", static_cast<double>(counts.sim_bytes), "B"},
      {"sim.messages_per_s",
       sim_busy == 0.0 ? 0.0
                       : static_cast<double>(counts.sim_messages) / sim_busy,
       "1/s"},
      {"io.bench_json.write_s", median(write_s), "s"},
      {"io.bench_json.parse_s", median(parse_s), "s"},
      {"io.bench_json.bytes", static_cast<double>(bytes), "B"},
  };
  for (const auto& [key, seconds] : ladder)
    m.push_back({"sched.order.s." + key, seconds, "s"});
  print_result(tally, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadDef* def = find_workload(args.workload);
    if (def == nullptr) {
      std::cerr << "unknown workload '" << args.workload << "'\n";
      return 2;
    }
    return args.trace ? run_traced(*def, args) : run_end_to_end(*def, args);
  } catch (const std::exception& e) {
    std::cerr << "gridcast_perfbench: " << e.what() << '\n';
    return 1;
  }
}
