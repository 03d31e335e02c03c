#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

/// Machine-readable benchmark reports (BENCH_sweep.json and friends).
///
/// One grammar serves every producer and consumer: the `gridcast_race`
/// CLI and the CI regression gate both traffic in a `BenchReport`.
/// Writing is deterministic — 17 significant digits, fixed key order — so
/// any thread count produces the same bytes, and a re-serialised parse is
/// byte-identical to its source.  Scheduler names pass through
/// `json_escape`, so a registered name containing a quote or backslash
/// cannot corrupt the output.
namespace gridcast::io {

/// One strategy's row: makespan per axis point.  NaN marks an uncomputed
/// cell (written as `null`).
///
/// Monte-Carlo race reports (`bench == "montecarlo"`) put the per-point
/// *mean* completion in `makespan_s` and the per-point hit counts
/// (iterations where the series matched the global minimum; ties credit
/// every achiever) in `hits`.
struct BenchSeries {
  std::string name;
  std::vector<double> makespan_s;
  std::vector<double> hits;        ///< per point; empty = not tracked
};

/// A full report: the sweep axis, per-series results, and enough metadata
/// (grid, mode, root, seed/jitter) to refuse apples-to-oranges
/// comparisons.
///
/// Two report kinds share the grammar.  Message-size sweeps
/// (`bench == "race"`) put the byte ladder in `sizes`, serialised under the
/// JSON key "sizes".  Monte-Carlo races (`bench == "montecarlo"`, the
/// Figs. 1-4 experiment) put the *cluster counts* in the same axis vector,
/// serialised under the key "clusters", and additionally record the
/// Monte-Carlo depth per point (`iterations`).  Every value is
/// deterministic: no report carries a host-clock reading.
struct BenchReport {
  /// "race" (size sweep) | "montecarlo"
  std::string bench = "race";
  std::string grid;
  std::string mode = "predicted";  ///< "predicted" | "measured"
  /// The collective the sweep raced: "bcast" | "scatter" | "alltoall"
  /// (canonical `collective::verb_name` spellings).  Serialised only when
  /// not "bcast", so default-verb reports stay byte-identical to the
  /// pre-verb-axis grammar; Monte-Carlo races are broadcast by definition
  /// and may not carry the key.
  std::string verb = "bcast";
  ClusterId root = 0;
  std::uint64_t seed = 0;          ///< measured sweeps + all montecarlo runs
  double jitter = 0.0;             ///< measured mode only (else ignored)
  std::uint64_t iterations = 0;    ///< montecarlo only: draws per point
  std::vector<Bytes> sizes;        ///< byte ladder or cluster counts
  std::vector<BenchSeries> series;

  [[nodiscard]] const BenchSeries* find_series(std::string_view name) const;

  /// Monte-Carlo race report (cluster-count axis, hits, iterations)?
  [[nodiscard]] bool is_montecarlo() const noexcept {
    return bench == "montecarlo";
  }
};

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; UTF-8 passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serialise deterministically (17 significant digits, NaN → null, seed
/// in measured and Monte-Carlo reports, jitter in measured ones only).
void write_bench_json(std::ostream& os, const BenchReport& r);
[[nodiscard]] std::string bench_to_json(const BenchReport& r);

/// Parse a report written by `write_bench_json` (strict: malformed JSON,
/// unknown top-level or series keys, type mismatches, or a report the
/// writer's grammar refuses throw InvalidInput).
[[nodiscard]] BenchReport read_bench_json(std::istream& is);
[[nodiscard]] BenchReport bench_from_json(const std::string& text);

/// Tolerances for the CI regression gate.
struct BenchCompareOptions {
  /// Relative tolerance on per-cell makespan drift (the model is
  /// deterministic; this only absorbs cross-platform float noise).
  double makespan_rtol = 1e-6;
};

/// Compare `current` against `baseline`; returns one human-readable
/// problem per violation (empty = gate passes).  Violations: metadata or
/// axis mismatch, missing/extra series,
/// uncomputed (NaN) cells, makespan drift past `makespan_rtol`, hit-count
/// drift (exact: hits are deterministic integers).
[[nodiscard]] std::vector<std::string> compare_bench(
    const BenchReport& baseline, const BenchReport& current,
    const BenchCompareOptions& opts = {});

}  // namespace gridcast::io
