#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

/// Machine-readable benchmark reports (BENCH_sweep.json and friends).
///
/// One grammar serves every producer and consumer: the `gridcast_race`
/// CLI, shard merging, and the CI regression gate all traffic in a
/// `BenchReport`.  Writing is deterministic — 17 significant
/// digits, fixed key order — so a merged set of shard reports is
/// byte-identical to the equivalent single-process run, and a re-serialised
/// parse is byte-identical to its source.  Scheduler names pass through
/// `json_escape`, so a registered name containing a quote or backslash
/// cannot corrupt the output.
namespace gridcast::io {

/// One strategy's row: makespan per sweep size.  NaN marks "absent": a
/// sharded run leaves foreign cells NaN (written as `null`).
///
/// Monte-Carlo race reports (`bench == "montecarlo"`) carry two more
/// shapes of data.  Final reports put the per-point *mean* completion in
/// `makespan_s` and the per-point hit counts (iterations where the series
/// matched the global minimum; ties credit every achiever) in `hits`.
/// Shard-form reports instead carry per-(point, iteration-block) partial
/// sums in `block_sum_s` / `block_hits`, with NaN marking blocks the shard
/// does not own — merging folds blocks in block order, so the merged means
/// are byte-identical to an unsharded run.  Exactly one of `makespan_s`
/// and `block_sum_s` is present per series.
struct BenchSeries {
  std::string name;
  std::vector<double> makespan_s;
  std::vector<double> hits;        ///< per point; empty = not tracked
  std::vector<std::vector<double>> block_sum_s;  ///< [point][block]
  std::vector<std::vector<double>> block_hits;   ///< [point][block]
};

/// A full report: the sweep axis, per-series results, and enough metadata
/// (grid, mode, root, seed/jitter, shard coordinates) to refuse apples-to-
/// oranges comparisons and merges.
///
/// Two report kinds share the grammar.  Message-size sweeps
/// (`bench == "race"`) put the byte ladder in `sizes`, serialised under the
/// JSON key "sizes".  Monte-Carlo races (`bench == "montecarlo"`, the
/// Figs. 1-4 experiment) put the *cluster counts* in the same axis vector,
/// serialised under the key "clusters", and additionally record the
/// Monte-Carlo depth per point (`iterations`, always) and the block size
/// of the deterministic shard partition (`block_iters`, shard-form reports
/// only — merged reports drop it).  Every value is deterministic: no
/// report carries a host-clock reading.
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
  std::uint64_t block_iters = 0;   ///< montecarlo shard-form only
  std::size_t shards = 1;          ///< total shards (1 = unsharded)
  std::size_t shard = 0;           ///< this report's shard index
  std::vector<Bytes> sizes;        ///< byte ladder or cluster counts
  std::vector<BenchSeries> series;

  [[nodiscard]] const BenchSeries* find_series(std::string_view name) const;

  /// Monte-Carlo race report (cluster-count axis, hits, iterations)?
  [[nodiscard]] bool is_montecarlo() const noexcept {
    return bench == "montecarlo";
  }
  /// Carries per-block shard partials instead of final per-point values?
  [[nodiscard]] bool shard_form() const noexcept;
  /// Number of iteration blocks per point: ceil(iterations / block_iters).
  /// Requires block_iters > 0.
  [[nodiscard]] std::size_t block_count() const;
};

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; UTF-8 passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Serialise deterministically (17 significant digits, NaN → null,
/// shard fields only when shards > 1, seed/jitter only in measured mode).
void write_bench_json(std::ostream& os, const BenchReport& r);
[[nodiscard]] std::string bench_to_json(const BenchReport& r);

/// Parse a report written by `write_bench_json` (strict: malformed JSON,
/// an unknown report kind, unknown top-level or series keys, or type
/// mismatches throw InvalidInput).
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
/// axis mismatch, shard-form (unmerged) inputs, missing/extra series,
/// uncomputed (NaN) cells, makespan drift past `makespan_rtol`, hit-count
/// drift (exact: hits are deterministic integers).
[[nodiscard]] std::vector<std::string> compare_bench(
    const BenchReport& baseline, const BenchReport& current,
    const BenchCompareOptions& opts = {});

}  // namespace gridcast::io
