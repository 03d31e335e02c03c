#pragma once

#include <cstdint>
#include <string_view>

#include "plogp/params.hpp"
#include "support/types.hpp"

/// Analytic intra-cluster collective-time prediction.
///
/// The grid-aware heuristics consume `T_c`, the time a cluster needs to
/// finish its *internal* broadcast once the coordinator holds the message.
/// Following the authors' earlier work ("Fast tuning of intra-cluster
/// collective communications", EuroPVM/MPI 2004), we predict that time from
/// the cluster's pLogP parameters for the classic algorithm zoo; the paper's
/// experiments use the binomial tree.
namespace gridcast::plogp {

/// Intra-cluster broadcast algorithm.
enum class BcastAlgorithm : std::uint8_t {
  kFlat,             ///< root sends to every rank sequentially
  kChain,            ///< rank i forwards to rank i+1
  kBinomial,         ///< recursive doubling tree (MPI default)
  kSegmentedChain,   ///< pipelined chain with fixed-size segments
};

[[nodiscard]] std::string_view to_string(BcastAlgorithm a) noexcept;

/// Segment size of the segmented chain wherever none is given: the T_c the
/// schedulers read and the chain the executor runs cut the payload alike.
inline constexpr Bytes kDefaultSegment = KiB(64);

/// Completion time of a flat-tree broadcast of m bytes to `nodes` ranks
/// (root included).  Zero when nodes <= 1.
[[nodiscard]] Time predict_flat_bcast(const Params& p, std::uint32_t nodes,
                                      Bytes m);

/// Completion time of an unsegmented chain broadcast.
[[nodiscard]] Time predict_chain_bcast(const Params& p, std::uint32_t nodes,
                                       Bytes m);

/// Completion time of a binomial-tree broadcast: holders double every
/// round; each holder's sends serialize with gap g(m).
[[nodiscard]] Time predict_binomial_bcast(const Params& p, std::uint32_t nodes,
                                          Bytes m);

/// Completion time of a segmented (pipelined) chain broadcast with
/// `segment` bytes per piece.  The classic large-message winner.
[[nodiscard]] Time predict_segmented_chain_bcast(const Params& p,
                                                 std::uint32_t nodes, Bytes m,
                                                 Bytes segment);

/// Dispatcher used by the topology layer to compute T_c.
[[nodiscard]] Time predict_bcast(BcastAlgorithm a, const Params& p,
                                 std::uint32_t nodes, Bytes m,
                                 Bytes segment = kDefaultSegment);

/// Pick the fastest algorithm for the given size/population — the "tuning"
/// step of the authors' intra-cluster paper.
[[nodiscard]] BcastAlgorithm best_bcast_algorithm(
    const Params& p, std::uint32_t nodes, Bytes m,
    Bytes segment = kDefaultSegment);

}  // namespace gridcast::plogp
