// Streaming sufficient-statistic accumulator with a deterministic reduction.
//
// SufficientStats combine by floating-point addition, so the *grouping* of
// the adds leaks into the last few ulps of the result: a shard that sums its
// own samples and is then added to another shard does not reproduce the
// single-stream left fold bit for bit. The Monte Carlo driver solved this in
// PR 3 by accumulating fixed 64-sample blocks and combining them with a
// pairwise tree whose shape depends only on the block count. StatStream is
// that idea packaged as a reusable streaming accumulator:
//
//   * samples fill fixed kBlockSamples-sized blocks in arrival order;
//   * completed blocks collapse through a binary-counter structure whose
//     carries reproduce exactly the pairwise tree of
//     circuit::run_monte_carlo_stats (proved equivalent in tests);
//   * totals() folds the counter runs newest-to-oldest, so the full
//     reduction is a pure function of the sample sequence.
//
// Because the tree shape is a pure function of the block layout, a stream
// split across shards reassembles *bitwise identically* whenever the split
// respects the block grid: contiguous shards whose block counts are equal
// powers of two (e.g. 8192 samples over 1/2/8 shards) merge back to the
// exact bits of the single-stream accumulation. Splits that cut blocks or
// misalign runs still merge to the exact same sample *set* (plain
// associative addition), just without the bitwise guarantee — the contract
// the serve layer documents for its combiners.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/sufficient_stats.hpp"

namespace bmfusion::stats {

/// Order-preserving streaming accumulator over SufficientStats blocks.
class StatStream {
 public:
  /// Samples per accumulation block; must match the Monte Carlo driver's
  /// block size so MC shards and estimator streams share one grid.
  static constexpr std::size_t kBlockSamples = 64;

  /// One collapsed run of the reduction tree. `blocks` is the number of
  /// kBlockSamples-sized blocks the run covers (a power of two for regular
  /// runs); 0 marks an irregular run (an absorbed foreign summary or a
  /// closed partial block) that never participates in carries.
  struct Run {
    SufficientStats stats;
    std::uint64_t blocks = 0;
  };

  /// Dimension-less; fixed by the first add/absorb/merge.
  StatStream() = default;
  explicit StatStream(std::size_t dimension);

  /// Folds one sample into the current block (carrying when it fills).
  void add(const linalg::Vector& sample);

  /// Folds every row of `samples` in row order.
  void add_rows(const linalg::Matrix& samples);

  /// Appends a pre-summarized sample set as an irregular unit run. The
  /// current partial block (if any) is closed first so stream order is
  /// preserved. Exact in set semantics; not part of the bitwise block grid.
  void absorb(const SufficientStats& stats);

  /// Appends `other`'s samples after this stream's (concatenation
  /// semantics): other's runs are replayed in order through this counter,
  /// so block-aligned shard splits reassemble bitwise (see file comment).
  /// Either stream's open partial block is closed as an irregular run.
  void merge(const StatStream& other);

  /// Deterministic pairwise reduction of all runs + the open partial block.
  /// Requires a non-empty stream (count() >= 1).
  [[nodiscard]] SufficientStats totals() const;

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Reduction-tree introspection for the wire format and tests.
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  [[nodiscard]] const SufficientStats& partial() const { return partial_; }
  [[nodiscard]] std::size_t partial_count() const { return partial_count_; }

  /// Rebuilds a stream from its serialized pieces (wire-format parser).
  /// Shapes must be mutually consistent; throws ContractError otherwise.
  [[nodiscard]] static StatStream from_parts(std::size_t dimension,
                                             std::vector<Run> runs,
                                             SufficientStats partial);

  /// Exact structural equality (same runs, same partial, same counts) —
  /// stronger than totals() equality; used by the determinism tests.
  [[nodiscard]] friend bool operator==(const StatStream& a,
                                       const StatStream& b) {
    if (a.count_ != b.count_ || a.dimension_ != b.dimension_ ||
        a.partial_count_ != b.partial_count_ ||
        a.runs_.size() != b.runs_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.runs_.size(); ++i) {
      if (a.runs_[i].blocks != b.runs_[i].blocks ||
          !(a.runs_[i].stats == b.runs_[i].stats)) {
        return false;
      }
    }
    return a.partial_count_ == 0 || a.partial_ == b.partial_;
  }

 private:
  void require_dimension(std::size_t dimension);

  /// Pushes a completed run of `blocks` blocks (power of two), carrying
  /// while the newest run has the same width — the binary-counter step.
  /// Carries add in place; returns the buffers the last carry retired
  /// (dimension 0 when nothing carried) so add() can reuse them.
  SufficientStats push_regular(SufficientStats stats, std::uint64_t blocks);

  /// Closes the open partial block (if any) as an irregular run.
  void close_partial();

  std::size_t dimension_ = 0;
  std::size_t count_ = 0;
  std::vector<Run> runs_;          ///< oldest first
  SufficientStats partial_;        ///< open block, < kBlockSamples samples
  std::size_t partial_count_ = 0;  ///< samples in the open block
};

}  // namespace bmfusion::stats
