#include "stats/stat_stream.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace bmfusion::stats {

StatStream::StatStream(std::size_t dimension)
    : dimension_(dimension), partial_(dimension) {
  BMFUSION_REQUIRE(dimension >= 1, "stat stream needs dimension >= 1");
}

void StatStream::require_dimension(std::size_t dimension) {
  if (dimension_ == 0) {
    BMFUSION_REQUIRE(dimension >= 1, "stat stream needs dimension >= 1");
    dimension_ = dimension;
    partial_ = SufficientStats(dimension);
    return;
  }
  BMFUSION_REQUIRE(dimension == dimension_,
                   "stat stream dimension mismatch");
}

void StatStream::add(const linalg::Vector& sample) {
  require_dimension(sample.size());
  partial_.add(sample);
  ++partial_count_;
  ++count_;
  if (partial_count_ == kBlockSamples) {
    // A carry hands back the buffers it retired; they become the next open
    // block, so only a fill that does not carry allocates.
    SufficientStats retired = push_regular(std::move(partial_), 1);
    if (retired.dimension() == dimension_) {
      retired.clear();
      partial_ = std::move(retired);
    } else {
      partial_ = SufficientStats(dimension_);
    }
    partial_count_ = 0;
  }
}

void StatStream::add_rows(const linalg::Matrix& samples) {
  if (samples.rows() == 0) return;
  require_dimension(samples.cols());
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    add(samples.row(i));
  }
}

void StatStream::absorb(const SufficientStats& stats) {
  if (stats.count() == 0) return;
  require_dimension(stats.dimension());
  close_partial();
  runs_.push_back(Run{stats, 0});
  count_ += stats.count();
}

void StatStream::merge(const StatStream& other) {
  if (other.count_ == 0) return;
  require_dimension(other.dimension_);
  // This stream's open block would shift the other stream's block grid, so
  // close it; aligned merges (this->partial empty) keep the bitwise path.
  close_partial();
  for (const Run& run : other.runs_) {
    if (run.blocks == 0) {
      runs_.push_back(run);
    } else {
      push_regular(run.stats, run.blocks);
    }
  }
  if (other.partial_count_ > 0) {
    runs_.push_back(Run{other.partial_, 0});
  }
  count_ += other.count_;
}

SufficientStats StatStream::totals() const {
  BMFUSION_REQUIRE(count_ >= 1, "stat stream totals need >= 1 sample");
  // Newest-to-oldest fold, accumulating earlier runs on the left: with
  // power-of-two runs this reproduces exactly the pairwise tree of the
  // Monte Carlo reduction (see the binary-counter equivalence test).
  SufficientStats acc;
  bool have = false;
  if (partial_count_ > 0) {
    acc = partial_;
    have = true;
  }
  for (std::size_t i = runs_.size(); i-- > 0;) {
    if (!have) {
      acc = runs_[i].stats;
      have = true;
    } else {
      acc = runs_[i].stats + acc;
    }
  }
  return acc;
}

StatStream StatStream::from_parts(std::size_t dimension,
                                  std::vector<Run> runs,
                                  SufficientStats partial) {
  BMFUSION_REQUIRE(dimension >= 1, "stat stream needs dimension >= 1");
  StatStream stream(dimension);
  for (const Run& run : runs) {
    BMFUSION_REQUIRE(run.stats.dimension() == dimension,
                     "stat stream run dimension mismatch");
    BMFUSION_REQUIRE(run.stats.count() >= 1,
                     "stat stream run must summarize >= 1 sample");
    BMFUSION_REQUIRE(
        run.blocks == 0 || (run.blocks & (run.blocks - 1)) == 0,
        "regular stat stream runs must cover a power-of-two block count");
    stream.count_ += run.stats.count();
  }
  if (partial.dimension() != 0) {
    BMFUSION_REQUIRE(partial.dimension() == dimension,
                     "stat stream partial dimension mismatch");
    BMFUSION_REQUIRE(partial.count() < kBlockSamples,
                     "stat stream partial block must hold < kBlockSamples");
    stream.partial_count_ = partial.count();
    stream.count_ += partial.count();
    stream.partial_ = std::move(partial);
  }
  stream.runs_ = std::move(runs);
  return stream;
}

SufficientStats StatStream::push_regular(SufficientStats stats,
                                         std::uint64_t blocks) {
  // Binary-counter carry: equal-width neighbours collapse (earlier run on
  // the left of the add), doubling the width, until the widths differ.
  // Irregular runs (blocks == 0) never match, so they fence the carries.
  runs_.push_back(Run{std::move(stats), blocks});
  SufficientStats retired;
  while (runs_.size() >= 2 &&
         runs_[runs_.size() - 2].blocks == runs_.back().blocks) {
    Run& earlier = runs_[runs_.size() - 2];
    earlier.stats += runs_.back().stats;
    earlier.blocks *= 2;
    retired = std::move(runs_.back().stats);
    runs_.pop_back();
  }
  return retired;
}

void StatStream::close_partial() {
  if (partial_count_ == 0) return;
  runs_.push_back(Run{std::move(partial_), 0});
  partial_ = SufficientStats(dimension_);
  partial_count_ = 0;
}

}  // namespace bmfusion::stats
