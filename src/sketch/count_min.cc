#include "sketch/count_min.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/random.h"
#include "obs/obs.h"

namespace commsig {

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed)
    : width_(width), depth_(depth), seed_(seed) {
  assert(width > 0 && depth > 0);
  table_.assign(width * depth, 0.0);
}

CountMinSketch CountMinSketch::WithGuarantee(double epsilon, double delta,
                                             uint64_t seed) {
  assert(epsilon > 0.0 && epsilon < 1.0);
  assert(delta > 0.0 && delta < 1.0);
  size_t width = static_cast<size_t>(std::ceil(M_E / epsilon));
  size_t depth = static_cast<size_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(std::max<size_t>(width, 1), std::max<size_t>(depth, 1),
                        seed);
}

size_t CountMinSketch::Index(size_t row, uint64_t key) const {
  // Row-seeded SplitMix64 acts as a family of pairwise-enough hashes.
  uint64_t h = SplitMix64(key ^ SplitMix64(seed_ + row * 0x9e37u));
  return row * width_ + static_cast<size_t>(h % width_);
}

void CountMinSketch::Add(uint64_t key, double count) {
  assert(count > 0.0);
  total_ += count;
  for (size_t row = 0; row < depth_; ++row) {
    table_[Index(row, key)] += count;
  }
  COMMSIG_COUNTER_ADD("sketch/cm_updates", 1);
  // The one-sided error guarantee at the current fill level:
  // estimate - truth <= (e / width) * total with probability 1 - delta.
  COMMSIG_GAUGE_SET("sketch/cm_error_bound",
                    (M_E / static_cast<double>(width_)) * total_);
}

double CountMinSketch::Estimate(uint64_t key) const {
  COMMSIG_COUNTER_ADD("sketch/cm_queries", 1);
  double best = table_[Index(0, key)];
  for (size_t row = 1; row < depth_; ++row) {
    best = std::min(best, table_[Index(row, key)]);
  }
  return best;
}

void CountMinSketch::AppendTo(ByteWriter& out) const {
  out.PutU64(width_);
  out.PutU64(depth_);
  out.PutU64(seed_);
  out.PutDouble(total_);
  out.PutDoubleArray(table_);
}

Result<CountMinSketch> CountMinSketch::FromBytes(ByteReader& in) {
  Result<uint64_t> width = in.U64();
  if (!width.ok()) return width.status();
  Result<uint64_t> depth = in.U64();
  if (!depth.ok()) return depth.status();
  Result<uint64_t> seed = in.U64();
  if (!seed.ok()) return seed.status();
  Result<double> total = in.Double();
  if (!total.ok()) return total.status();
  if (*width == 0 || *depth == 0 || !std::isfinite(*total) || *total < 0.0) {
    return Status::Corruption("invalid CountMinSketch header");
  }
  // Reject dimensions the remaining bytes cannot back before allocating
  // width*depth counters (also catches width*depth overflow).
  if (*depth > in.remaining() / sizeof(double) ||
      *width > in.remaining() / sizeof(double) / *depth) {
    return Status::Corruption("CountMinSketch dimensions exceed payload");
  }
  CountMinSketch sketch(*width, *depth, *seed);
  sketch.total_ = *total;
  Status s = in.DoubleArray(sketch.table_);
  if (!s.ok()) return s;
  for (double cell : sketch.table_) {
    if (!std::isfinite(cell) || cell < 0.0) {
      return Status::Corruption("non-finite CountMinSketch counter");
    }
  }
  return sketch;
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  assert(width_ == other.width_ && depth_ == other.depth_ &&
         seed_ == other.seed_);
  for (size_t i = 0; i < table_.size(); ++i) table_[i] += other.table_[i];
  total_ += other.total_;
}

}  // namespace commsig
