#include "sketch/fm_sketch.h"

#include <cassert>
#include <cmath>

#include "common/random.h"
#include "obs/obs.h"

namespace commsig {

namespace {
// Flajolet-Martin magic constant correcting the 2^R̄ bias.
constexpr double kPhi = 0.77351;
}  // namespace

FmSketch::FmSketch(size_t num_bitmaps, uint64_t seed) : seed_(seed) {
  assert(num_bitmaps > 0);
  bitmaps_.assign(num_bitmaps, 0);
}

bool FmSketch::Add(uint64_t item) {
  COMMSIG_COUNTER_ADD("sketch/fm_updates", 1);
  uint64_t h = SplitMix64(item ^ seed_);
  size_t bucket = static_cast<size_t>(h % bitmaps_.size());
  uint64_t h2 = SplitMix64(h);
  // Position of the lowest set bit of h2 (geometric with p = 1/2).
  int r = h2 == 0 ? 63 : __builtin_ctzll(h2);
  const uint64_t bit = uint64_t{1} << r;
  const bool changed = (bitmaps_[bucket] & bit) == 0;
  bitmaps_[bucket] |= bit;
  return changed;
}

double FmSketch::Estimate() const {
  COMMSIG_COUNTER_ADD("sketch/fm_queries", 1);
  double sum_r = 0.0;
  size_t empty = 0;
  for (uint64_t bitmap : bitmaps_) {
    if (bitmap == 0) ++empty;
    // Index of the lowest *unset* bit.
    int r = 0;
    while (r < 64 && (bitmap & (uint64_t{1} << r))) ++r;
    sum_r += r;
  }
  const double m = static_cast<double>(bitmaps_.size());
  const double raw = (m / kPhi) * std::pow(2.0, sum_r / m);
  // Small-range correction (the HyperLogLog trick, equally valid for PCSA
  // bucket occupancy): the raw estimator is heavily biased upward when the
  // cardinality is far below the bitmap count — exactly the regime of
  // per-destination in-degrees in the streaming UT scheme. When occupancy
  // is sparse, linear counting on empty buckets is far more accurate.
  if (raw < 2.5 * m && empty > 0) {
    return m * std::log(m / static_cast<double>(empty));
  }
  return raw;
}

void FmSketch::AppendTo(ByteWriter& out) const {
  out.PutU64(bitmaps_.size());
  out.PutU64(seed_);
  out.PutU64Array(bitmaps_);
}

Result<FmSketch> FmSketch::FromBytes(ByteReader& in) {
  Result<uint64_t> num_bitmaps = in.U64();
  if (!num_bitmaps.ok()) return num_bitmaps.status();
  Result<uint64_t> seed = in.U64();
  if (!seed.ok()) return seed.status();
  if (*num_bitmaps == 0 ||
      *num_bitmaps > in.remaining() / sizeof(uint64_t)) {
    return Status::Corruption("invalid FmSketch bitmap count");
  }
  FmSketch sketch(*num_bitmaps, *seed);
  Status s = in.U64Array(sketch.bitmaps_);
  if (!s.ok()) return s;
  return sketch;
}

void FmSketch::Merge(const FmSketch& other) {
  assert(bitmaps_.size() == other.bitmaps_.size() && seed_ == other.seed_);
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    bitmaps_[i] |= other.bitmaps_[i];
  }
}

}  // namespace commsig
