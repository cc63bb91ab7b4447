#ifndef COMMSIG_TESTS_ORACLE_DISTANCE_REFERENCE_H_
#define COMMSIG_TESTS_ORACLE_DISTANCE_REFERENCE_H_

#include "core/distance.h"
#include "core/signature.h"

namespace commsig {

/// The pre-SIMD single-merge formulation: one linear merge over the entry
/// pairs accumulating every statistic. Kept as the semantic reference the
/// randomized equivalence tests compare the packed kernels against, and as
/// the in-run baseline the BM_PairwiseDistances speedup gauges divide by.
/// Values may differ from Distance() in the last few ulps (the packed
/// kernels hoist per-signature sums to construction and accumulate matches
/// 4 lanes at a time), never more.
double DistanceReference(DistanceKind kind, const Signature& a,
                         const Signature& b);

}  // namespace commsig

#endif  // COMMSIG_TESTS_ORACLE_DISTANCE_REFERENCE_H_
