#ifndef COMMSIG_SKETCH_STREAMING_SIGNATURES_H_
#define COMMSIG_SKETCH_STREAMING_SIGNATURES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "core/signature.h"
#include "graph/windower.h"
#include "sketch/count_min.h"
#include "sketch/fm_sketch.h"
#include "sketch/space_saving.h"

namespace commsig {

/// Semi-streaming signature construction (paper Section VI): builds
/// approximate Top Talkers and Unexpected Talkers signatures from a single
/// pass over the communication stream, without materializing the graph.
///
/// Per focal node: a SpaceSaving summary of its outgoing edges (candidate
/// set + TT weights). Globally: one Count-Min sketch of edge volumes
/// C[i,j], and one small FM distinct-counter per destination estimating its
/// in-degree |I(j)| — together these recover the UT weight
/// C[i,j] / |I(j)| approximately. Memory is O(1) per node, as the
/// semi-streaming model allows.
class StreamingSignatureBuilder {
 public:
  struct Options {
    /// SpaceSaving capacity per focal node. Must exceed the signature
    /// length k; 4-8x k keeps the candidate set honest for UT, whose top-k
    /// need not be TT's top-k.
    size_t heavy_hitter_capacity = 64;
    /// Count-Min dimensions.
    size_t cm_width = 4096;
    size_t cm_depth = 4;
    /// FM bitmaps per destination (64 => ~10% degree error, 512 B each).
    size_t fm_bitmaps = 64;
    uint64_t seed = 0xc0de;
  };

  /// `focal_nodes`: the nodes whose signatures will be extracted (the
  /// enterprise "local hosts").
  StreamingSignatureBuilder(std::vector<NodeId> focal_nodes, Options options);

  /// Processes one communication. Non-focal sources still feed the
  /// destination in-degree estimators, so UT novelty reflects the whole
  /// stream.
  void Observe(const TraceEvent& event);

  /// Convenience for whole traces.
  void ObserveAll(const std::vector<TraceEvent>& events);

  /// Approximate Top Talkers signature of `focal`: SpaceSaving counts
  /// normalized by the node's total observed out-volume. Returns an empty
  /// signature for unknown focal nodes.
  ///
  /// Extractions are cached with dirty-node tracking: a focal node's TT
  /// cache entry stays valid until an event with that source arrives, so
  /// periodic re-emission over a mostly-quiet population (the `commsig
  /// stream --emit-every` path) re-extracts only the nodes that actually
  /// talked. The caches make the const accessors non-reentrant — callers
  /// that share a builder across threads must serialize extraction the
  /// same way they already serialize Observe.
  Signature TopTalkers(NodeId focal, size_t k) const;

  /// Approximate Unexpected Talkers: Count-Min volume estimates divided by
  /// FM in-degree estimates, over the node's SpaceSaving candidates. Cached
  /// like TopTalkers, additionally invalidated whenever any destination's
  /// FM in-degree sketch changes state (novelty is global).
  Signature UnexpectedTalkers(NodeId focal, size_t k) const;

  /// Total sketch memory in bytes (diagnostics for the scalability bench).
  size_t MemoryBytes() const;

  /// Serializes the complete builder state — options, all per-focal
  /// summaries, the global Count-Min, the per-destination FM sketches —
  /// in deterministic (key-sorted) order so two builders that observed the
  /// same stream serialize to identical bytes. Used by the streaming
  /// checkpoint format.
  void AppendTo(ByteWriter& out) const;

  /// Inverse of AppendTo. Corruption on malformed bytes.
  static Result<StreamingSignatureBuilder> FromBytes(ByteReader& in);

  uint64_t events_observed() const { return events_observed_; }

 private:
  /// One memoized extraction. Valid while the stamps still match the
  /// builder's current versions (and the same k is requested).
  struct CachedSignature {
    Signature signature;
    size_t k = 0;
    uint64_t focal_version = 0;
    uint64_t novelty_version = 0;
  };

  Signature ExtractTopTalkers(NodeId focal, size_t k) const;
  Signature ExtractUnexpectedTalkers(NodeId focal, size_t k) const;

  Options options_;
  /// Per focal node: its outgoing-edge summary and total out-volume.
  struct FocalState {
    SpaceSaving summary;
    double out_volume = 0.0;
  };

  std::unordered_map<NodeId, FocalState> per_focal_;
  CountMinSketch edge_volumes_;
  std::unordered_map<NodeId, FmSketch> in_degree_;
  uint64_t events_observed_ = 0;

  // Dirty-tracking versions; derived state, deliberately excluded from
  // AppendTo/FromBytes (a restored builder starts with cold caches).
  std::unordered_map<NodeId, uint64_t> focal_version_;
  uint64_t novelty_version_ = 0;
  mutable std::unordered_map<NodeId, CachedSignature> tt_cache_;
  mutable std::unordered_map<NodeId, CachedSignature> ut_cache_;
};

}  // namespace commsig

#endif  // COMMSIG_SKETCH_STREAMING_SIGNATURES_H_
