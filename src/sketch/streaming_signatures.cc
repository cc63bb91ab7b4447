#include "sketch/streaming_signatures.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.h"

namespace commsig {

StreamingSignatureBuilder::StreamingSignatureBuilder(
    std::vector<NodeId> focal_nodes, Options options)
    : options_(options),
      edge_volumes_(options.cm_width, options.cm_depth, options.seed) {
  for (NodeId v : focal_nodes) {
    per_focal_.emplace(
        v, FocalState{SpaceSaving(options_.heavy_hitter_capacity), 0.0});
  }
}

void StreamingSignatureBuilder::Observe(const TraceEvent& event) {
  ++events_observed_;
  // Destination novelty statistics see the whole stream. The novelty
  // version moves only when an FM bitmap actually flips a bit, so the UT
  // caches survive the (dominant, in steady state) duplicate-source case.
  auto [it, inserted] = in_degree_.try_emplace(
      event.dst, FmSketch(options_.fm_bitmaps, options_.seed ^ 0xf));
  if (it->second.Add(event.src)) ++novelty_version_;

  auto focal_it = per_focal_.find(event.src);
  if (focal_it == per_focal_.end()) return;
  focal_it->second.summary.Add(event.dst, event.weight);
  focal_it->second.out_volume += event.weight;
  edge_volumes_.Add(CountMinSketch::EdgeKey(event.src, event.dst),
                    event.weight);
  ++focal_version_[event.src];
}

void StreamingSignatureBuilder::ObserveAll(
    const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) Observe(e);
}

Signature StreamingSignatureBuilder::ExtractTopTalkers(NodeId focal,
                                                       size_t k) const {
  auto it = per_focal_.find(focal);
  if (it == per_focal_.end()) return Signature();
  const double total = it->second.out_volume;
  if (total <= 0.0) return Signature();

  std::vector<Signature::Entry> candidates;
  for (const SpaceSaving::Item& item : it->second.summary.Items()) {
    NodeId dst = static_cast<NodeId>(item.key);
    if (dst == focal) continue;
    candidates.push_back({dst, item.count / total});
  }
  return Signature::FromTopK(std::move(candidates), k);
}

Signature StreamingSignatureBuilder::TopTalkers(NodeId focal,
                                                size_t k) const {
  auto fv = focal_version_.find(focal);
  const uint64_t version = fv == focal_version_.end() ? 0 : fv->second;
  auto cached = tt_cache_.find(focal);
  if (cached != tt_cache_.end() && cached->second.k == k &&
      cached->second.focal_version == version) {
    COMMSIG_COUNTER_ADD("sketch/signature_cache_hits", 1);
    return cached->second.signature;
  }
  Signature sig = ExtractTopTalkers(focal, k);
  tt_cache_[focal] = {sig, k, version, 0};
  return sig;
}

Signature StreamingSignatureBuilder::ExtractUnexpectedTalkers(
    NodeId focal, size_t k) const {
  auto it = per_focal_.find(focal);
  if (it == per_focal_.end()) return Signature();

  std::vector<Signature::Entry> candidates;
  for (const SpaceSaving::Item& item : it->second.summary.Items()) {
    NodeId dst = static_cast<NodeId>(item.key);
    if (dst == focal) continue;
    double volume =
        edge_volumes_.Estimate(CountMinSketch::EdgeKey(focal, dst));
    auto fm = in_degree_.find(dst);
    double degree = fm == in_degree_.end() ? 1.0
                                           : std::max(1.0, fm->second.Estimate());
    candidates.push_back({dst, volume / degree});
  }
  return Signature::FromTopK(std::move(candidates), k);
}

Signature StreamingSignatureBuilder::UnexpectedTalkers(NodeId focal,
                                                       size_t k) const {
  auto fv = focal_version_.find(focal);
  const uint64_t version = fv == focal_version_.end() ? 0 : fv->second;
  auto cached = ut_cache_.find(focal);
  if (cached != ut_cache_.end() && cached->second.k == k &&
      cached->second.focal_version == version &&
      cached->second.novelty_version == novelty_version_) {
    COMMSIG_COUNTER_ADD("sketch/signature_cache_hits", 1);
    return cached->second.signature;
  }
  Signature sig = ExtractUnexpectedTalkers(focal, k);
  ut_cache_[focal] = {sig, k, version, novelty_version_};
  return sig;
}

namespace {

// Key-sorted (key, value) views for deterministic checkpoint bytes.
template <typename Map>
std::vector<std::pair<NodeId, const typename Map::mapped_type*>>
SortedEntries(const Map& map) {
  std::vector<std::pair<NodeId, const typename Map::mapped_type*>> entries;
  entries.reserve(map.size());
  for (const auto& [key, value] : map) entries.emplace_back(key, &value);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

}  // namespace

void StreamingSignatureBuilder::AppendTo(ByteWriter& out) const {
  out.PutU64(options_.heavy_hitter_capacity);
  out.PutU64(options_.cm_width);
  out.PutU64(options_.cm_depth);
  out.PutU64(options_.fm_bitmaps);
  out.PutU64(options_.seed);
  out.PutU64(events_observed_);

  out.PutU64(per_focal_.size());
  for (const auto& [focal, state] : SortedEntries(per_focal_)) {
    out.PutU32(focal);
    out.PutDouble(state->out_volume);
    state->summary.AppendTo(out);
  }

  edge_volumes_.AppendTo(out);

  out.PutU64(in_degree_.size());
  for (const auto& [dst, sketch] : SortedEntries(in_degree_)) {
    out.PutU32(dst);
    sketch->AppendTo(out);
  }
}

Result<StreamingSignatureBuilder> StreamingSignatureBuilder::FromBytes(
    ByteReader& in) {
  Options options;
  Result<uint64_t> capacity = in.U64();
  if (!capacity.ok()) return capacity.status();
  Result<uint64_t> cm_width = in.U64();
  if (!cm_width.ok()) return cm_width.status();
  Result<uint64_t> cm_depth = in.U64();
  if (!cm_depth.ok()) return cm_depth.status();
  Result<uint64_t> fm_bitmaps = in.U64();
  if (!fm_bitmaps.ok()) return fm_bitmaps.status();
  Result<uint64_t> seed = in.U64();
  if (!seed.ok()) return seed.status();
  if (*capacity == 0 || *cm_width == 0 || *cm_depth == 0 ||
      *fm_bitmaps == 0) {
    return Status::Corruption("invalid StreamingSignatureBuilder options");
  }
  // Constructing the builder below allocates the cm_width * cm_depth table
  // immediately. The table's cells are serialized later in this same
  // buffer, so dimensions the remaining bytes cannot back are corrupt —
  // reject them before allocating (also catches width*depth overflow).
  if (*cm_depth > in.remaining() / sizeof(double) ||
      *cm_width > in.remaining() / sizeof(double) / *cm_depth ||
      *capacity > (1ull << 20) || *fm_bitmaps > (1ull << 20)) {
    return Status::Corruption(
        "StreamingSignatureBuilder options exceed payload");
  }
  options.heavy_hitter_capacity = *capacity;
  options.cm_width = *cm_width;
  options.cm_depth = *cm_depth;
  options.fm_bitmaps = *fm_bitmaps;
  options.seed = *seed;

  StreamingSignatureBuilder builder({}, options);
  Result<uint64_t> events = in.U64();
  if (!events.ok()) return events.status();
  builder.events_observed_ = *events;

  Result<uint64_t> num_focal = in.U64();
  if (!num_focal.ok()) return num_focal.status();
  for (uint64_t i = 0; i < *num_focal; ++i) {
    Result<uint32_t> focal = in.U32();
    if (!focal.ok()) return focal.status();
    Result<double> volume = in.Double();
    if (!volume.ok()) return volume.status();
    if (!std::isfinite(*volume) || *volume < 0.0) {
      return Status::Corruption("invalid focal out-volume");
    }
    Result<SpaceSaving> summary = SpaceSaving::FromBytes(in);
    if (!summary.ok()) return summary.status();
    if (!builder.per_focal_
             .emplace(*focal, FocalState{*std::move(summary), *volume})
             .second) {
      return Status::Corruption("duplicate focal node");
    }
  }

  Result<CountMinSketch> edge_volumes = CountMinSketch::FromBytes(in);
  if (!edge_volumes.ok()) return edge_volumes.status();
  builder.edge_volumes_ = *std::move(edge_volumes);

  Result<uint64_t> num_dst = in.U64();
  if (!num_dst.ok()) return num_dst.status();
  for (uint64_t i = 0; i < *num_dst; ++i) {
    Result<uint32_t> dst = in.U32();
    if (!dst.ok()) return dst.status();
    Result<FmSketch> sketch = FmSketch::FromBytes(in);
    if (!sketch.ok()) return sketch.status();
    if (!builder.in_degree_.emplace(*dst, *std::move(sketch)).second) {
      return Status::Corruption("duplicate in-degree destination");
    }
  }
  return builder;
}

size_t StreamingSignatureBuilder::MemoryBytes() const {
  size_t bytes = edge_volumes_.MemoryBytes();
  for (const auto& [node, sketch] : in_degree_) {
    bytes += sketch.MemoryBytes();
  }
  // SpaceSaving summaries: key + counter pair per tracked entry.
  for (const auto& [node, state] : per_focal_) {
    bytes += state.summary.size() * (sizeof(uint64_t) + 2 * sizeof(double));
  }
  return bytes;
}

}  // namespace commsig
