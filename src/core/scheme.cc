#include "core/scheme.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/rwr_push.h"
#include "graph/graph_delta.h"
#include "obs/obs.h"

namespace commsig {

std::span<const ApplicationRequirement> ApplicationRequirements() {
  // Paper Table I.
  static constexpr std::array<ApplicationRequirement, 3> kTable = {{
      {"multiusage-detection", Requirement::kLow, Requirement::kHigh,
       Requirement::kHigh},
      {"label-masquerading", Requirement::kHigh, Requirement::kHigh,
       Requirement::kMedium},
      {"anomaly-detection", Requirement::kHigh, Requirement::kLow,
       Requirement::kHigh},
  }};
  return kTable;
}

const std::vector<CharacteristicLink>& CharacteristicLinks() {
  // Paper Table II.
  // NOLINT(commsig-naked-new): leaked singleton
  static const auto& kLinks = *new std::vector<CharacteristicLink>{
      {GraphCharacteristic::kEngagement,
       {SignatureProperty::kPersistence, SignatureProperty::kRobustness}},
      {GraphCharacteristic::kNovelty, {SignatureProperty::kUniqueness}},
      {GraphCharacteristic::kLocality, {SignatureProperty::kUniqueness}},
      {GraphCharacteristic::kTransitivity,
       {SignatureProperty::kPersistence, SignatureProperty::kRobustness}},
  };
  return kLinks;
}

std::vector<Signature> SignatureScheme::ComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes) const {
  std::vector<Signature> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) out.push_back(Compute(g, v));
  return out;
}

std::vector<Signature> SignatureScheme::RecomputeDirty(
    const CommGraph& g, std::span<const NodeId> nodes,
    std::vector<Signature> previous,
    const std::function<bool(NodeId)>& is_dirty) const {
  std::vector<NodeId> dirty_nodes;
  std::vector<size_t> dirty_slots;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (is_dirty(nodes[i])) {
      dirty_nodes.push_back(nodes[i]);
      dirty_slots.push_back(i);
    }
  }
  // Route dirty recomputes through ComputeAll, not per-node Compute, so a
  // scheme's batched sweep amortization carries over to the dirty subset.
  std::vector<Signature> recomputed = ComputeAll(g, dirty_nodes);

  // Clean signatures ride along by move: a reuse is O(1), no allocation.
  std::vector<Signature> out = std::move(previous);
  for (size_t j = 0; j < dirty_slots.size(); ++j) {
    out[dirty_slots[j]] = std::move(recomputed[j]);
  }
  COMMSIG_COUNTER_ADD("timeline/nodes_dirty", dirty_nodes.size());
  COMMSIG_COUNTER_ADD("timeline/nodes_reused",
                      nodes.size() - dirty_nodes.size());
  return out;
}

std::vector<Signature> SignatureScheme::IncrementalComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes, const GraphDelta* delta,
    std::vector<Signature> previous,
    std::unique_ptr<IncrementalState>& state) const {
  (void)state;  // the base rule is stateless; schemes with warm state override
  if (delta == nullptr || previous.size() != nodes.size()) {
    COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size());
    return ComputeAll(g, nodes);
  }
  return RecomputeDirty(g, nodes, std::move(previous),
                        [&](NodeId v) { return delta->LocalDirty(v); });
}

bool SignatureScheme::KeepCandidate(const CommGraph& g, NodeId focal,
                                    NodeId candidate) const {
  if (candidate == focal) return false;  // Definition 1: u != v
  if (options_.restrict_to_opposite_partition &&
      g.bipartite().IsBipartite()) {
    return g.InLeftPartition(focal) != g.InLeftPartition(candidate);
  }
  return true;
}

namespace {

/// Upper bound on rwr-push's work bound 1 / (c * eps): about a second of
/// pushes. The default spec (c = 0.1, eps = 1e-6) is 1e7.
constexpr double kMaxPushWork = 1e9;

/// A finite number spelling the whole token (no NaN, no infinity, no
/// overflow).
bool ParseFinite(std::string_view text, double& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size() &&
         std::isfinite(out);
}

/// A non-negative integer spelling the whole token: no sign, no wrap.
bool ParseCount(std::string_view text, size_t& out) {
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

bool ParseMode(std::string_view text, TraversalMode& out) {
  if (text == "directed") {
    out = TraversalMode::kDirected;
  } else if (text == "symmetric") {
    out = TraversalMode::kSymmetric;
  } else {
    return false;
  }
  return true;
}

/// Parses `spec` as `name` or `name(key=value,...)`, handing each pair to
/// `apply`, which returns false for an unknown key or a bad value.
/// Malformed items and repeated keys are rejected here.
Status ParseSchemeParams(
    std::string_view spec, std::string_view name,
    const std::function<bool(std::string_view key, std::string_view value)>&
        apply) {
  if (spec == name) return Status::OK();
  if (spec.size() < name.size() + 2 || spec[name.size()] != '(' ||
      spec.back() != ')') {
    return Status::InvalidArgument("bad " + std::string(name) +
                                   " spec: " + std::string(spec));
  }
  std::string_view params =
      spec.substr(name.size() + 1, spec.size() - name.size() - 2);
  std::vector<std::string_view> seen;
  while (!params.empty()) {
    const size_t comma = params.find(',');
    const std::string_view item = params.substr(0, comma);
    params = comma == std::string_view::npos ? std::string_view{}
                                             : params.substr(comma + 1);
    const size_t eq = item.find('=');
    const std::string_view key = item.substr(0, eq);
    if (eq == std::string_view::npos ||
        std::find(seen.begin(), seen.end(), key) != seen.end() ||
        !apply(key, item.substr(eq + 1))) {
      return Status::InvalidArgument("bad " + std::string(name) +
                                     " params: " + std::string(spec));
    }
    seen.push_back(key);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SignatureScheme>> CreateScheme(std::string_view spec,
                                                      SchemeOptions options) {
  if (spec == "tt") return MakeTopTalkers(options);
  if (spec == "ut") {
    return MakeUnexpectedTalkers(options, UtWeighting::kInverseInDegree);
  }
  if (spec == "ut-tfidf") {
    return MakeUnexpectedTalkers(options, UtWeighting::kTfIdf);
  }
  if (spec.starts_with("rwr-push")) {
    RwrPushOptions push;
    Status parsed = ParseSchemeParams(
        spec, "rwr-push", [&](std::string_view key, std::string_view value) {
          if (key == "c") {
            return ParseFinite(value, push.reset) && push.reset > 0.0 &&
                   push.reset <= 1.0;
          }
          if (key == "eps") {
            return ParseFinite(value, push.epsilon) && push.epsilon > 0.0;
          }
          return key == "mode" && ParseMode(value, push.traversal);
        });
    if (!parsed.ok()) return parsed;
    // Push work grows as 1 / (c * eps); past kMaxPushWork a spec is a hang,
    // not a finer estimate.
    if (push.reset * push.epsilon < 1.0 / kMaxPushWork) {
      return Status::InvalidArgument("bad rwr-push params: " +
                                     std::string(spec));
    }
    return MakeRwrPush(options, push);
  }
  if (spec.starts_with("rwr")) {
    RwrOptions rwr;
    Status parsed = ParseSchemeParams(
        spec, "rwr", [&](std::string_view key, std::string_view value) {
          if (key == "c") {
            return ParseFinite(value, rwr.reset) && rwr.reset >= 0.0 &&
                   rwr.reset <= 1.0;
          }
          // More hops than the unbounded walk's iteration cap change
          // nothing measurable and only cost time.
          if (key == "h") {
            return ParseCount(value, rwr.max_hops) &&
                   rwr.max_hops <= rwr.max_iterations;
          }
          return key == "mode" && ParseMode(value, rwr.traversal);
        });
    if (!parsed.ok()) return parsed;
    return MakeRwr(options, rwr);
  }
  return Status::InvalidArgument("unknown scheme spec: " + std::string(spec));
}

}  // namespace commsig
