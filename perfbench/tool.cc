// perfbench_tool: the C++ half of the commsig end-to-end benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
// Modes:
//   gen     --local N --external N --windows N --seed S --window-length L
//           --out-csv PATH --out-ref PATH --ref tt_windows,stream,rwr_w0
//       Generates a FlowTraceGenerator corpus, writes it as the trace CSV
//       `commsig` reads, and writes the benchmark's own exact reference
//       signatures (computed here from the generated events, without the
//       library's ingest, windowing or signature code). Prints one JSON
//       line with the corpus size.
//   setup   --workload W --csv PATH --window-length L --min-reps R
//           --min-ms T
//       Times the workload's set-up calls (ReadTraceCsv, then the
//       windowing call `commsig` makes) in this process, at least R times
//       and until T ms have passed. Prints {"setup_s": [...]}.
//   replay  --workload W --csv PATH --window-length L --tmp-dir D
//           [--dump PATH] [--trace-out PATH] [--run-id N]
//       Calls each layer's public functions in the order the workload's
//       `commsig` command calls them, with a span around each call and the
//       library's metric counters read after it. Prints one JSON line with
//       each layer's self time, the per-layer counts, and the numbers the
//       command prints (for the output check). --dump writes the
//       workload's signatures; --trace-out writes the spans as a Chrome
//       trace.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/distance.h"
#include "core/parallel.h"
#include "core/scheme.h"
#include "data/flow_generator.h"
#include "data/trace_io.h"
#include "eval/properties.h"
#include "eval/roc.h"
#include "eval/timeline.h"
#include "graph/windower.h"
#include "obs/metrics.h"
#include "robust/checkpoint.h"
#include "robust/record_errors.h"
#include "robust/retry.h"
#include "robust/supervisor.h"
#include "sketch/streaming_signatures.h"

namespace commsig::perfbench {
namespace {

constexpr size_t kK = 10;  // `commsig --k` default
constexpr uint64_t kCheckpointEvery = 100000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(1);
}

struct Flags {
  std::map<std::string, std::string> values;

  std::string Str(const std::string& key, const std::string& fallback = "")
      const {
    auto it = values.find(key);
    if (it != values.end()) return it->second;
    if (fallback.empty()) Die("missing --" + key);
    return fallback;
  }
  uint64_t Int(const std::string& key) const {
    const std::string s = Str(key);
    char* end = nullptr;
    const uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0') Die("bad integer for --" + key + ": " + s);
    return v;
  }
};

/// Minimal JSON writer for the tool's one-line reports.
class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    out_ << '"' << obs::JsonEscape(v) << '"';
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------------------
// Exact reference signatures (independent of the library's signature code).

/// One reference signature: the top-k labels (weight desc, label asc) and
/// the labels outside the top k whose weight ties the k-th weight. The
/// output check counts a tied label as a match.
struct RefSig {
  std::vector<std::string> top;
  std::vector<std::string> tied;
};

RefSig TopKWithTies(std::vector<std::pair<double, std::string>> cands,
                    double abs_tol, double rel_tol) {
  std::erase_if(cands, [](const auto& c) { return !(c.first > 0.0); });
  std::sort(cands.begin(), cands.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  RefSig sig;
  const size_t n = std::min(kK, cands.size());
  for (size_t i = 0; i < n; ++i) sig.top.push_back(cands[i].second);
  if (cands.size() > kK) {
    const double kth = cands[kK - 1].first;
    const double tol = abs_tol + rel_tol * kth;
    for (size_t i = kK; i < cands.size(); ++i) {
      if (std::fabs(cands[i].first - kth) <= tol) {
        sig.tied.push_back(cands[i].second);
      }
    }
  }
  return sig;
}

void WriteRef(std::ofstream& out, const std::string& key, const RefSig& sig) {
  if (sig.top.empty()) return;
  auto join = [](const std::vector<std::string>& v) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + v[i];
    return s;
  };
  out << key << '\t' << join(sig.top) << '\t' << join(sig.tied) << '\n';
}

using Adjacency =
    std::unordered_map<NodeId, std::unordered_map<NodeId, double>>;

/// Per-window aggregated volumes C[src][dst] of the tumbling windows
/// [w * length, (w + 1) * length).
std::vector<Adjacency> WindowVolumes(const FlowDataset& ds, uint64_t length) {
  std::vector<Adjacency> windows;
  for (const TraceEvent& e : ds.events) {
    const size_t w = e.time / length;
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w][e.src][e.dst] += e.weight;
  }
  return windows;
}

/// Top Talkers per window: rank destinations by volume.
void RefTopTalkersPerWindow(const FlowDataset& ds, uint64_t length,
                            std::ofstream& out) {
  const std::vector<Adjacency> windows = WindowVolumes(ds, length);
  for (size_t w = 0; w < windows.size(); ++w) {
    for (const auto& [src, row] : windows[w]) {
      std::vector<std::pair<double, std::string>> cands;
      for (const auto& [dst, c] : row) {
        if (dst != src) cands.push_back({c, ds.interner.LabelOf(dst)});
      }
      WriteRef(out, "w" + std::to_string(w) + "\t" + ds.interner.LabelOf(src),
               TopKWithTies(std::move(cands), 0.0, 1e-9));
    }
  }
}

/// Whole-stream Top Talkers (volume) and Unexpected Talkers (volume divided
/// by the destination's distinct-source in-degree), the exact quantities
/// the streaming sketches approximate.
void RefStream(const FlowDataset& ds, std::ofstream& out) {
  Adjacency volumes;
  for (const TraceEvent& e : ds.events) volumes[e.src][e.dst] += e.weight;
  std::unordered_map<NodeId, double> in_degree;
  for (const auto& [src, row] : volumes) {
    for (const auto& [dst, c] : row) in_degree[dst] += 1.0;
  }
  for (const auto& [src, row] : volumes) {
    std::vector<std::pair<double, std::string>> tt, ut;
    for (const auto& [dst, c] : row) {
      if (dst == src) continue;
      tt.push_back({c, ds.interner.LabelOf(dst)});
      ut.push_back({c / in_degree[dst], ds.interner.LabelOf(dst)});
    }
    const std::string& label = ds.interner.LabelOf(src);
    WriteRef(out, label + "\ttt", TopKWithTies(std::move(tt), 0.0, 1e-9));
    WriteRef(out, label + "\tut", TopKWithTies(std::move(ut), 0.0, 1e-9));
  }
}

/// Full random walk with restart (c = 0.1) on window 0, edges walked in
/// both directions in proportion to weight, restart and dangling mass
/// returned to the source: plain power iteration on a compact adjacency,
/// run to an L1 step change of 1e-13 — three orders of magnitude below the
/// library solver's 1e-10, so its top-k is the exact one. Weights within
/// 1e-8 of the k-th (ten times the library's error bound) count as ties.
void RefRwrWindow0(const FlowDataset& ds, uint64_t length, std::ofstream& out) {
  const Adjacency window0 = WindowVolumes(ds, length).at(0);
  std::unordered_map<NodeId, uint32_t> index;
  std::vector<NodeId> node_of;
  auto id = [&](NodeId v) {
    auto [it, inserted] = index.try_emplace(v, node_of.size());
    if (inserted) node_of.push_back(v);
    return it->second;
  };
  // Compact CSR over the nodes window 0 touches, each edge in both
  // directions (a self-edge appears twice, as the library walks it).
  std::vector<std::pair<uint32_t, uint32_t>> arcs;
  std::vector<double> arc_weight;
  for (const auto& [src, row] : window0) {
    for (const auto& [dst, c] : row) {
      const uint32_t a = id(src);
      const uint32_t b = id(dst);
      arcs.push_back({a, b});
      arcs.push_back({b, a});
      arc_weight.push_back(c);
      arc_weight.push_back(c);
    }
  }
  const size_t n = node_of.size();
  std::vector<uint32_t> offset(n + 1, 0);
  for (const auto& [a, b] : arcs) ++offset[a + 1];
  for (size_t x = 0; x < n; ++x) offset[x + 1] += offset[x];
  std::vector<uint32_t> target(arcs.size());
  std::vector<double> weight(arcs.size());
  std::vector<uint32_t> fill(offset.begin(), offset.end() - 1);
  for (size_t i = 0; i < arcs.size(); ++i) {
    const uint32_t slot = fill[arcs[i].first]++;
    target[slot] = arcs[i].second;
    weight[slot] = arc_weight[i];
  }
  std::vector<double> inv_norm(n, 0.0);
  for (size_t x = 0; x < n; ++x) {
    double w = 0.0;
    for (uint32_t e = offset[x]; e < offset[x + 1]; ++e) w += weight[e];
    inv_norm[x] = w > 0.0 ? 1.0 / w : 0.0;
  }
  constexpr double kReset = 0.1;
  // `commsig signatures` walks from every node that sends in any window
  // and prints the ones whose window-0 signature is not empty.
  std::vector<NodeId> sources;
  for (const TraceEvent& e : ds.events) {
    if (index.count(e.src) > 0) sources.push_back(e.src);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  std::vector<double> r(n), next(n);
  for (NodeId src : sources) {
    const uint32_t s = index.at(src);
    std::fill(r.begin(), r.end(), 0.0);
    r[s] = 1.0;
    for (int iter = 0; iter < 2000; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      double restart = 0.0;
      for (size_t x = 0; x < n; ++x) {
        if (r[x] == 0.0) continue;
        if (inv_norm[x] == 0.0) {
          restart += r[x];
          continue;
        }
        restart += kReset * r[x];
        const double scale = (1.0 - kReset) * r[x] * inv_norm[x];
        for (uint32_t e = offset[x]; e < offset[x + 1]; ++e) {
          next[target[e]] += scale * weight[e];
        }
      }
      next[s] += restart;
      double delta = 0.0;
      for (size_t x = 0; x < n; ++x) delta += std::fabs(next[x] - r[x]);
      r.swap(next);
      if (delta < 1e-13) break;
    }
    std::vector<std::pair<double, std::string>> cands;
    for (size_t x = 0; x < n; ++x) {
      if (x != s) cands.push_back({r[x], ds.interner.LabelOf(node_of[x])});
    }
    WriteRef(out, ds.interner.LabelOf(src),
             TopKWithTies(std::move(cands), 1e-8, 0.0));
  }
}

int Gen(const Flags& flags) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = flags.Int("local");
  cfg.num_external_hosts = flags.Int("external");
  cfg.num_windows = flags.Int("windows");
  cfg.seed = flags.Int("seed");
  const uint64_t length = flags.Int("window-length");
  cfg.window_length = length;
  const FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  const std::string csv = flags.Str("out-csv");
  Status s = WriteTraceCsv(ds.events, ds.interner, csv);
  if (!s.ok()) Die("cannot write " + csv + ": " + s.ToString());

  std::ofstream ref(flags.Str("out-ref"));
  std::stringstream kinds(flags.Str("ref"));
  for (std::string kind; std::getline(kinds, kind, ',');) {
    if (kind == "tt_windows") {
      RefTopTalkersPerWindow(ds, length, ref);
    } else if (kind == "stream") {
      RefStream(ds, ref);
    } else if (kind == "rwr_w0") {
      RefRwrWindow0(ds, length, ref);
    } else {
      Die("unknown reference kind " + kind);
    }
  }
  if (!ref.good()) Die("cannot write the reference");
  Json j;
  j.Open('{')
      .Key("events").Num(static_cast<double>(ds.events.size()))
      .Key("nodes").Num(static_cast<double>(ds.interner.size()))
      .Key("bytes").Num(static_cast<double>(std::filesystem::file_size(csv)))
      .Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Span recorder for the traced replay.

/// Library counters read after every timed call.
const std::vector<std::string>& TrackedCounters() {
  static const std::vector<std::string> names = {
      "robust/records_rejected",  "robust/windower_dropped_events",
      "signature/built",          "rwr/calls",
      "rwr/iterations",           "rwr/batch_dense_iterations",
      "robust/rwr_fallbacks",     "timeline/nodes_dirty",
      "timeline/nodes_reused",    "distance/evaluations",
      "sketch/cm_updates",        "sketch/ss_updates",
      "sketch/fm_updates",        "sketch/ss_evictions",
      "robust/checkpoints_saved", "robust/epoch_failures",
  };
  return names;
}

std::vector<uint64_t> ReadCounters() {
  std::vector<uint64_t> values;
  for (const std::string& name : TrackedCounters()) {
    values.push_back(obs::MetricsRegistry::Global().GetCounter(name).Value());
  }
  return values;
}

struct SpanRecord {
  std::string name;   // "<layer>/<call>"
  std::string layer;  // a src/ module, or "cli" for the replay's root
  std::chrono::steady_clock::time_point start, end;
  int parent = -1;
  std::vector<uint64_t> counters_before, counter_deltas;
};

/// Keeps spans in memory; one recorder per replay (= one run id).
class SpanRecorder {
 public:
  explicit SpanRecorder(uint64_t run_id) : run_id_(run_id) {}

  int Begin(std::string layer, std::string call) {
    SpanRecord span;
    span.name = layer + "/" + call;
    span.layer = std::move(layer);
    span.parent = open_.empty() ? -1 : open_.back();
    span.counters_before = ReadCounters();
    span.start = std::chrono::steady_clock::now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    SpanRecord& span = spans_[id];
    span.end = std::chrono::steady_clock::now();
    const std::vector<uint64_t> after = ReadCounters();
    for (size_t i = 0; i < after.size(); ++i) {
      span.counter_deltas.push_back(after[i] - span.counters_before[i]);
    }
    open_.pop_back();
  }

  /// Total duration of every span named `name`.
  double CallSeconds(const std::string& name) const {
    double total = 0.0;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) total += Seconds(s.end - s.start);
    }
    return total;
  }

  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> LayerSelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += Seconds(spans_[i].end - spans_[i].start);
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= Seconds(spans_[i].end - spans_[i].start);
      }
    }
    std::map<std::string, double> layers;
    for (size_t i = 0; i < spans_.size(); ++i) {
      layers[spans_[i].layer] += self[i];
    }
    return layers;
  }

  /// Sum of a counter's deltas over the top-level spans (the replay root).
  uint64_t CounterDelta(const std::string& counter) const {
    const auto& names = TrackedCounters();
    const size_t idx = std::find(names.begin(), names.end(), counter) -
                       names.begin();
    uint64_t total = 0;
    for (const SpanRecord& s : spans_) {
      if (s.parent == -1) total += s.counter_deltas.at(idx);
    }
    return total;
  }

  bool WriteChromeTrace(const std::string& path) const {
    if (spans_.empty()) return false;
    const auto epoch = spans_.front().start;
    auto us = [&](std::chrono::steady_clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    Json j;
    j.Open('{').Key("displayTimeUnit").Str("ms").Key("traceEvents").Open('[');
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      j.Open('{')
          .Key("name").Str(s.name)
          .Key("cat").Str(s.layer)
          .Key("ph").Str("X")
          .Key("ts").Num(us(s.start))
          .Key("dur").Num(us(s.end) - us(s.start))
          .Key("pid").Num(static_cast<double>(run_id_))
          .Key("tid").Num(1)
          .Key("args").Open('{')
          .Key("span").Num(static_cast<double>(i))
          .Key("parent").Num(s.parent)
          .Key("run_id").Num(static_cast<double>(run_id_));
      for (size_t c = 0; c < s.counter_deltas.size(); ++c) {
        if (s.counter_deltas[c] > 0) {
          j.Key(TrackedCounters()[c])
              .Num(static_cast<double>(s.counter_deltas[c]));
        }
      }
      j.Close('}').Close('}');
    }
    j.Close(']').Close('}');
    std::ofstream out(path);
    out << j.str() << '\n';
    return out.good();
  }

 private:
  uint64_t run_id_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Times one call: `Timed(rec, "core.rwr", "compute_all_parallel", [&] {..})`.
template <typename F>
auto Timed(SpanRecorder& rec, const char* layer, const char* call, F&& f) {
  const int id = rec.Begin(layer, call);
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    rec.End(id);
  } else {
    auto result = f();
    rec.End(id);
    return result;
  }
}

// ---------------------------------------------------------------------------
// Replays of the four workload commands.

/// The workloads and the windowing call each command makes.
enum class Workload {
  kTimelineLoad,
  kSelfmatchTt,
  kPaperRwr,
  kStreamCheckpoint,
};

Workload ParseWorkload(const std::string& name) {
  if (name == "timeline_load") return Workload::kTimelineLoad;
  if (name == "selfmatch_tt") return Workload::kSelfmatchTt;
  if (name == "paper_rwr") return Workload::kPaperRwr;
  if (name == "stream_checkpoint") return Workload::kStreamCheckpoint;
  Die("unknown workload " + name);
}

/// `commsig`'s reader settings at its defaults (--on-error fail,
/// --error-budget 100000, serial reader).
std::vector<TraceEvent> ReadTrace(const std::string& csv, Interner& interner,
                                  RecordErrorLog& errors) {
  IngestOptions opts;
  opts.error_log = &errors;
  auto loaded = ReadTraceCsv(csv, interner, opts);
  if (!loaded.ok()) {
    Die("cannot read " + csv + ": " + loaded.status().ToString());
  }
  return std::move(*loaded);
}

/// Windows exactly as the command builds them: `timeline` uses the sliding
/// split at stride = window length, the others the tumbling split, and
/// `stream` does not window at all.
std::vector<CommGraph> BuildWindows(Workload w, size_t num_nodes,
                                    uint64_t length,
                                    const std::vector<TraceEvent>& events) {
  TraceWindower windower(num_nodes, length);
  return w == Workload::kTimelineLoad ? windower.SplitSliding(events, length)
                                      : windower.Split(events);
}

/// Nodes with outgoing traffic in any window (`commsig`'s focal set).
std::vector<NodeId> FocalFromWindows(size_t num_nodes,
                                     const std::vector<CommGraph>& windows) {
  std::vector<bool> has_out(num_nodes, false);
  for (const CommGraph& g : windows) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (g.OutDegree(v) > 0) has_out[v] = true;
    }
  }
  std::vector<NodeId> focal;
  for (NodeId v = 0; v < has_out.size(); ++v) {
    if (has_out[v]) focal.push_back(v);
  }
  return focal;
}

std::unique_ptr<SignatureScheme> MustScheme(const std::string& spec) {
  SchemeOptions opts;
  opts.k = kK;
  auto scheme = CreateScheme(spec, opts);
  if (!scheme.ok()) Die("bad scheme " + spec);
  return std::move(*scheme);
}

int Setup(const Flags& flags) {
  const Workload w = ParseWorkload(flags.Str("workload"));
  const std::string csv = flags.Str("csv");
  const uint64_t length = flags.Int("window-length");
  const uint64_t min_reps = flags.Int("min-reps");
  const auto min_time = std::chrono::milliseconds(flags.Int("min-ms"));
  const auto begin = std::chrono::steady_clock::now();
  Json j;
  j.Open('{').Key("setup_s").Open('[');
  for (uint64_t i = 0;
       i < min_reps || std::chrono::steady_clock::now() - begin < min_time;
       ++i) {
    const auto start = std::chrono::steady_clock::now();
    Interner interner;
    RecordErrorLog errors;
    std::vector<TraceEvent> events = ReadTrace(csv, interner, errors);
    std::vector<CommGraph> windows;
    if (w != Workload::kStreamCheckpoint) {
      windows = BuildWindows(w, interner.size(), length, events);
    }
    j.Num(Seconds(std::chrono::steady_clock::now() - start));
  }
  j.Close(']').Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// Writes `label<TAB>signature` lines the way `commsig` prints them, with
/// an optional key prefix ("w3\t") for per-window signatures.
void DumpSignatures(std::ofstream& out, const std::string& prefix,
                    const Interner& interner, const std::vector<NodeId>& focal,
                    const std::vector<Signature>& sigs) {
  for (size_t i = 0; i < focal.size(); ++i) {
    if (sigs[i].empty()) continue;
    out << prefix << interner.LabelOf(focal[i]) << '\t'
        << sigs[i].ToString(interner) << '\n';
  }
}

int Replay(const Flags& flags) {
  const Workload w = ParseWorkload(flags.Str("workload"));
  const std::string csv = flags.Str("csv");
  const uint64_t length = flags.Int("window-length");
  const std::string dump_path = flags.Str("dump", "-");
  const std::string trace_path = flags.Str("trace-out", "-");
  SpanRecorder rec(flags.values.count("run-id") ? flags.Int("run-id") : 1);
  std::ofstream dump;
  if (dump_path != "-") dump.open(dump_path);

  Interner interner;
  RecordErrorLog errors;
  Json values;  // the numbers the command prints, for the output check
  values.Open('{');
  std::map<std::string, double> m;  // per-layer metrics

  const int root = rec.Begin("cli", "replay");
  std::vector<TraceEvent> events = Timed(rec, "ingest", "read_trace_csv", [&] {
    return ReadTrace(csv, interner, errors);
  });
  std::vector<CommGraph> windows;
  if (w != Workload::kStreamCheckpoint) {
    const char* call =
        w == Workload::kTimelineLoad ? "split_sliding" : "split";
    windows = Timed(rec, "graph", call, [&] {
      return BuildWindows(w, interner.size(), length, events);
    });
  }
  const SignatureDistance shel(*ParseDistanceName("shel"));  // --dist default
  ThreadPool pool(1);  // `commsig --threads 1`
  std::vector<NodeId> focal;
  std::unique_ptr<StreamingSignatureBuilder> builder;

  switch (w) {
    case Workload::kTimelineLoad: {
      focal = FocalFromWindows(interner.size(), windows);
      auto scheme = MustScheme("tt");
      const auto per_window = Timed(rec, "core.incremental",
                                    "compute_signature_timeline", [&] {
        return ComputeSignatureTimeline(*scheme, windows, focal,
                                        SignatureTimelineOptions{});
      });
      const auto transitions =
          Timed(rec, "eval", "persistence_per_transition",
                [&] { return PersistencePerTransition(per_window, shel); });
      const auto lags = Timed(rec, "eval", "persistence_by_lag", [&] {
        return PersistenceByLag(per_window, shel, /*max_lag=*/5);
      });
      rec.End(root);
      values.Key("windows").Num(static_cast<double>(windows.size()))
          .Key("focal").Num(static_cast<double>(focal.size()))
          .Key("transitions").Open('[');
      for (const TransitionStats& t : transitions) {
        values.Open('[').Num(t.mean_persistence).Num(t.std_persistence)
            .Close(']');
      }
      values.Close(']').Key("lags").Open('[');
      for (const LagStats& l : lags) {
        values.Open('[').Num(l.mean_persistence).Num(l.std_persistence)
            .Num(static_cast<double>(l.samples)).Close(']');
      }
      values.Close(']');
      if (dump.is_open()) {
        for (size_t i = 0; i < per_window.size(); ++i) {
          DumpSignatures(dump, "w" + std::to_string(i) + "\t", interner, focal,
                         per_window[i]);
        }
      }
      break;
    }
    case Workload::kSelfmatchTt: {
      focal = FocalFromWindows(interner.size(), windows);
      auto scheme = MustScheme("tt");
      std::vector<std::vector<Signature>> sigs;
      for (size_t i = 0; i < 2; ++i) {
        sigs.push_back(Timed(rec, "core.scheme", "compute_all_parallel", [&] {
          return ComputeAllParallel(*scheme, windows.at(i), focal, pool);
        }));
      }
      const auto rocs = Timed(rec, "eval", "selfmatch_roc", [&] {
        return SelfMatchRoc(sigs[0], sigs[1], shel);
      });
      const PropertyEllipse e = Timed(rec, "eval", "summarize_properties", [&] {
        return SummarizeProperties(sigs[0], sigs[1], shel, 50000);
      });
      const double auc = MeanAuc(rocs);
      rec.End(root);
      values.Key("auc").Num(auc)
          .Key("persistence").Open('[').Num(e.mean_persistence)
          .Num(e.std_persistence).Close(']')
          .Key("uniqueness").Open('[').Num(e.mean_uniqueness)
          .Num(e.std_uniqueness).Close(']');
      if (dump.is_open()) {
        for (size_t i = 0; i < 2; ++i) {
          DumpSignatures(dump, "w" + std::to_string(i) + "\t", interner, focal,
                         sigs[i]);
        }
      }
      break;
    }
    case Workload::kPaperRwr: {
      focal = FocalFromWindows(interner.size(), windows);
      auto scheme = MustScheme("rwr(c=0.1)");
      const auto sigs = Timed(rec, "core.rwr", "compute_all_parallel", [&] {
        return ComputeAllParallel(*scheme, windows.at(0), focal, pool);
      });
      rec.End(root);
      if (dump.is_open()) DumpSignatures(dump, "", interner, focal, sigs);
      break;
    }
    case Workload::kStreamCheckpoint: {
      std::vector<bool> is_src(interner.size(), false);
      for (const TraceEvent& e : events) is_src[e.src] = true;
      for (NodeId v = 0; v < is_src.size(); ++v) {
        if (is_src[v]) focal.push_back(v);
      }
      // StreamSupervisor::Run's fault-free epoch loop, unrolled so the
      // sketch updates and the checkpoint saves get spans of their own.
      const std::string ckpt_dir = flags.Str("tmp-dir") + "/replay_ckpt";
      std::filesystem::remove_all(ckpt_dir);
      double checkpoint_bytes = 0.0;
      uint64_t save_failures = 0;
      Timed(rec, "robust", "supervisor_run", [&] {
        const uint64_t fingerprint =
            StreamSupervisor::FingerprintEvents(events);
        StreamingSignatureBuilder::Options opts;
        opts.seed = 0xc0de;  // `commsig stream --seed` default
        builder = std::make_unique<StreamingSignatureBuilder>(focal, opts);
        CheckpointManager manager(ckpt_dir);
        Retrier retrier{RetryPolicy{}};
        auto save = [&](uint64_t pos) {
          Timed(rec, "robust", "checkpoint_save", [&] {
            ByteWriter out;
            out.PutU64(fingerprint);
            out.PutU64(pos);
            builder->AppendTo(out);
            checkpoint_bytes += static_cast<double>(out.bytes().size());
            Status s = retrier.Run("checkpoint_save", [&] {
              return manager.Save(pos, out.bytes());
            });
            if (!s.ok()) ++save_failures;
          });
        };
        const uint64_t n = events.size();
        for (uint64_t pos = 0; pos < n;) {
          const uint64_t end = std::min(n, (pos / kCheckpointEvery + 1) *
                                               kCheckpointEvery);
          Timed(rec, "sketch", "observe", [&] {
            for (uint64_t i = pos; i < end; ++i) builder->Observe(events[i]);
          });
          pos = end;
          if (pos % kCheckpointEvery == 0) save(pos);
        }
        if (n > 0) save(n);
      });
      std::vector<Signature> tt, ut;
      Timed(rec, "sketch", "extract", [&] {
        for (NodeId v : focal) {
          tt.push_back(builder->TopTalkers(v, kK));
          ut.push_back(builder->UnexpectedTalkers(v, kK));
        }
      });
      rec.End(root);
      std::filesystem::remove_all(ckpt_dir);
      m["sketch.memory_mb"] = static_cast<double>(builder->MemoryBytes()) / 1e6;
      m["robust.checkpoint_mb"] = checkpoint_bytes / 1e6;
      m["robust.checkpoint_failures"] = static_cast<double>(save_failures);
      if (dump.is_open()) {
        for (size_t i = 0; i < focal.size(); ++i) {
          const std::string& label = interner.LabelOf(focal[i]);
          dump << label << "\ttt\t" << tt[i].ToString(interner) << '\n'
               << label << "\tut\t" << ut[i].ToString(interner) << '\n';
        }
      }
      break;
    }
  }
  values.Close('}');

  // Per-layer metrics (run.py adds the shares and cli.dark_s).
  auto count = [&](const char* counter) {
    return static_cast<double>(rec.CounterDelta(counter));
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double parse_s = rec.CallSeconds("ingest/read_trace_csv");
  m["ingest.parse_s"] = parse_s;
  m["ingest.events"] = static_cast<double>(events.size());
  m["ingest.mb_per_s"] =
      ratio(static_cast<double>(std::filesystem::file_size(csv)) / 1e6,
            parse_s);
  m["ingest.rejected"] = static_cast<double>(errors.total());
  m["graph.window_build_s"] =
      rec.CallSeconds("graph/split") + rec.CallSeconds("graph/split_sliding");
  m["graph.windows"] = static_cast<double>(windows.size());
  double edges = 0.0;
  for (const CommGraph& g : windows) edges += static_cast<double>(g.NumEdges());
  m["graph.edges"] = edges;
  m["graph.dropped_events"] = count("robust/windower_dropped_events");
  m["core.scheme_s"] = rec.CallSeconds("core.scheme/compute_all_parallel");
  m["core.signatures_built"] = count("signature/built");
  m["core.rwr_s"] = rec.CallSeconds("core.rwr/compute_all_parallel");
  m["core.rwr_iterations"] = count("rwr/iterations");
  m["core.rwr_dense_iterations"] = count("rwr/batch_dense_iterations");
  m["core.rwr_iters_per_source"] =
      ratio(count("rwr/iterations"), count("rwr/calls"));
  m["core.rwr_fallbacks"] = count("robust/rwr_fallbacks");
  m["core.incremental_s"] =
      rec.CallSeconds("core.incremental/compute_signature_timeline");
  m["core.nodes_dirty"] = count("timeline/nodes_dirty");
  m["core.nodes_reused"] = count("timeline/nodes_reused");
  m["core.reuse_ratio"] =
      ratio(count("timeline/nodes_reused"),
            count("timeline/nodes_dirty") + count("timeline/nodes_reused"));
  m["eval.selfmatch_roc_s"] = rec.CallSeconds("eval/selfmatch_roc");
  m["eval.properties_s"] = rec.CallSeconds("eval/summarize_properties");
  m["eval.persistence_s"] = rec.CallSeconds("eval/persistence_per_transition") +
                            rec.CallSeconds("eval/persistence_by_lag");
  m["core.distance_evals"] = count("distance/evaluations");
  m["core.distance_evals_per_s"] =
      ratio(count("distance/evaluations"),
            m["eval.selfmatch_roc_s"] + m["eval.properties_s"] +
                m["eval.persistence_s"]);
  m["sketch.observe_s"] = rec.CallSeconds("sketch/observe");
  m["sketch.extract_s"] = rec.CallSeconds("sketch/extract");
  m["sketch.updates"] = count("sketch/cm_updates") +
                        count("sketch/ss_updates") + count("sketch/fm_updates");
  m["sketch.ss_evictions"] = count("sketch/ss_evictions");
  m.try_emplace("sketch.memory_mb", 0.0);
  m["robust.supervisor_s"] = rec.CallSeconds("robust/supervisor_run");
  m["robust.checkpoint_s"] = rec.CallSeconds("robust/checkpoint_save");
  m.try_emplace("robust.checkpoint_mb", 0.0);
  m["robust.checkpoints"] = count("robust/checkpoints_saved");
  m.try_emplace("robust.checkpoint_failures", 0.0);
  m["robust.epoch_retries"] = count("robust/epoch_failures");
  m["trace.replay_s"] = rec.CallSeconds("cli/replay");

  if (trace_path != "-" && !rec.WriteChromeTrace(trace_path)) {
    Die("cannot write " + trace_path);
  }
  if (dump.is_open() && !dump.good()) Die("cannot write " + dump_path);

  Json j;
  j.Open('{').Key("self_s").Open('{');
  for (const auto& [layer, s] : rec.LayerSelfSeconds()) j.Key(layer).Num(s);
  j.Close('}').Key("metrics").Open('{');
  for (const auto& [name, v] : m) j.Key(name).Num(v);
  j.Close('}').Key("values");
  std::printf("%s%s}\n", j.str().c_str(), values.str().c_str());
  return 0;
}

}  // namespace
}  // namespace commsig::perfbench

int main(int argc, char** argv) {
  using namespace commsig::perfbench;
  if (argc < 2) Die("usage: perfbench_tool gen|setup|replay --flag value ...");
  Flags flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("bad flag " + key);
    flags.values[key.substr(2)] = argv[i + 1];
  }
  const std::string mode = argv[1];
  if (mode == "gen") return Gen(flags);
  if (mode == "setup") return Setup(flags);
  if (mode == "replay") return Replay(flags);
  Die("unknown mode " + mode);
}
