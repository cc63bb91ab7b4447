#ifndef COMMSIG_INGEST_PIPELINE_H_
#define COMMSIG_INGEST_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "core/signature_io.h"
#include "data/netflow.h"
#include "graph/comm_graph.h"
#include "graph/windower.h"
#include "robust/degradation.h"
#include "robust/record_errors.h"

namespace commsig::ingest {

/// What the framer does when a parse worker's input queue is full.
enum class BackpressurePolicy {
  /// Block the IO stage until the worker catches up (lossless; default).
  kBlock,
  /// Drop the framed chunk, count it under ingest/chunks_shed and report
  /// overload to the degradation controller. Sheds whole chunks, so the
  /// output is NOT equivalent to a lossless read — reserved for live
  /// sources where falling behind is worse than sampling. Inline runs
  /// (parse_workers == 0) have no queue and never shed.
  kShed,
};

/// Input format for the event-producing entry points.
enum class PipelineFormat {
  kTraceCsv,   // src,dst,time,weight rows (data/trace_io writes them)
  kNetflowV5,  // concatenated v5 export packets (data/netflow writes them)
};

struct PipelineOptions {
  /// Parse worker threads. 0 runs inline: frame, decode and merge one chunk
  /// at a time on the calling thread, with no threads or queues. N > 0 runs
  /// a framer thread and N workers feeding the merge on the calling thread.
  int parse_workers = 0;
  /// Target raw bytes per framed chunk.
  size_t chunk_bytes = 256 * 1024;
  /// Bounded queue capacity (in chunks/batches) between each stage pair
  /// (threaded runs only).
  size_t queue_capacity = 8;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Error policy / budgets / quarantine sink, applied by the merge stage
  /// in exact stream order (identical at every worker count).
  IngestOptions ingest;
  /// Record filtering/weighting for kNetflowV5.
  NetflowReadOptions netflow;
  /// Optional: kShed drops report overload here (not owned; may be null).
  DegradationController* degradation = nullptr;
};

/// Counters for one pipeline run, also published to the obs registry under
/// ingest/*.
struct PipelineStats {
  uint64_t chunks_framed = 0;
  uint64_t chunks_shed = 0;
  uint64_t batches_merged = 0;
  uint64_t records_parsed = 0;  // accepted records entering the merge
  uint64_t producer_stalls = 0;
  uint64_t consumer_stalls = 0;
};

/// The one input reader: framer -> decode -> in-order merge, inline or
/// with parse workers. Reads a trace CSV or a NetFlow v5 export into
/// events. Under kBlock back-pressure the result — events, interner
/// contents and id assignment, error-log entries, budgets, and failure
/// status — is bit-identical at every worker count. ReadTraceCsv is this
/// call at parse_workers = 0.
Result<std::vector<TraceEvent>> ReadTraceEventsPipelined(
    const std::string& path, PipelineFormat format, Interner& interner,
    const PipelineOptions& options, PipelineStats* stats = nullptr);

/// Edge-list CSV reader behind ReadEdgeListCsv (same guarantee).
Result<CommGraph> ReadEdgeListPipelined(const std::string& path,
                                        Interner& interner,
                                        NodeId bipartite_left_size,
                                        const PipelineOptions& options,
                                        PipelineStats* stats = nullptr);

/// Signature-set CSV reader behind ReadSignatureSetCsv (same guarantee).
Result<SignatureSet> ReadSignatureSetPipelined(const std::string& path,
                                               Interner& interner,
                                               const PipelineOptions& options,
                                               PipelineStats* stats = nullptr);

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_PIPELINE_H_
