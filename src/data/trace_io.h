#ifndef COMMSIG_DATA_TRACE_IO_H_
#define COMMSIG_DATA_TRACE_IO_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "graph/windower.h"
#include "robust/record_errors.h"

namespace commsig {

/// Writes a trace as CSV rows `src_label,dst_label,time,weight` — the
/// interchange format for loading real NetFlow-style or query-log data into
/// commsig.
Status WriteTraceCsv(const std::vector<TraceEvent>& events,
                     const Interner& interner, const std::string& path);

/// Reads a trace written by WriteTraceCsv (or hand-prepared in the same
/// format), interning labels into `interner` in row order. Malformed rows
/// (wrong field count, empty labels, unparseable numbers, NaN/Inf or
/// non-positive weights, and — with `require_monotonic_time` — timestamp
/// regressions) are handled per `options.policy`; the default fails with
/// InvalidArgument. Labels of rejected rows are never interned. This is
/// the ingestion pipeline run inline (ingest::ReadTraceEventsPipelined at
/// parse_workers = 0).
Result<std::vector<TraceEvent>> ReadTraceCsv(const std::string& path,
                                             Interner& interner,
                                             const IngestOptions& options = {});

}  // namespace commsig

#endif  // COMMSIG_DATA_TRACE_IO_H_
