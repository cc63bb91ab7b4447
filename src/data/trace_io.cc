#include "data/trace_io.h"

#include <string>

#include "common/csv.h"
#include "ingest/pipeline.h"

namespace commsig {

Status WriteTraceCsv(const std::vector<TraceEvent>& events,
                     const Interner& interner, const std::string& path) {
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  writer.WriteRow({"# commsig-trace src,dst,time,weight"});
  for (const TraceEvent& e : events) {
    writer.WriteRow({interner.LabelOf(e.src), interner.LabelOf(e.dst),
                     std::to_string(e.time), std::to_string(e.weight)});
  }
  return writer.Close();
}

Result<std::vector<TraceEvent>> ReadTraceCsv(const std::string& path,
                                             Interner& interner,
                                             const IngestOptions& options) {
  ingest::PipelineOptions inline_read;
  inline_read.ingest = options;
  return ingest::ReadTraceEventsPipelined(
      path, ingest::PipelineFormat::kTraceCsv, interner, inline_read);
}

}  // namespace commsig
