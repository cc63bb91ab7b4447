#include "graph/graph_io.h"

#include <string>

#include "common/csv.h"
#include "ingest/pipeline.h"

namespace commsig {

Status WriteEdgeListCsv(const CommGraph& g, const Interner& interner,
                        const std::string& path) {
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  // Header comment is informational; readers skip '#' lines.
  writer.WriteRow({"# commsig-graph nodes=" + std::to_string(g.NumNodes()) +
                   " left=" + std::to_string(g.bipartite().left_size)});
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      writer.WriteRow({interner.LabelOf(v), interner.LabelOf(e.node),
                       std::to_string(e.weight)});
    }
  }
  return writer.Close();
}

Result<CommGraph> ReadEdgeListCsv(const std::string& path, Interner& interner,
                                  NodeId bipartite_left_size,
                                  const IngestOptions& options) {
  ingest::PipelineOptions inline_read;
  inline_read.ingest = options;
  return ingest::ReadEdgeListPipelined(path, interner, bipartite_left_size,
                                       inline_read);
}

}  // namespace commsig
