#ifndef COMMSIG_GRAPH_GRAPH_IO_H_
#define COMMSIG_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/interner.h"
#include "common/result.h"
#include "graph/comm_graph.h"
#include "robust/record_errors.h"

namespace commsig {

/// Writes `g` as an edge-list CSV: one `src_label,dst_label,weight` row per
/// edge, where labels come from `interner`. A `# commsig-graph` header
/// comment records node count and bipartite split.
Status WriteEdgeListCsv(const CommGraph& g, const Interner& interner,
                        const std::string& path);

/// Reads an edge-list CSV produced by WriteEdgeListCsv (or hand-written in
/// the same `src,dst,weight` format), interning labels into `interner`.
/// Repeated (src,dst) rows aggregate. `bipartite_left_size` (optional) flags
/// the first ids as V1; pass 0 for a general graph. Malformed rows (wrong
/// field count, empty labels, unparseable / NaN / Inf / non-positive
/// weights) are handled per `options.policy`; the default fails with
/// InvalidArgument. Labels of rejected rows are never interned. This is
/// ingest::ReadEdgeListPipelined run inline.
Result<CommGraph> ReadEdgeListCsv(const std::string& path, Interner& interner,
                                  NodeId bipartite_left_size = 0,
                                  const IngestOptions& options = {});

}  // namespace commsig

#endif  // COMMSIG_GRAPH_GRAPH_IO_H_
