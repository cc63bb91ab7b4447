#ifndef COMMSIG_TESTS_ORACLE_SERIAL_REFERENCE_H_
#define COMMSIG_TESTS_ORACLE_SERIAL_REFERENCE_H_

// Test oracle for the ingestion pipeline: the row-at-a-time readers that
// commsig shipped before every input went through ingest/pipeline. Each
// one reads the whole file into memory, walks it line by line (or packet
// by packet) and interns labels as rows are accepted. The pipeline's
// chunked, batched, optionally threaded reads must reproduce them bit for
// bit: events, graphs and signature sets, interner id assignment, error-log
// entries and failure statuses.
//
// Row validation shares ingest/record_decode.h with the pipeline, so the
// two differ exactly where the pipeline is clever: framing, scanning,
// label deduplication, stream-ordered error policy and merging.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "core/signature_io.h"
#include "data/netflow.h"
#include "graph/comm_graph.h"
#include "graph/windower.h"
#include "robust/record_errors.h"

namespace commsig::serial_reference {

/// Splits one CSV line on `delim` into owned fields. No unescaping; empty
/// fields are preserved.
std::vector<std::string> SplitCsvLine(std::string_view line, char delim = ',');

/// Splits `line` on `delim` into string_views over `line`, storing at most
/// `max_out` of them in `out`. Returns the TOTAL field count (which may
/// exceed `max_out` — readers report that count in their error details).
/// Field semantics match SplitCsvLine.
size_t SplitFields(std::string_view line, char delim, std::string_view* out,
                   size_t max_out);

/// Reads an entire file into memory (binary mode). IOError "cannot open
/// <path>" when the file cannot be opened and "read error on <path>" on a
/// failed read.
Result<std::string> ReadFileBytes(const std::string& path);

/// Zero-copy line scanner over an in-memory buffer: lines split on '\n',
/// one trailing '\r' stripped, blank lines and '#' comments skipped, a
/// final line without a newline still returned, and line_number() counting
/// data lines only. The buffer must outlive every string_view handed out.
class LineScanner {
 public:
  explicit LineScanner(std::string_view data) : data_(data) {}

  /// Advances to the next data line. Returns false at end of buffer.
  bool Next(std::string_view& line) {
    while (pos_ < data_.size()) {
      size_t end = data_.find('\n', pos_);
      if (end == std::string_view::npos) end = data_.size();
      std::string_view candidate = data_.substr(pos_, end - pos_);
      pos_ = end + 1;
      if (!candidate.empty() && candidate.back() == '\r') {
        candidate.remove_suffix(1);
      }
      if (candidate.empty() || candidate.front() == '#') continue;
      ++line_number_;
      line = candidate;
      return true;
    }
    return false;
  }

  /// Number of data lines consumed so far (for error positions).
  uint64_t line_number() const { return line_number_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  uint64_t line_number_ = 0;
};

/// Reference for commsig::ReadTraceCsv.
Result<std::vector<TraceEvent>> ReadTraceCsv(const std::string& path,
                                             Interner& interner,
                                             const IngestOptions& options = {});

/// Reference for commsig::ReadEdgeListCsv.
Result<CommGraph> ReadEdgeListCsv(const std::string& path, Interner& interner,
                                  NodeId bipartite_left_size = 0,
                                  const IngestOptions& options = {});

/// Reference for commsig::ReadSignatureSetCsv.
Result<SignatureSet> ReadSignatureSetCsv(const std::string& path,
                                         Interner& interner,
                                         const IngestOptions& options = {});

/// Parses a file of concatenated NetFlow v5 export packets (24-byte header
/// + N x 48-byte records, all fields big-endian) into flow records. Under
/// ErrorPolicy::kSkip/kQuarantine, corrupt headers are rejected
/// (kBadMagic / kBadRecordCount) and the reader resynchronizes by scanning
/// forward for the next plausible v5 header; a truncated final packet
/// salvages its whole records (kTruncated). With `require_monotonic_time`,
/// a packet whose export timestamp precedes the previous accepted packet's
/// is rejected (kTimestampRegression). kFail and exhausted budgets fail
/// with Corruption.
Result<std::vector<NetflowV5Record>> ReadNetflowV5File(
    const std::string& path, const IngestOptions& options = {});

/// Converts flow records to events, interning dotted-decimal labels in
/// record order. Records filtered out by `options` are skipped;
/// zero-weight records are dropped. ReadNetflowV5File followed by this is
/// the reference for the pipeline's PipelineFormat::kNetflowV5 read.
std::vector<TraceEvent> NetflowToEvents(
    const std::vector<NetflowV5Record>& records, Interner& interner,
    const NetflowReadOptions& options = {});

}  // namespace commsig::serial_reference

#endif  // COMMSIG_TESTS_ORACLE_SERIAL_REFERENCE_H_
