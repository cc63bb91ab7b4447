#ifndef COMMSIG_COMMON_CSV_H_
#define COMMSIG_COMMON_CSV_H_

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace commsig {

/// Minimal CSV writer for commsig's trace, edge-list and signature files.
/// No quoting/escaping — the on-disk formats are plain delimited numbers
/// and labels without embedded delimiters. ingest/pipeline reads them.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path, char delim = ',');

  const Status& status() const { return status_; }

  /// Writes one row; fields must not contain the delimiter or newlines.
  void WriteRow(const std::vector<std::string>& fields);

  /// Flushes and reports any I/O error.
  Status Close();

 private:
  std::ofstream out_;
  char delim_;
  Status status_;
};

/// Parses a double, rejecting trailing garbage.
Result<double> ParseDouble(std::string_view text);

/// Parses a non-negative integer, rejecting trailing garbage.
Result<uint64_t> ParseUint(std::string_view text);

/// Allocation-free equivalents of ParseDouble/ParseUint for the ingestion
/// hot loops: same accept/reject decisions and the same parsed values,
/// bit for bit, but no Status construction on failure. The common all-digit
/// forms take an exact integer fast path; anything else (signs, whitespace,
/// exponents, hex floats, out-of-range values) goes through the identical
/// strtod/strtoull slow path the Result variants have always used, so the
/// corrupt-corpus behaviour of every reader is unchanged.
bool TryParseDouble(std::string_view text, double& out);
bool TryParseUint(std::string_view text, uint64_t& out);

}  // namespace commsig

#endif  // COMMSIG_COMMON_CSV_H_
