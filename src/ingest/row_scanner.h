#ifndef COMMSIG_INGEST_ROW_SCANNER_H_
#define COMMSIG_INGEST_ROW_SCANNER_H_

// Fused structural scanner for the parse workers' CSV decode loop.
//
// A line scanner followed by a field splitter walks every row twice: a
// memchr for the newline, then a second pass over the same bytes for the
// delimiters. FusedRowScanner makes one structural pass per 64-byte block —
// a pair of byte-equality masks from common/simd.h — and then touches only
// the separator positions, so a typical 4-field row costs a handful of bit
// operations instead of two byte scans.
//
// Semantics contract (checked by tests/ingest/row_scanner_test.cc): for any
// buffer, the sequence of (line, fields[0..min(count,max)), total count,
// line_number) produced here is identical to the test oracle's
// LineScanner::Next followed by SplitFields(line, delim, fields, max)
// (tests/oracle/serial_reference.h): lines split on '\n', one trailing
// '\r' stripped, blank lines and '#' comments skipped without counting,
// a final line without a newline still returned, and the TOTAL field count
// reported even when it exceeds `max_fields`.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/simd.h"

namespace commsig::ingest {

class FusedRowScanner {
 public:
  /// `data` must outlive every string_view handed out.
  FusedRowScanner(std::string_view data, char delim)
      : data_(data), delim_(delim) {}

  /// Advances to the next data line. On true, `line` is the line with any
  /// trailing '\r' stripped, fields[0..min(total, max_fields)) hold its
  /// split fields, and `total` is the full field count. False at end.
  bool Next(std::string_view& line, std::string_view* fields,
            size_t max_fields, size_t& total) {
    size_t line_start = pos_;
    size_t field_start = pos_;
    size_t nf = 0;
    while (true) {
      while (combined_ == 0) {
        if (!LoadBlock()) {
          // No separators left. A trailing unterminated line — if any
          // bytes remain — ends at the buffer end.
          if (line_start >= data_.size()) return false;
          return FinishLine(data_.size(), line_start, field_start, nf, line,
                            fields, max_fields, total);
        }
      }
      const uint64_t low = combined_ & (~combined_ + 1);
      const size_t pos = block_base_ + static_cast<size_t>(
                                           __builtin_ctzll(combined_));
      combined_ &= combined_ - 1;
      if ((nl_mask_ & low) == 0) {
        // Delimiter: record the field ending here.
        if (nf < max_fields) {
          fields[nf] = data_.substr(field_start, pos - field_start);
        }
        ++nf;
        field_start = pos + 1;
        continue;
      }
      // Newline: the candidate line is [line_start, pos).
      if (FinishLine(pos, line_start, field_start, nf, line, fields,
                     max_fields, total)) {
        return true;
      }
      // Blank or comment line: drop its fields and restart after it.
      line_start = pos_;
      field_start = pos_;
      nf = 0;
    }
  }

  /// Number of data lines consumed so far (blank and comment lines are not
  /// counted).
  uint64_t line_number() const { return line_number_; }

 private:
  /// Loads separator masks for the next 64-byte block. False when the
  /// buffer is exhausted.
  bool LoadBlock() {
    const size_t next = block_loaded_ ? block_base_ + 64 : 0;
    if (next >= data_.size()) return false;
    block_base_ = next;
    block_loaded_ = true;
    const size_t rem = data_.size() - next;
    uint64_t delim_mask;
    if (rem >= 64) {
      simd::ByteEq2Mask64(data_.data() + next, '\n', delim_, nl_mask_,
                          delim_mask);
    } else {
      char tail[64] = {0};
      std::memcpy(tail, data_.data() + next, rem);
      simd::ByteEq2Mask64(tail, '\n', delim_, nl_mask_, delim_mask);
      const uint64_t keep = (uint64_t{1} << rem) - 1;
      nl_mask_ &= keep;
      delim_mask &= keep;
    }
    combined_ = nl_mask_ | delim_mask;
    return true;
  }

  /// Completes the line ending (exclusive) at `end`. Returns false when the
  /// line is blank or a '#' comment — skipped without counting, with pos_
  /// already advanced past it.
  bool FinishLine(size_t end, size_t line_start, size_t field_start,
                  size_t nf, std::string_view& line, std::string_view* fields,
                  size_t max_fields, size_t& total) {
    pos_ = end + 1;
    if (end > line_start && data_[end - 1] == '\r') --end;
    if (end == line_start || data_[line_start] == '#') return false;
    ++line_number_;
    line = data_.substr(line_start, end - line_start);
    // Delimiters were all at positions < end (a stripped '\r' cannot be a
    // delimiter), so the final field runs from the last one to `end`; when
    // the '\r' immediately follows a delimiter the field is empty, exactly
    // as a split of the stripped line sees.
    if (nf < max_fields) {
      fields[nf] = data_.substr(field_start, end - field_start);
    }
    total = nf + 1;
    return true;
  }

  std::string_view data_;
  char delim_;
  size_t pos_ = 0;
  uint64_t line_number_ = 0;
  // Current 64-byte block: base offset, newline-position mask, and the
  // remaining (newline | delimiter) bits still to visit in order.
  size_t block_base_ = 0;
  bool block_loaded_ = false;
  uint64_t nl_mask_ = 0;
  uint64_t combined_ = 0;
};

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_ROW_SCANNER_H_
