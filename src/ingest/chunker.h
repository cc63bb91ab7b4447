#ifndef COMMSIG_INGEST_CHUNKER_H_
#define COMMSIG_INGEST_CHUNKER_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "common/result.h"
#include "ingest/record_batch.h"

namespace commsig::ingest {

/// Input framing for the pipeline's IO stage.
enum class ChunkFormat {
  kCsvLines,   // cut on line boundaries (trace / edge-list / signature CSV)
  kNetflowV5,  // cut on packet boundaries, validating headers while framing
};

/// The pipeline's serial IO/framing stage: reads the input in large blocks
/// and cuts it into RawChunks on record boundaries, so parse workers never
/// see a record split across chunks.
///
/// CSV framing cuts at the last newline inside ~chunk_bytes (extending past
/// the target when a single line is longer). NetFlow framing replays the
/// serial reference's exact packet walk — header validation, forward resync
/// after a corrupt header, truncated-final-packet salvage, and (under
/// require_monotonic_time) header-timestamp regression checks — because
/// those decisions need the inter-packet stream state that only a serial
/// stage has. Rejections are not *applied* here (policy and budgets are
/// stream-ordered, merge-stage decisions); they are recorded as
/// FramingRejects for the merge stage to replay.
///
/// Each buffer refill evaluates the "ingest/frame" fail-point, so chaos
/// tests can kill the IO stage mid-stream.
class Chunker {
 public:
  /// Opens `path`. Check status() before calling Next. `monotonic_time`
  /// only affects kNetflowV5 (CSV monotonicity is a merge-stage check).
  Chunker(const std::string& path, ChunkFormat format, size_t chunk_bytes,
          bool monotonic_time);

  /// OK if the file opened ("cannot open <path>" IOError otherwise —
  /// byte-identical to the serial reference).
  const Status& status() const { return status_; }

  /// Frames the next chunk into `chunk` (Clear()ed first; `seq` assigned
  /// monotonically from 0). Returns false at end of input, or an IO /
  /// fail-point error.
  Result<bool> Next(RawChunk& chunk);

 private:
  Result<bool> NextCsv(RawChunk& chunk);
  Result<bool> NextNetflow(RawChunk& chunk);

  /// Reads one block from the file into buf_, compacting the consumed
  /// prefix first. Sets eof_ when the input is exhausted.
  Status Refill();

  size_t Avail() const { return buf_.size() - pos_; }
  const unsigned char* Cur() const {
    return reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  }
  /// Absolute byte offset of the next unconsumed byte.
  uint64_t AbsPos() const { return consumed_ + pos_; }

  std::ifstream in_;
  std::string path_;
  Status status_;
  ChunkFormat format_;
  size_t chunk_bytes_;
  bool monotonic_time_;

  std::string buf_;
  size_t pos_ = 0;         // consumed prefix of buf_
  uint64_t consumed_ = 0;  // absolute offset of buf_[0]
  bool eof_ = false;
  uint64_t next_seq_ = 0;

  // NetFlow stream state (mirrors the serial reference's locals).
  uint64_t skip_bytes_ = 0;  // remainder of a rejected packet body
  bool resyncing_ = false;   // scanning forward for a plausible header
  uint32_t last_secs_ = 0;
  bool have_last_secs_ = false;
};

}  // namespace commsig::ingest

#endif  // COMMSIG_INGEST_CHUNKER_H_
