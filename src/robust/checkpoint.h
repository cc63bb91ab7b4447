#ifndef COMMSIG_ROBUST_CHECKPOINT_H_
#define COMMSIG_ROBUST_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace commsig {

/// A checkpoint recovered from disk.
struct CheckpointData {
  uint64_t sequence = 0;
  std::string payload;
  /// True when the newest on-disk checkpoint failed validation and an older
  /// one was used instead.
  bool recovered_from_fallback = false;
  /// Number of corrupt/unreadable checkpoint files skipped over.
  size_t corrupt_skipped = 0;
};

/// Durable checkpoint store for streaming pipelines.
///
/// Files are framed as  magic | format version | sequence | payload length |
/// CRC32(payload) | payload  (all little-endian, see ByteWriter), written to
/// a temporary name, fsynced, atomically renamed into place, and made
/// durable with a directory fsync — a crash mid-write leaves at most a
/// stray .tmp, never a half-written checkpoint under the live name, and a
/// power cut after a successful Save cannot lose the frame. The payload is
/// encoded straight into the temporary file one ByteWriter chunk at a time,
/// with the CRC extended per chunk, and the 28-byte header goes in last at
/// offset 0 — so saving never holds the whole payload in memory. Every IO
/// step runs through the robust/failpoints layer so tests and `commsig
/// chaoscheck` can tear any of them deterministically. LoadLatest walks
/// checkpoints newest-first and returns the first that passes framing +
/// CRC validation, so a torn or bit-flipped newest file falls back to the
/// previous good one instead of killing the restore.
///
/// The payload is opaque application state (for the `commsig stream`
/// pipeline: the serialized StreamingSignatureBuilder plus stream cursor).
///
/// Thread safety: Save is internally serialized by `io_mutex_` — concurrent
/// Save calls share one `<stem>.tmp` scratch file, and unserialized writers
/// could interleave writes into it and rename a torn frame into place.
/// LoadLatest is safe concurrently with Save without the lock: checkpoints
/// become visible only via the atomic rename, and a file pruned mid-scan
/// just registers as a skip on the fallback walk.
class CheckpointManager {
 public:
  struct Options {
    /// Filename stem: checkpoints are `<stem>.<seq>.ckpt`.
    std::string stem = "ckpt";
    /// Good checkpoints retained on disk; older ones are pruned after each
    /// Save. Minimum 2 — the fallback guarantee needs a predecessor.
    size_t keep = 2;
  };

  explicit CheckpointManager(std::string dir) : CheckpointManager(std::move(dir), Options()) {}
  CheckpointManager(std::string dir, Options options);

  /// Atomically persists checkpoint `sequence` (monotonically increasing,
  /// caller-chosen; the event count works well) with the payload `encode`
  /// writes into the streaming ByteWriter it is handed. Creates the
  /// directory if needed and prunes checkpoints beyond `keep`. A retried
  /// Save calls `encode` again, so it must write the same bytes every
  /// time; it runs under the manager's lock and must not call back in.
  Status Save(uint64_t sequence,
              const std::function<void(ByteWriter&)>& encode)
      COMMSIG_EXCLUDES(io_mutex_);

  /// Save of a payload already in memory, through the same write path.
  Status Save(uint64_t sequence, std::string_view payload)
      COMMSIG_EXCLUDES(io_mutex_);

  /// Newest checkpoint that validates, or NotFound when the directory holds
  /// none (including the fresh-start case of a missing directory).
  Result<CheckpointData> LoadLatest() const;

  const std::string& dir() const { return dir_; }

 private:
  std::string FileName(uint64_t sequence) const;
  Status WriteCheckpoint(uint64_t sequence,
                         const std::function<void(ByteWriter&)>& encode)
      COMMSIG_EXCLUDES(io_mutex_);

  std::string dir_;
  Options options_;
  /// Serializes writers: guards the shared .tmp scratch file and the prune
  /// pass. Innermost apart from the obs-registry mutex (counter updates),
  /// which never calls back into this class.
  Mutex io_mutex_;
};

}  // namespace commsig

#endif  // COMMSIG_ROBUST_CHECKPOINT_H_
