#include "robust/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "obs/log.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "robust/failpoints.h"

namespace commsig {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kMagic = 0x43534350;  // "PCSC" little-endian: CSCP
constexpr uint32_t kFormatVersion = 1;
/// magic (4) | version (4) | sequence (8) | payload length (8) | CRC (4).
constexpr size_t kHeaderBytes = 28;

/// Extracts the sequence number from `<stem>.<seq>.ckpt`, or returns false.
bool ParseSequence(const std::string& name, const std::string& stem,
                   uint64_t* sequence) {
  const std::string prefix = stem + ".";
  const std::string suffix = ".ckpt";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.rfind(prefix, 0) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return false;
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  *sequence = seq;
  return true;
}

Result<CheckpointData> ParseCheckpointFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError("cannot open " + path.string());
  }
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  if (file_size < 0 || !in) {
    return Status::IOError("read error on " + path.string());
  }
  char header[kHeaderBytes];
  const size_t header_size =
      std::min<uint64_t>(static_cast<uint64_t>(file_size), kHeaderBytes);
  if (!in.read(header, static_cast<std::streamsize>(header_size))) {
    return Status::IOError("read error on " + path.string());
  }

  ByteReader reader(std::string_view(header, header_size));
  Result<uint32_t> magic = reader.U32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) {
    return Status::Corruption("bad checkpoint magic in " + path.string());
  }
  Result<uint32_t> version = reader.U32();
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::Corruption("unsupported checkpoint version " +
                              std::to_string(*version));
  }
  Result<uint64_t> sequence = reader.U64();
  if (!sequence.ok()) return sequence.status();
  Result<uint64_t> length = reader.U64();
  if (!length.ok()) return length.status();
  Result<uint32_t> crc = reader.U32();
  if (!crc.ok()) return crc.status();
  if (*length != static_cast<uint64_t>(file_size) - kHeaderBytes) {
    return Status::Corruption("checkpoint payload truncated in " +
                              path.string());
  }
  // The payload is read straight into the string the caller gets.
  CheckpointData data;
  data.sequence = *sequence;
  data.payload.resize(*length);
  if (!in.read(data.payload.data(), static_cast<std::streamsize>(*length))) {
    return Status::IOError("read error on " + path.string());
  }
  if (Crc32(data.payload) != *crc) {
    return Status::Corruption("checkpoint CRC mismatch in " + path.string());
  }
  return data;
}

/// Streams the payload into the temporary file and keeps the running
/// length and CRC the frame header needs.
class PayloadSink : public ByteSink {
 public:
  explicit PayloadSink(int fd) : out_("checkpoint/write", fd) {}

  Status Write(std::string_view chunk, bool last) override {
    crc_ = Crc32Extend(crc_, chunk);
    length_ += chunk.size();
    return out_.Write(chunk, last);
  }

  uint64_t length() const { return length_; }
  uint32_t crc() const { return crc_; }

 private:
  failpoints::ChunkedWrite out_;
  uint64_t length_ = 0;
  uint32_t crc_ = 0;
};

/// Writes the frame into `fd`: the payload chunk by chunk from offset
/// kHeaderBytes, then the header — whose length and CRC are known only
/// now — at offset 0. Two "checkpoint/write" hits, whatever the size.
Status WriteFrame(int fd, uint64_t sequence,
                  const std::function<void(ByteWriter&)>& encode,
                  uint64_t* frame_bytes) {
  if (::lseek(fd, kHeaderBytes, SEEK_SET) < 0) {
    return Status::IOError(std::string("lseek: ") + std::strerror(errno));
  }
  PayloadSink sink(fd);
  ByteWriter payload(&sink);
  encode(payload);
  Status s = payload.Finish();
  if (!s.ok()) return s;

  ByteWriter header;
  header.PutU32(kMagic);
  header.PutU32(kFormatVersion);
  header.PutU64(sequence);
  header.PutU64(sink.length());
  header.PutU32(sink.crc());
  if (::lseek(fd, 0, SEEK_SET) < 0) {
    return Status::IOError(std::string("lseek: ") + std::strerror(errno));
  }
  *frame_bytes = header.size() + sink.length();
  return failpoints::WriteAll("checkpoint/write", fd, header.bytes().data(),
                              header.size());
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, Options options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  options_.keep = std::max<size_t>(options_.keep, 2);
}

std::string CheckpointManager::FileName(uint64_t sequence) const {
  // Zero-padded so lexicographic and numeric order agree in `ls`.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(sequence));
  return options_.stem + "." + buf + ".ckpt";
}

Status CheckpointManager::Save(uint64_t sequence, std::string_view payload) {
  return Save(sequence, [payload](ByteWriter& out) { out.PutBytes(payload); });
}

Status CheckpointManager::Save(
    uint64_t sequence, const std::function<void(ByteWriter&)>& encode) {
  COMMSIG_SPAN("robust/checkpoint_save");
  const obs::TraceCollector& clock = obs::TraceCollector::Global();
  const uint64_t start_us = clock.NowMicros();
  Status s = WriteCheckpoint(sequence, encode);
  COMMSIG_HISTOGRAM_OBSERVE("robust/checkpoint_save_us",
                            clock.NowMicros() - start_us);
  return s;
}

Status CheckpointManager::WriteCheckpoint(
    uint64_t sequence, const std::function<void(ByteWriter&)>& encode) {
  MutexLock lock(io_mutex_);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint dir " + dir_ + ": " +
                           ec.message());
  }

  // The durable-write dance, each step through the fail-point layer:
  // write tmp, fsync tmp (the bytes), rename into place, fsync the
  // directory (the name). Skipping either fsync leaves a window where a
  // power cut after a "successful" Save loses the checkpoint — the rename
  // orders the metadata but pins neither it nor the data to the platter.
  const fs::path final_path = fs::path(dir_) / FileName(sequence);
  const fs::path tmp_path = fs::path(dir_) / (options_.stem + ".tmp");
  Result<int> fd = failpoints::OpenForWrite("checkpoint/open",
                                            tmp_path.string());
  if (!fd.ok()) return fd.status();
  uint64_t frame_bytes = 0;
  Status io = WriteFrame(*fd, sequence, encode, &frame_bytes);
  if (io.ok()) io = failpoints::FsyncFd("checkpoint/fsync", *fd);
  ::close(*fd);
  if (io.ok()) {
    io = failpoints::RenameFile("checkpoint/rename", tmp_path.string(),
                                final_path.string());
  }
  if (io.ok()) io = failpoints::FsyncDir("checkpoint/dirsync", dir_);
  if (!io.ok()) {
    // Best-effort scrub so a failed Save never leaves a stray .tmp for the
    // next writer to trip over (rename failures leave it behind).
    fs::remove(tmp_path, ec);
    return io;
  }
  COMMSIG_COUNTER_ADD("robust/checkpoints_saved", 1);
  COMMSIG_HISTOGRAM_OBSERVE("robust/checkpoint_bytes", frame_bytes);

  // Prune: keep the newest `keep` checkpoints.
  std::vector<uint64_t> sequences;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t seq = 0;
    if (ParseSequence(entry.path().filename().string(), options_.stem,
                      &seq)) {
      sequences.push_back(seq);
    }
  }
  std::sort(sequences.begin(), sequences.end());
  while (sequences.size() > options_.keep) {
    fs::remove(fs::path(dir_) / FileName(sequences.front()), ec);
    sequences.erase(sequences.begin());
  }
  return Status::OK();
}

Result<CheckpointData> CheckpointManager::LoadLatest() const {
  std::error_code ec;
  std::vector<uint64_t> sequences;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t seq = 0;
    if (ParseSequence(entry.path().filename().string(), options_.stem,
                      &seq)) {
      sequences.push_back(seq);
    }
  }
  if (ec || sequences.empty()) {
    return Status::NotFound("no checkpoints under " + dir_);
  }
  std::sort(sequences.begin(), sequences.end(),
            [](uint64_t a, uint64_t b) { return a > b; });

  size_t corrupt_skipped = 0;
  for (uint64_t seq : sequences) {
    Result<CheckpointData> data =
        ParseCheckpointFile(fs::path(dir_) / FileName(seq));
    if (data.ok()) {
      CheckpointData out = std::move(*data);
      out.recovered_from_fallback = corrupt_skipped > 0;
      out.corrupt_skipped = corrupt_skipped;
      COMMSIG_COUNTER_ADD("robust/checkpoints_loaded", 1);
      COMMSIG_COUNTER_ADD("robust/checkpoints_corrupt", corrupt_skipped);
      if (corrupt_skipped > 0) {
        obs::LogWarn("checkpoint_fallback")
            .Str("dir", dir_)
            .U64("sequence", seq)
            .U64("corrupt_skipped", corrupt_skipped);
      }
      return out;
    }
    obs::LogWarn("checkpoint_corrupt")
        .Str("dir", dir_)
        .U64("sequence", seq)
        .Str("status", data.status().ToString());
    ++corrupt_skipped;
  }
  COMMSIG_COUNTER_ADD("robust/checkpoints_corrupt", corrupt_skipped);
  return Status::Corruption("all " + std::to_string(corrupt_skipped) +
                            " checkpoint(s) under " + dir_ +
                            " failed validation");
}

}  // namespace commsig
