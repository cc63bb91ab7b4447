#ifndef COMMSIG_COMMON_BYTES_H_
#define COMMSIG_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"

namespace commsig {

/// Receives a streaming ByteWriter's output one chunk at a time.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  /// Consumes `chunk`; `last` marks the final chunk of the stream (it may
  /// be empty). A non-OK return ends the stream: the writer drops every
  /// later byte and reports this status from Finish().
  virtual Status Write(std::string_view chunk, bool last) = 0;
};

/// Appends fixed-width little-endian primitives to a byte buffer. The
/// encoding is the wire format of commsig checkpoints (robust/checkpoint)
/// — explicit widths and byte order so checkpoints written on one host
/// restore on any other.
///
/// A default-constructed writer keeps everything in memory (bytes(),
/// Take()). A writer built over a ByteSink streams instead: it hands the
/// sink every kChunkBytes as they fill and the tail on Finish(), so its
/// memory stays one chunk however much is written. Both produce the same
/// byte sequence for the same puts.
class ByteWriter {
 public:
  /// Size of every chunk a streaming writer hands its sink, except the last.
  static constexpr size_t kChunkBytes = size_t{1} << 16;

  ByteWriter() = default;
  explicit ByteWriter(ByteSink* sink);

  void PutU8(uint8_t v) { Append(reinterpret_cast<const char*>(&v), 1); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Doubles travel as the IEEE-754 bit pattern of the value.
  void PutDouble(double v);
  /// Length-prefixed (u64) raw bytes.
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutBytes(std::string_view s) { Append(s.data(), s.size()); }
  /// Whole arrays, byte-identical to one PutU64 / PutDouble per element
  /// (a single memcpy on little-endian hosts).
  void PutU64Array(std::span<const uint64_t> values);
  void PutDoubleArray(std::span<const double> values);

  /// Streaming writers: hands the buffered tail to the sink as the last
  /// chunk and returns the first sink error. In-memory writers: OK.
  Status Finish();

  /// In-memory writers: everything written so far.
  const std::string& bytes() const { return buffer_; }
  std::string Take() && { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  void Append(const char* data, size_t size);
  void Flush(bool last);

  std::string buffer_;
  ByteSink* sink_ = nullptr;
  Status sink_status_;
};

/// Cursor over a byte buffer, decoding what ByteWriter encoded. Every read
/// is bounds-checked and returns Corruption on overrun — checkpoint payloads
/// are untrusted input (they may be torn, truncated, or bit-flipped on
/// disk), so nothing here may index past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<double> Double();
  /// Length-prefixed bytes; rejects lengths past the end of the buffer.
  Result<std::string> String();
  /// Fills all of `out` with what PutU64Array / PutDoubleArray wrote, or
  /// returns Corruption — consuming nothing — when fewer elements remain.
  Status U64Array(std::span<uint64_t> out);
  Status DoubleArray(std::span<double> out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) const;
  template <typename T>
  Status ReadArray(std::span<T> out);

  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) of `data`.
/// Protects checkpoint payloads against torn writes and bit rot.
uint32_t Crc32(std::string_view data);

/// Continues a CRC-32 over more bytes: Crc32Extend(Crc32(a), b) equals
/// Crc32(a + b), and Crc32Extend(0, b) equals Crc32(b), so a stream can be
/// checksummed chunk by chunk. Slicing-by-8: eight bytes per step.
uint32_t Crc32Extend(uint32_t crc, std::string_view data);

}  // namespace commsig

#endif  // COMMSIG_COMMON_BYTES_H_
