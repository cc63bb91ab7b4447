#include "common/bytes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace commsig {

namespace {

template <typename T>
void StoreLE(T v, char* out) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

template <typename T>
T LoadLE(const char* in) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

}  // namespace

ByteWriter::ByteWriter(ByteSink* sink) : sink_(sink) {
  buffer_.reserve(kChunkBytes);
}

void ByteWriter::Append(const char* data, size_t size) {
  if (sink_ == nullptr) {
    buffer_.append(data, size);
    return;
  }
  // The buffer never holds a full chunk between calls, so every chunk but
  // the last is exactly kChunkBytes.
  while (size > 0) {
    const size_t n = std::min(size, kChunkBytes - buffer_.size());
    buffer_.append(data, n);
    data += n;
    size -= n;
    if (buffer_.size() == kChunkBytes) Flush(/*last=*/false);
  }
}

void ByteWriter::Flush(bool last) {
  if (sink_status_.ok()) sink_status_ = sink_->Write(buffer_, last);
  buffer_.clear();
}

Status ByteWriter::Finish() {
  if (sink_ != nullptr) Flush(/*last=*/true);
  return sink_status_;
}

void ByteWriter::PutU32(uint32_t v) {
  char b[4];
  StoreLE(v, b);
  Append(b, sizeof(b));
}

void ByteWriter::PutU64(uint64_t v) {
  char b[8];
  StoreLE(v, b);
  Append(b, sizeof(b));
}

void ByteWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::PutString(std::string_view s) {
  PutU64(s.size());
  PutBytes(s);
}

void ByteWriter::PutU64Array(std::span<const uint64_t> values) {
  if constexpr (kLittleEndian) {
    Append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
  } else {
    for (uint64_t v : values) PutU64(v);
  }
}

void ByteWriter::PutDoubleArray(std::span<const double> values) {
  if constexpr (kLittleEndian) {
    Append(reinterpret_cast<const char*>(values.data()), values.size_bytes());
  } else {
    for (double v : values) PutDouble(v);
  }
}

Status ByteReader::Need(size_t n) const {
  if (remaining() < n) {
    return Status::Corruption("byte buffer truncated: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> ByteReader::U8() {
  Status s = Need(1);
  if (!s.ok()) return s;
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> ByteReader::U32() {
  Status s = Need(4);
  if (!s.ok()) return s;
  const uint32_t v = LoadLE<uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  Status s = Need(8);
  if (!s.ok()) return s;
  const uint64_t v = LoadLE<uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<double> ByteReader::Double() {
  Result<uint64_t> bits = U64();
  if (!bits.ok()) return bits.status();
  return std::bit_cast<double>(*bits);
}

Result<std::string> ByteReader::String() {
  Result<uint64_t> len = U64();
  if (!len.ok()) return len.status();
  Status s = Need(*len);
  if (!s.ok()) return s;
  std::string out(data_.substr(pos_, *len));
  pos_ += *len;
  return out;
}

template <typename T>
Status ByteReader::ReadArray(std::span<T> out) {
  static_assert(sizeof(T) == sizeof(uint64_t));
  // Divide rather than multiply: out.size() * 8 may overflow.
  if (out.size() > remaining() / sizeof(T)) {
    return Status::Corruption(
        "byte buffer truncated: need " + std::to_string(out.size()) +
        " array elements, have " + std::to_string(remaining()) + " bytes");
  }
  if (out.empty()) return Status::OK();  // memcpy needs non-null pointers
  const char* in = data_.data() + pos_;
  if constexpr (kLittleEndian) {
    std::memcpy(out.data(), in, out.size_bytes());
  } else {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::bit_cast<T>(LoadLE<uint64_t>(in + sizeof(T) * i));
    }
  }
  pos_ += out.size_bytes();
  return Status::OK();
}

Status ByteReader::U64Array(std::span<uint64_t> out) {
  return ReadArray(out);
}

Status ByteReader::DoubleArray(std::span<double> out) {
  return ReadArray(out);
}

namespace {

// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[k][b] is
// the CRC contribution of byte b followed by k zero bytes, which lets the
// slicing loop fold eight input bytes per step with eight independent
// lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32Extend(uint32_t crc, std::string_view data) {
  const auto& t = kCrcTables;
  uint32_t c = ~crc;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLE<uint32_t>(p);
    const uint32_t hi = LoadLE<uint32_t>(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xff] ^ (c >> 8);
  }
  return ~c;
}

uint32_t Crc32(std::string_view data) { return Crc32Extend(0, data); }

}  // namespace commsig
