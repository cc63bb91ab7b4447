#include "oracle/serial_reference.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "graph/graph_builder.h"
#include "ingest/record_decode.h"

namespace commsig::serial_reference {

namespace {

constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordBytes = 48;
constexpr size_t kMaxRecordsPerPacket = 30;

using ingest::ReadU16Be;
using ingest::ReadU32Be;

}  // namespace

std::vector<std::string> SplitCsvLine(std::string_view line, char delim) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t pos = line.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      break;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

size_t SplitFields(std::string_view line, char delim, std::string_view* out,
                   size_t max_out) {
  // One SWAR pass instead of a memchr call per field: rows on the ingestion
  // hot path are short (tens of bytes, 3-4 fields), so per-call setup
  // dominated the split cost. The word trick marks the high bit of every
  // byte equal to `delim`; hits pop out in position order via ctz.
  const char* base = line.data();
  const size_t n = line.size();
  constexpr uint64_t kLow = 0x0101010101010101ull;
  constexpr uint64_t kSeven = 0x7f7f7f7f7f7f7f7full;
  const uint64_t pattern = kLow * static_cast<unsigned char>(delim);
  size_t count = 0;
  size_t start = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, base + i, 8);
    const uint64_t diff = word ^ pattern;
    // Exact zero-byte detector: the high bit of ((b&0x7f)+0x7f) | b is set
    // iff byte b != 0, and the add cannot carry across bytes. The shorter
    // (diff - kLow) & ~diff form is NOT exact — it also flags a byte equal
    // to 1 (i.e. the character delim^1) when the byte below it matched,
    // which for ',' would invent a delimiter out of ",-".
    uint64_t hits = ~(((diff & kSeven) + kSeven) | diff | kSeven);
    while (hits != 0) {
      const size_t pos =
          i + (static_cast<size_t>(__builtin_ctzll(hits)) >> 3);
      if (count < max_out) out[count] = line.substr(start, pos - start);
      ++count;
      start = pos + 1;
      hits &= hits - 1;
    }
  }
  for (; i < n; ++i) {
    if (base[i] == delim) {
      if (count < max_out) out[count] = line.substr(start, i - start);
      ++count;
      start = i + 1;
    }
  }
  if (count < max_out) out[count] = line.substr(start);
  return count + 1;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read error on " + path);
  return data;
}

Result<std::vector<TraceEvent>> ReadTraceCsv(const std::string& path,
                                             Interner& interner,
                                             const IngestOptions& options) {
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();

  std::vector<TraceEvent> events;
  LineScanner scanner(*data);
  std::string_view line;
  std::string_view fields[4];
  uint64_t errors = 0;
  uint64_t last_time = 0;
  bool have_last_time = false;
  while (scanner.Next(line)) {
    // Validation happens fully before interning: a quarantined row must not
    // grow the node universe. Field decoding is shared with the parallel
    // pipeline (ingest/record_decode.h); only the monotonic-time check lives
    // here because it needs cross-row state.
    const size_t count = SplitFields(line, ',', fields, 4);
    ingest::TraceRow row;
    ingest::RowReject reject;
    bool bad = !ingest::DecodeTraceRow(fields, count, row, reject);
    if (!bad && options.require_monotonic_time && have_last_time &&
        row.time < last_time) {
      bad = true;
      reject.reason = RecordErrorReason::kTimestampRegression;
      reject.detail = "time ";
      reject.detail += row.time_text;
      reject.detail += " precedes ";
      reject.detail += std::to_string(last_time);
    }
    if (bad) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, reject.reason, scanner.line_number(),
          std::move(reject.detail),
          /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    last_time = row.time;
    have_last_time = true;
    events.push_back({interner.Intern(row.src), interner.Intern(row.dst),
                      row.time, row.weight});
  }
  return events;
}

Result<CommGraph> ReadEdgeListCsv(const std::string& path, Interner& interner,
                                  NodeId bipartite_left_size,
                                  const IngestOptions& options) {
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();

  struct Row {
    NodeId src;
    NodeId dst;
    double weight;
  };
  std::vector<Row> rows;
  LineScanner scanner(*data);
  std::string_view line;
  std::string_view fields[3];
  uint64_t errors = 0;
  while (scanner.Next(line)) {
    const size_t count = SplitFields(line, ',', fields, 3);
    ingest::EdgeRow row;
    ingest::RowReject reject;
    if (!ingest::DecodeEdgeRow(fields, count, row, reject)) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, reject.reason, scanner.line_number(),
          std::move(reject.detail),
          /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    rows.push_back(
        {interner.Intern(row.src), interner.Intern(row.dst), row.weight});
  }

  GraphBuilder builder(interner.size());
  builder.SetBipartiteLeftSize(bipartite_left_size);
  for (const Row& r : rows) builder.AddEdge(r.src, r.dst, r.weight);
  return std::move(builder).Build();
}

Result<SignatureSet> ReadSignatureSetCsv(const std::string& path,
                                         Interner& interner,
                                         const IngestOptions& options) {
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();

  // Collect entries per owner, preserving first-seen owner order.
  std::vector<NodeId> order;
  std::unordered_map<NodeId, std::vector<Signature::Entry>> entries;
  LineScanner scanner(*data);
  std::string_view line;
  std::string_view fields[3];
  uint64_t errors = 0;
  while (scanner.Next(line)) {
    // Validate the full row before interning anything, so a quarantined row
    // neither grows the node universe nor registers its owner. Row decoding
    // is shared with the parallel pipeline (ingest/record_decode.h).
    const size_t count = SplitFields(line, ',', fields, 3);
    ingest::SignatureRow row;
    ingest::RowReject reject;
    const ingest::SignatureRowKind kind =
        ingest::DecodeSignatureRow(fields, count, row, reject);
    if (kind == ingest::SignatureRowKind::kReject) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, reject.reason, scanner.line_number(),
          std::move(reject.detail),
          /*invalid_argument_on_fail=*/true);
      if (!s.ok()) return s;
      continue;
    }
    NodeId owner = interner.Intern(row.owner);
    if (!entries.contains(owner)) {
      order.push_back(owner);
      entries.emplace(owner, std::vector<Signature::Entry>{});
    }
    if (kind == ingest::SignatureRowKind::kMarker) continue;
    entries[owner].push_back({interner.Intern(row.member), row.weight});
  }

  SignatureSet set;
  for (NodeId owner : order) {
    set.owners.push_back(owner);
    auto& e = entries[owner];
    const size_t k = e.size();
    set.signatures.push_back(Signature::FromTopK(std::move(e), k));
  }
  return set;
}

Result<std::vector<NetflowV5Record>> ReadNetflowV5File(
    const std::string& path, const IngestOptions& options) {
  // Whole-file buffering keeps byte offsets exact for quarantine reports and
  // makes header resynchronization a plain scan; one export file covers one
  // observation window, so the buffer is bounded by window size.
  Result<std::string> data = ReadFileBytes(path);
  if (!data.ok()) return data.status();

  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(data->data());
  const size_t size = data->size();

  // First offset >= `from` holding a plausible v5 header, or `size`.
  auto resync = [&](size_t from) {
    for (size_t o = from; o + kHeaderBytes <= size; ++o) {
      if (ReadU16Be(bytes + o) != 5) continue;
      const uint16_t count = ReadU16Be(bytes + o + 2);
      if (count >= 1 && count <= kMaxRecordsPerPacket) return o;
    }
    return size;
  };

  std::vector<NetflowV5Record> records;
  uint64_t errors = 0;
  uint32_t last_secs = 0;
  bool have_last_secs = false;
  size_t offset = 0;
  while (offset < size) {
    if (size - offset < kHeaderBytes) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kTruncated, offset,
          "trailing partial header");
      if (!s.ok()) return s;
      break;
    }
    const uint16_t version = ReadU16Be(bytes + offset);
    const uint16_t count = ReadU16Be(bytes + offset + 2);
    const uint32_t unix_secs = ReadU32Be(bytes + offset + 8);
    if (version != 5) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kBadMagic, offset,
          "not a NetFlow v5 header (version " + std::to_string(version) +
              ")");
      if (!s.ok()) return s;
      offset = resync(offset + 1);
      continue;
    }
    if (count == 0 || count > kMaxRecordsPerPacket) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kBadRecordCount, offset,
          "invalid record count " + std::to_string(count));
      if (!s.ok()) return s;
      offset = resync(offset + 1);
      continue;
    }
    const size_t body = offset + kHeaderBytes;
    if (options.require_monotonic_time && have_last_secs &&
        unix_secs < last_secs) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kTimestampRegression, offset,
          "export time " + std::to_string(unix_secs) + " precedes " +
              std::to_string(last_secs));
      if (!s.ok()) return s;
      offset = std::min(size, body + count * kRecordBytes);
      continue;
    }
    // Whole records present in the buffer; a short final packet salvages
    // these and reports the cut as truncation.
    const size_t whole =
        std::min<size_t>(count, (size - body) / kRecordBytes);
    for (size_t i = 0; i < whole; ++i) {
      records.push_back(ingest::DecodeNetflowRecord(
          bytes + body + i * kRecordBytes, unix_secs));
    }
    if (whole < count) {
      Status s = robust_internal::HandleBadRecord(
          options, &errors, RecordErrorReason::kTruncated,
          body + whole * kRecordBytes, "truncated NetFlow packet");
      if (!s.ok()) return s;
      break;
    }
    have_last_secs = true;
    last_secs = unix_secs;
    offset = body + count * kRecordBytes;
  }
  return records;
}

std::vector<TraceEvent> NetflowToEvents(
    const std::vector<NetflowV5Record>& records, Interner& interner,
    const NetflowReadOptions& options) {
  std::vector<TraceEvent> events;
  events.reserve(records.size());
  for (const NetflowV5Record& r : records) {
    double weight = 0.0;
    if (!ingest::NetflowEventWeight(r, options, weight)) continue;
    events.push_back({interner.Intern(Ipv4ToString(r.src_addr)),
                      interner.Intern(Ipv4ToString(r.dst_addr)), r.unix_secs,
                      weight});
  }
  return events;
}

}  // namespace commsig::serial_reference
