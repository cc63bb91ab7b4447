#include "data/netflow.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "ingest/pipeline.h"
#include "oracle/serial_reference.h"

namespace commsig {
namespace {

/// The production NetFlow read: the ingestion pipeline, inline.
Result<std::vector<TraceEvent>> ReadNetflowEvents(
    const std::string& path, Interner& interner,
    const NetflowReadOptions& netflow = {}) {
  ingest::PipelineOptions options;
  options.netflow = netflow;
  return ingest::ReadTraceEventsPipelined(
      path, ingest::PipelineFormat::kNetflowV5, interner, options);
}

class NetflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("commsig_netflow_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

/// Same fixture; the flow-to-event mapping is checked end to end through
/// the pipeline, which is the only code that applies it.
class NetflowToEventsTest : public NetflowTest {
 protected:
  std::vector<TraceEvent> Events(const std::vector<NetflowV5Record>& records,
                                 Interner& interner,
                                 const NetflowReadOptions& netflow = {}) {
    EXPECT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
    auto events = ReadNetflowEvents(path_.string(), interner, netflow);
    EXPECT_TRUE(events.ok()) << events.status().ToString();
    return events.ok() ? *events : std::vector<TraceEvent>{};
  }
};

NetflowV5Record MakeRecord(uint32_t src, uint32_t dst, uint32_t secs,
                           uint8_t proto = 6) {
  NetflowV5Record r;
  r.src_addr = src;
  r.dst_addr = dst;
  r.packets = 10;
  r.octets = 4000;
  r.unix_secs = secs;
  r.src_port = 40000;
  r.dst_port = 443;
  r.protocol = proto;
  return r;
}

TEST(Ipv4ToStringTest, FormatsDottedDecimal) {
  EXPECT_EQ(Ipv4ToString(0x0A000001), "10.0.0.1");
  EXPECT_EQ(Ipv4ToString(0xC0A80164), "192.168.1.100");
  EXPECT_EQ(Ipv4ToString(0), "0.0.0.0");
  EXPECT_EQ(Ipv4ToString(0xFFFFFFFF), "255.255.255.255");
}

TEST_F(NetflowTest, RoundTripSinglePacket) {
  std::vector<NetflowV5Record> records = {
      MakeRecord(0x0A000001, 0x08080808, 1000),
      MakeRecord(0x0A000002, 0x08080404, 1000),
  };
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  auto loaded = serial_reference::ReadNetflowV5File(path_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, records);

  Interner interner;
  auto events = ReadNetflowEvents(path_.string(), interner);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ(interner.LabelOf((*events)[0].src), "10.0.0.1");
  EXPECT_EQ(interner.LabelOf((*events)[1].dst), "8.8.4.4");
  EXPECT_EQ((*events)[1].time, 1000u);
}

TEST_F(NetflowTest, RoundTripMultiplePackets) {
  // 75 records -> 3 packets (30 + 30 + 15).
  std::vector<NetflowV5Record> records;
  for (uint32_t i = 0; i < 75; ++i) {
    records.push_back(MakeRecord(0x0A000000 + i, 0x08080808, 2000 + i));
  }
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  auto loaded = serial_reference::ReadNetflowV5File(path_.string());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 75u);
  // unix_secs is a per-packet header field: records in one packet share
  // the first record's timestamp.
  EXPECT_EQ((*loaded)[0].unix_secs, 2000u);
  EXPECT_EQ((*loaded)[29].unix_secs, 2000u);
  EXPECT_EQ((*loaded)[30].unix_secs, 2030u);
  EXPECT_EQ((*loaded)[0].src_addr, records[0].src_addr);
  EXPECT_EQ((*loaded)[74].src_addr, records[74].src_addr);

  Interner interner;
  auto events = ReadNetflowEvents(path_.string(), interner);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 75u);
  EXPECT_EQ((*events)[29].time, 2000u);
  EXPECT_EQ((*events)[30].time, 2030u);
  EXPECT_EQ(interner.LabelOf((*events)[74].src), Ipv4ToString(0x0A00004A));
}

TEST_F(NetflowTest, EmptyFileYieldsNoRecords) {
  std::ofstream(path_).close();
  auto loaded = serial_reference::ReadNetflowV5File(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());

  Interner interner;
  auto events = ReadNetflowEvents(path_.string(), interner);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(events->empty());
}

TEST_F(NetflowTest, RejectsWrongVersion) {
  std::vector<NetflowV5Record> records = {MakeRecord(1, 2, 3)};
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  // Corrupt the version field.
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(0);
  char bad[2] = {0, 9};
  f.write(bad, 2);
  f.close();
  auto loaded = serial_reference::ReadNetflowV5File(path_.string());
  EXPECT_TRUE(loaded.status().IsCorruption());

  Interner interner;
  auto events = ReadNetflowEvents(path_.string(), interner);
  EXPECT_EQ(events.status().ToString(), loaded.status().ToString());
}

TEST_F(NetflowTest, RejectsTruncatedPacket) {
  std::vector<NetflowV5Record> records = {MakeRecord(1, 2, 3),
                                          MakeRecord(4, 5, 6)};
  ASSERT_TRUE(WriteNetflowV5File(records, path_.string()).ok());
  // Chop the last 10 bytes.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  auto loaded = serial_reference::ReadNetflowV5File(path_.string());
  EXPECT_TRUE(loaded.status().IsCorruption());

  Interner interner;
  auto events = ReadNetflowEvents(path_.string(), interner);
  EXPECT_EQ(events.status().ToString(), loaded.status().ToString());
}

TEST_F(NetflowTest, MissingFileIsIOError) {
  auto loaded = serial_reference::ReadNetflowV5File("/no/such/flows.bin");
  EXPECT_TRUE(loaded.status().IsIOError());

  Interner interner;
  auto events = ReadNetflowEvents("/no/such/flows.bin", interner);
  EXPECT_EQ(events.status().ToString(), loaded.status().ToString());
}

TEST_F(NetflowToEventsTest, InternsDottedLabels) {
  Interner interner;
  auto events = Events({MakeRecord(0x0A000001, 0x08080808, 100)}, interner);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(interner.LabelOf(events[0].src), "10.0.0.1");
  EXPECT_EQ(interner.LabelOf(events[0].dst), "8.8.8.8");
  EXPECT_EQ(events[0].time, 100u);
  EXPECT_DOUBLE_EQ(events[0].weight, 1.0);  // kFlows default
}

TEST_F(NetflowToEventsTest, WeightingModes) {
  std::vector<NetflowV5Record> records = {MakeRecord(1, 2, 3)};
  Interner interner;
  auto by_packets =
      Events(records, interner, {.weighting = NetflowWeighting::kPackets});
  ASSERT_EQ(by_packets.size(), 1u);
  EXPECT_DOUBLE_EQ(by_packets[0].weight, 10.0);
  auto by_octets =
      Events(records, interner, {.weighting = NetflowWeighting::kOctets});
  ASSERT_EQ(by_octets.size(), 1u);
  EXPECT_DOUBLE_EQ(by_octets[0].weight, 4000.0);
}

TEST_F(NetflowToEventsTest, ProtocolFilter) {
  std::vector<NetflowV5Record> records = {
      MakeRecord(1, 2, 3, /*proto=*/6),    // TCP
      MakeRecord(4, 5, 6, /*proto=*/17)};  // UDP
  Interner interner;
  auto tcp_only = Events(records, interner, {.protocol_filter = 6});
  EXPECT_EQ(tcp_only.size(), 1u);
  auto all = Events(records, interner);
  EXPECT_EQ(all.size(), 2u);
}

TEST_F(NetflowToEventsTest, DropsZeroWeightRecords) {
  NetflowV5Record r = MakeRecord(1, 2, 3);
  r.packets = 0;
  Interner interner;
  auto events =
      Events({r}, interner, {.weighting = NetflowWeighting::kPackets});
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace commsig
