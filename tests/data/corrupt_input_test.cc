// Exercises every lenient reader against the committed corrupt-input corpus
// under tests/data/corpus/, in all three ErrorPolicy modes. The corpus files
// are real bytes on disk (not strings built in the test) so the fixtures
// also pin the on-disk formats against accidental format drift.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/signature_io.h"
#include "data/trace_io.h"
#include "graph/graph_io.h"
#include "ingest/pipeline.h"
#include "oracle/serial_reference.h"
#include "robust/record_errors.h"

namespace commsig {
namespace {

std::string Corpus(const std::string& name) {
  return std::string(COMMSIG_TEST_DATA_DIR) + "/" + name;
}

IngestOptions Policy(ErrorPolicy policy, RecordErrorLog* log = nullptr) {
  IngestOptions opts;
  opts.policy = policy;
  opts.error_log = log;
  return opts;
}

// --- NetFlow -------------------------------------------------------------

/// Reads a corpus file through the production NetFlow path (the ingestion
/// pipeline, inline) and checks it against the serial reference: same
/// status, same events and labels, same error-log entries.
Result<std::vector<TraceEvent>> ReadNetflow(const std::string& name,
                                            const IngestOptions& opts = {}) {
  RecordErrorLog reference_log;
  IngestOptions reference_opts = opts;
  if (opts.error_log != nullptr) reference_opts.error_log = &reference_log;
  auto records =
      serial_reference::ReadNetflowV5File(Corpus(name), reference_opts);

  Interner interner;
  ingest::PipelineOptions options;
  options.ingest = opts;
  auto events = ingest::ReadTraceEventsPipelined(
      Corpus(name), ingest::PipelineFormat::kNetflowV5, interner, options);
  EXPECT_EQ(events.status().ToString(), records.status().ToString());
  if (events.ok() && records.ok()) {
    Interner reference_interner;
    EXPECT_EQ(*events,
              serial_reference::NetflowToEvents(*records, reference_interner));
    EXPECT_EQ(interner.size(), reference_interner.size());
  }
  if (opts.error_log != nullptr) {
    const auto& got = opts.error_log->entries();
    const auto& want = reference_log.entries();
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].reason, want[i].reason);
      EXPECT_EQ(got[i].position, want[i].position);
      EXPECT_EQ(got[i].detail, want[i].detail);
    }
  }
  return events;
}

TEST(CorruptNetflow, TruncatedFailsUnderFailPolicy) {
  auto r = ReadNetflow("truncated.nf");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST(CorruptNetflow, TruncatedSalvagesWholeRecordsUnderSkip) {
  auto r = ReadNetflow("truncated.nf", Policy(ErrorPolicy::kSkip));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Header claims 3 records; the third is cut mid-record.
  EXPECT_EQ(r->size(), 2u);
}

TEST(CorruptNetflow, TruncatedQuarantinesTheCut) {
  RecordErrorLog log;
  auto r = ReadNetflow("truncated.nf", Policy(ErrorPolicy::kQuarantine, &log));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(log.count(RecordErrorReason::kTruncated), 1u);
  ASSERT_EQ(log.entries().size(), 1u);
  // Position is the byte offset where the truncated record begins.
  EXPECT_EQ(log.entries()[0].position, 24u + 2 * 48u);
}

TEST(CorruptNetflow, BadMagicResynchronizesToNextPacket) {
  RecordErrorLog log;
  auto r = ReadNetflow("bad_magic.nf", Policy(ErrorPolicy::kQuarantine, &log));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Garbage prefix rejected, valid 2-record packet after it recovered.
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(log.count(RecordErrorReason::kBadMagic), 1u);
  EXPECT_FALSE(ReadNetflow("bad_magic.nf").ok());
}

TEST(CorruptNetflow, ZeroCountHeaderRejectedAndRecovered) {
  RecordErrorLog log;
  auto r = ReadNetflow("zero_count.nf", Policy(ErrorPolicy::kQuarantine, &log));
  ASSERT_TRUE(r.ok());
  // The packet after the count=0 header still loads; the record body of
  // the bad packet is skipped by resynchronization.
  EXPECT_EQ(r->size(), 1u);
  EXPECT_GE(log.count(RecordErrorReason::kBadRecordCount), 1u);
}

TEST(CorruptNetflow, TimestampRegressionOnlyWhenMonotonicRequired) {
  // Default: out-of-order export times are legal.
  auto relaxed = ReadNetflow("time_regression.nf", Policy(ErrorPolicy::kSkip));
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->size(), 3u);

  RecordErrorLog log;
  IngestOptions strict = Policy(ErrorPolicy::kQuarantine, &log);
  strict.require_monotonic_time = true;
  auto r = ReadNetflow("time_regression.nf", strict);
  ASSERT_TRUE(r.ok());
  // The regressed middle packet (secs 200 -> 100) is dropped whole; the
  // third (secs 300) still loads.
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(log.count(RecordErrorReason::kTimestampRegression), 1u);
}

TEST(CorruptNetflow, ErrorBudgetBoundsGarbageTolerance) {
  IngestOptions opts = Policy(ErrorPolicy::kSkip);
  opts.max_errors = 0;  // 0 disables the budget: any amount of junk is OK
  EXPECT_TRUE(ReadNetflow("bad_magic.nf", opts).ok());
}

// --- Trace CSV -----------------------------------------------------------

TEST(CorruptTraceCsv, FailPolicyStopsAtFirstBadRow) {
  Interner interner;
  auto r = ReadTraceCsv(Corpus("trace_bad_rows.csv"), interner);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(CorruptTraceCsv, SkipKeepsOnlyValidRows) {
  Interner interner;
  auto r = ReadTraceCsv(Corpus("trace_bad_rows.csv"), interner,
                        Policy(ErrorPolicy::kSkip));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Valid rows: a->b@100, a->b@90 (order violations are legal by default),
  // e->f@200.
  EXPECT_EQ(r->size(), 3u);
}

TEST(CorruptTraceCsv, QuarantineRecordsEveryRejectionClass) {
  Interner interner;
  RecordErrorLog log;
  IngestOptions opts = Policy(ErrorPolicy::kQuarantine, &log);
  opts.require_monotonic_time = true;
  auto r = ReadTraceCsv(Corpus("trace_bad_rows.csv"), interner, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // the a->b@90 row now regresses
  EXPECT_EQ(log.count(RecordErrorReason::kBadField), 2u);  // short + bad time
  EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
  EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 2u);  // nan, inf
  EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 2u);  // -3.5, 0
  EXPECT_EQ(log.count(RecordErrorReason::kTimestampRegression), 1u);
  EXPECT_EQ(log.total(), 8u);
}

TEST(CorruptTraceCsv, QuarantinePositionsAreLineNumbers) {
  Interner interner;
  RecordErrorLog log;
  auto r = ReadTraceCsv(Corpus("trace_bad_rows.csv"), interner,
                        Policy(ErrorPolicy::kQuarantine, &log));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(log.entries().empty());
  EXPECT_EQ(log.entries()[0].position, 2u);  // "only,three,fields" is line 2
}

TEST(CorruptTraceCsv, GarbageFileYieldsNothingButDoesNotCrash) {
  Interner interner;
  RecordErrorLog log;
  auto r = ReadTraceCsv(Corpus("garbage.csv"), interner,
                        Policy(ErrorPolicy::kQuarantine, &log));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_GT(log.total(), 0u);
}

TEST(CorruptTraceCsv, EmptyFileIsValidAndEmpty) {
  Interner interner;
  for (ErrorPolicy policy : {ErrorPolicy::kFail, ErrorPolicy::kSkip,
                             ErrorPolicy::kQuarantine}) {
    auto r = ReadTraceCsv(Corpus("empty.csv"), interner, Policy(policy));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->empty());
  }
}

TEST(CorruptTraceCsv, ExhaustedBudgetFailsTheRead) {
  Interner interner;
  IngestOptions opts = Policy(ErrorPolicy::kSkip);
  opts.max_errors = 2;
  auto r = ReadTraceCsv(Corpus("trace_bad_rows.csv"), interner, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

// --- Edge-list CSV -------------------------------------------------------

TEST(CorruptEdgeListCsv, AllThreePolicies) {
  {
    Interner interner;
    EXPECT_FALSE(ReadEdgeListCsv(Corpus("edges_bad_rows.csv"), interner, 0)
                     .ok());
  }
  {
    Interner interner;
    auto r = ReadEdgeListCsv(Corpus("edges_bad_rows.csv"), interner, 0,
                             Policy(ErrorPolicy::kSkip));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Good rows: a->b 2.0 and c->d 3.0.
    EXPECT_DOUBLE_EQ(r->TotalWeight(), 5.0);
  }
  {
    Interner interner;
    RecordErrorLog log;
    auto r = ReadEdgeListCsv(Corpus("edges_bad_rows.csv"), interner, 0,
                             Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(log.count(RecordErrorReason::kBadField), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 1u);
  }
}

// --- Signature-set CSV ---------------------------------------------------

TEST(CorruptSignatureSetCsv, AllThreePolicies) {
  {
    Interner interner;
    EXPECT_FALSE(
        ReadSignatureSetCsv(Corpus("sigset_bad_rows.csv"), interner).ok());
  }
  {
    Interner interner;
    RecordErrorLog log;
    auto r = ReadSignatureSetCsv(Corpus("sigset_bad_rows.csv"), interner,
                                 Policy(ErrorPolicy::kQuarantine, &log));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // o1 {m1,m2}, o2 {m4} (nan and negative rows rejected), o3 empty marker.
    ASSERT_EQ(r->size(), 3u);
    EXPECT_EQ(r->signatures[0].size(), 2u);
    EXPECT_EQ(r->signatures[1].size(), 1u);
    EXPECT_TRUE(r->signatures[2].empty());
    EXPECT_EQ(log.count(RecordErrorReason::kBadField), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kNonFiniteWeight), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kNonPositiveWeight), 1u);
    EXPECT_EQ(log.count(RecordErrorReason::kZeroNode), 1u);
  }
  {
    Interner interner;
    auto r = ReadSignatureSetCsv(Corpus("sigset_bad_rows.csv"), interner,
                                 Policy(ErrorPolicy::kSkip));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 3u);
  }
}

}  // namespace
}  // namespace commsig
