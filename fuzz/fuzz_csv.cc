// libFuzzer harness for the CSV ingestion paths: the trace reader (with and
// without monotonic-time enforcement), the edge-list reader and the
// signature-set reader, under every ErrorPolicy. Each is the ingestion
// pipeline run inline (parse_workers = 0, the production default). Inputs
// are staged through a per-process temp file because the readers are
// file-based.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/interner.h"
#include "core/signature_io.h"
#include "data/trace_io.h"
#include "graph/graph_io.h"
#include "robust/record_errors.h"

namespace {

std::string StageInput(const uint8_t* data, size_t size) {
  static std::string path =
      "/tmp/commsig_fuzz_csv_" + std::to_string(::getpid()) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {};
  if (size > 0) std::fwrite(data, 1, size, f);
  std::fclose(f);
  return path;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = StageInput(data, size);
  if (path.empty()) return 0;

  for (commsig::ErrorPolicy policy :
       {commsig::ErrorPolicy::kFail, commsig::ErrorPolicy::kSkip,
        commsig::ErrorPolicy::kQuarantine}) {
    {
      commsig::RecordErrorLog log;
      commsig::IngestOptions options;
      options.policy = policy;
      options.error_log = &log;
      commsig::Interner interner;
      (void)commsig::ReadTraceCsv(path, interner, options);
      options.require_monotonic_time = true;
      (void)commsig::ReadTraceCsv(path, interner, options);
    }
    {
      commsig::RecordErrorLog log;
      commsig::IngestOptions options;
      options.policy = policy;
      options.error_log = &log;
      commsig::Interner interner;
      (void)commsig::ReadSignatureSetCsv(path, interner, options);
    }
    {
      commsig::RecordErrorLog log;
      commsig::IngestOptions options;
      options.policy = policy;
      options.error_log = &log;
      commsig::Interner interner;
      (void)commsig::ReadEdgeListCsv(path, interner, 0, options);
    }
  }
  return 0;
}
