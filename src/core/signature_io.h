#ifndef COMMSIG_CORE_SIGNATURE_IO_H_
#define COMMSIG_CORE_SIGNATURE_IO_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "core/signature.h"
#include "robust/record_errors.h"

namespace commsig {

/// A set of signatures keyed by their owner node — the unit a production
/// deployment persists between observation windows (COI-style profile
/// store: compute this week's signatures, save, load next week to compare).
struct SignatureSet {
  std::vector<NodeId> owners;
  std::vector<Signature> signatures;  // index-aligned with owners

  size_t size() const { return owners.size(); }

  /// Index of an owner, or SIZE_MAX if absent. O(n).
  size_t Find(NodeId owner) const;
};

/// Writes a signature set as CSV rows `owner_label,member_label,weight`
/// (one row per signature entry; owners with empty signatures are written
/// as a single `owner_label,,0` marker row so they round-trip).
Status WriteSignatureSetCsv(const SignatureSet& set, const Interner& interner,
                            const std::string& path);

/// Reads a signature set written by WriteSignatureSetCsv, interning labels
/// into `interner`. Rows are grouped by owner in file order; entries of
/// one owner may appear in any order. Malformed rows (wrong field count,
/// empty owner labels, unparseable / NaN / Inf / non-positive entry
/// weights) are handled per `options.policy`; the default fails with
/// InvalidArgument. Labels of rejected rows are never interned. This is
/// ingest::ReadSignatureSetPipelined run inline.
Result<SignatureSet> ReadSignatureSetCsv(const std::string& path,
                                         Interner& interner,
                                         const IngestOptions& options = {});

}  // namespace commsig

#endif  // COMMSIG_CORE_SIGNATURE_IO_H_
