// Durable snapshots for the document store.
//
// MongoDB persists its collections; the FAIR premise of fairDMS (findable,
// accessible data *and models*) requires the same of this analog: a fairDS
// history and a model Zoo written by one campaign must be loadable by the
// next. Snapshots are per-collection binary files plus a manifest listing
// collections and their index definitions; indexes are rebuilt on load.
//
// Durability: every file is written tmp + fsync + rename (util/fsio.hpp),
// collection files before the manifest, so a writer killed at any point
// leaves each file either fully old or fully new — the directory is always
// loadable. Corruption: every entry point parses untrusted bytes with full
// bounds checking and reports failures as values; none aborts.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "store/docstore.hpp"

namespace fairdms::store {

/// Outcome of a persistence operation: success, or a human-readable error
/// naming the file and the offending structure ("truncated", "bad magic",
/// "document 12: bad length", ...). Never aborts the process.
struct PersistResult {
  std::string error;  ///< empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
  explicit operator bool() const { return ok(); }
};

/// Writes every collection of `db` under `directory` (created if missing).
/// Layout: <directory>/manifest.bin + one .col file per collection.
/// Safe to call while writers are active: each collection file is a fuzzy
/// point-in-time snapshot (documents committed near the scan may or may
/// not be captured, and cross-shard atomicity is not promised) but is
/// always internally consistent and loadable. Every file replacement is
/// atomic and durable (tmp + fsync + rename), collection files first, the
/// manifest last — a crash mid-save never leaves a half-written snapshot.
[[nodiscard]] PersistResult try_save_store(const DocStore& db,
                                           const std::string& directory);

/// Loads a snapshot into `db`. Collections are created as needed; loading
/// into a non-empty collection is an error (snapshots restore fresh
/// stores). Truncated, corrupt, or malformed snapshot bytes — torn
/// lengths, bad magic, non-object documents, duplicate or out-of-range
/// ids, undecodable payloads — come back as a PersistResult error with the
/// store left unchanged past the collections already restored; no input
/// can abort the process or trigger an unbounded allocation.
[[nodiscard]] PersistResult try_load_store(DocStore& db,
                                           const std::string& directory);

/// Collections listed in a snapshot manifest (without loading documents).
[[nodiscard]] PersistResult try_snapshot_collections(
    const std::string& directory, std::vector<std::string>& names);

}  // namespace fairdms::store
