// The pre-reuse-index implementation of lookup_or_label, preserved as a
// reference baseline.
//
// This is the code path the reuse-index rewrite replaced: for every query
// sample it re-runs a cluster-index lookup, fetches every cluster member's
// full document out of the store one by one (paying the full per-document
// encode/transfer charge each time), and decodes the member's embedding
// just to measure a distance. It exists so that
//   * tests can assert exact result parity between the old and new paths
//     on identical store state, and
//   * bench/abl_retrieval can measure the speedup the rewrite delivers.
// It is implemented purely against the public Snapshot / DocStore API, on
// one snapshot held for the whole call.
#pragma once

#include <functional>

#include "fairds/fairds.hpp"

namespace fairdms::fairds {

/// The pre-index per-sample reuse path over `ds`'s current snapshot and
/// `db`'s stored history. Same contract as Snapshot::lookup_or_label, same
/// O(queries x cluster size) store traffic as the original. Aborts before
/// train_system and on an empty store (the cold-start bug the rewrite
/// fixed).
nn::Batchset legacy_lookup_or_label(
    const FairDS& ds, store::DocStore& db, const tensor::Tensor& xs,
    double threshold,
    const std::function<tensor::Tensor(const tensor::Tensor&)>&
        fallback_labeler,
    ReuseStats* stats = nullptr);

}  // namespace fairdms::fairds
