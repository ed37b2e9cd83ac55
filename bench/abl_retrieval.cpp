// Ablation: fairDS embedding retrieval vs the instance-discrimination
// baseline the paper rejects (§II-A): pixel-space nearest neighbour.
// Measures the two claimed failure modes of the baseline —
//   (1) fragility: whether a rotated copy of a query still retrieves the
//       same historical sample (the paper: the embedding "allows fairDS to
//       find similar labeled images even when subject to various
//       transformations, such as shifting, rotations, and mirroring");
//   (2) cost: per-query time scaling linearly with the database size,
//       while the two-level (cluster -> in-cluster) search stays flat-ish.
// — and (3) the per-sample reuse path (Fig. 9's lookup_or_label): the
// pre-rewrite implementation (one find_eq + one full-document fetch and
// decode per cluster member, per query) against the reuse-index rewrite
// (in-memory SoA nearest-neighbor search + one batched projected read).
// Every time in (2) and (3) is the median of bench::kTimedRepeats calls.
//
// Run with `abl_retrieval small` for the CI smoke preset (minutes -> seconds);
// the default full preset is what EXPERIMENTS.md records.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "embed/augment.hpp"
#include "fairds/fairds.hpp"
#include "fairds/pixel_baseline.hpp"
#include "fairds/reuse_baseline.hpp"
#include "util/timer.hpp"

namespace {
constexpr std::uint64_t kSeed = 2626;

struct Preset {
  const char* name;
  std::size_t fragility_history;
  std::size_t fragility_queries;
  std::size_t fragility_epochs;
  std::vector<std::size_t> lookup_sizes;
  std::vector<std::size_t> reuse_sizes;
  std::size_t reuse_queries;
  std::size_t reuse_train_subset;  ///< embedding-training subset cap
};

Preset full_preset() {
  return {"full", 512, 48, 6, {256, 512, 1024, 2048},
          {2048, 10240}, 32, 1024};
}

Preset small_preset() {
  return {"small", 256, 16, 3, {256, 512}, {512, 2048}, 16, 512};
}

/// Indices of the k nearest rows of `base` ([N, D]) to `query` ([D]).
std::vector<std::size_t> top_k(const fairdms::nn::Tensor& base,
                               const float* query, std::size_t d,
                               std::size_t k) {
  std::vector<std::pair<double, std::size_t>> dist;
  dist.reserve(base.dim(0));
  for (std::size_t i = 0; i < base.dim(0); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double diff = static_cast<double>(base[i * d + j]) - query[j];
      s += diff * diff;
    }
    dist.emplace_back(s, i);
  }
  std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(k),
                    dist.end());
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = dist[i].second;
  std::sort(out.begin(), out.end());
  return out;
}

/// Median wall time of bench::kTimedRepeats calls of `fn`, in ms.
template <typename Fn>
double median_millis(const Fn& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < fairdms::bench::kTimedRepeats; ++r) {
    const fairdms::util::WallTimer timer;
    fn();
    ms.push_back(timer.millis());
  }
  return fairdms::bench::median(std::move(ms));
}

/// Mean fraction of shared members between straight- and rotated-query
/// top-k neighbour sets in representation space `reps` ([N, D] per row set).
double topk_overlap(const fairdms::nn::Tensor& history_reps,
                    const fairdms::nn::Tensor& straight_reps,
                    const fairdms::nn::Tensor& rotated_reps, std::size_t k) {
  const std::size_t d = history_reps.dim(1);
  double total = 0.0;
  for (std::size_t q = 0; q < straight_reps.dim(0); ++q) {
    const auto a = top_k(history_reps, straight_reps.data() + q * d, d, k);
    const auto b = top_k(history_reps, rotated_reps.data() + q * d, d, k);
    std::vector<std::size_t> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    total += static_cast<double>(inter.size()) / static_cast<double>(k);
  }
  return total / static_cast<double>(straight_reps.dim(0));
}
}  // namespace

int main(int argc, char** argv) {
  using namespace fairdms;
  const bool small = argc > 1 && std::strcmp(argv[1], "small") == 0;
  const Preset preset = small ? small_preset() : full_preset();
  bench::print_header("Ablation: retrieval strategy",
                      std::string("fairDS embedding index vs pixel-space NN "
                                  "baseline (preset: ") +
                          preset.name + ")");

  const auto timeline = bench::standard_timeline(10, 5);

  std::printf("(1) fragility: do rotated queries find the same top-10 "
              "neighbours? (history = %zu)\n",
              preset.fragility_history);
  {
    const nn::Batchset history =
        timeline.dataset_at(2, preset.fragility_history, kSeed);
    const nn::Batchset queries =
        timeline.dataset_at(2, preset.fragility_queries, kSeed + 1);
    nn::Tensor rotated(queries.xs.shape());
    for (std::size_t i = 0; i < preset.fragility_queries; ++i) {
      const auto rot =
          embed::rotate90({queries.xs.data() + i * 225, 225}, 15, 1);
      std::copy(rot.begin(), rot.end(), rotated.data() + i * 225);
    }

    store::DocStore db;
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = preset.fragility_epochs;
    config.seed = kSeed;
    fairds::FairDS ds(config, db);
    ds.train_system(history.xs);

    // Pixel space: raw flattened images are the representation.
    const nn::Tensor pixel_history =
        history.xs.reshaped({preset.fragility_history, 225});
    const nn::Tensor pixel_straight =
        queries.xs.reshaped({preset.fragility_queries, 225});
    const nn::Tensor pixel_rotated =
        rotated.reshaped({preset.fragility_queries, 225});
    // Embedding space: fairDS's learned representation.
    const auto snap = ds.snapshot();
    const nn::Tensor emb_history = snap->embed(history.xs);
    const nn::Tensor emb_straight = snap->embed(queries.xs);
    const nn::Tensor emb_rotated = snap->embed(rotated);

    constexpr std::size_t kTop = 10;
    bench::print_row("method", "top10_ovl_pct");
    bench::print_row("pixel-NN",
                     topk_overlap(pixel_history, pixel_straight,
                                  pixel_rotated, kTop) * 100.0);
    bench::print_row("fairDS",
                     topk_overlap(emb_history, emb_straight, emb_rotated,
                                  kTop) * 100.0);
  }

  std::printf("\n(2) cost: per-query lookup time [ms] vs history size\n");
  bench::print_row("history", "pixel-NN", "fairDS");
  for (const std::size_t history_size : preset.lookup_sizes) {
    const nn::Batchset history =
        timeline.dataset_at(2, history_size, kSeed + 2);
    const nn::Batchset queries = timeline.dataset_at(2, 32, kSeed + 3);

    fairds::PixelNnBaseline pixel(15);
    pixel.ingest(history.xs, history.ys);
    const auto pixel_lookup = [&] {
      bench::do_not_optimize(pixel.lookup(queries.xs));
    };
    const double pixel_ms = median_millis(pixel_lookup) / 32.0;

    store::DocStore db;
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = 3;
    config.seed = kSeed;
    fairds::FairDS ds(config, db);
    ds.train_system(history.xs);
    ds.ingest(history.xs, history.ys, "history");
    const auto snap = ds.snapshot();
    const auto ds_lookup = [&] {
      bench::do_not_optimize(snap->lookup(queries.xs, kSeed + 4));
    };
    const double ds_ms = median_millis(ds_lookup) / 32.0;
    bench::print_row(history_size, pixel_ms, ds_ms);
  }

  std::printf("\n(3) per-sample reuse (lookup_or_label): per-query time [ms], "
              "legacy per-doc reads vs reuse index\n");
  bench::print_row("history", "legacy", "index", "speedup");
  const double nq = static_cast<double>(preset.reuse_queries);
  for (const std::size_t history_size : preset.reuse_sizes) {
    const nn::Batchset history =
        timeline.dataset_at(2, history_size, kSeed + 5);
    const nn::Batchset queries =
        timeline.dataset_at(2, preset.reuse_queries, kSeed + 6);

    store::DocStore db;
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = 3;
    config.seed = kSeed;
    fairds::FairDS ds(config, db);
    // Embedding training cost is not under test: train on a capped subset,
    // then ingest (and search over) the full history.
    ds.train_system(bench::head_rows(history.xs, preset.reuse_train_subset));
    ds.ingest(history.xs, history.ys, "history");

    // A huge threshold makes every query a reuse hit, so the measurement is
    // pure retrieval (the fallback labeler never runs).
    const auto never_called = [](const nn::Tensor& xs) {
      return nn::Tensor({xs.dim(0), 2});
    };

    const auto legacy_reuse = [&] {
      bench::do_not_optimize(fairds::legacy_lookup_or_label(
          ds, db, queries.xs, 1e9, never_called));
    };
    const double legacy_ms = median_millis(legacy_reuse) / nq;

    const auto snap = ds.snapshot();
    const auto index_reuse = [&] {
      bench::do_not_optimize(
          snap->lookup_or_label(queries.xs, 1e9, never_called));
    };
    const double index_ms = median_millis(index_reuse) / nq;

    bench::print_row(history_size, legacy_ms, index_ms,
                     legacy_ms / index_ms);
  }

  bench::print_footer(
      "pixel-NN degrades sharply on rotated queries and its per-query cost "
      "grows with the database; the embedding index is transformation-"
      "robust, PDF lookups stay cheap, and the reuse-index rewrite removes "
      "the per-member document traffic that dominated lookup_or_label — "
      "the paper's §II-A argument plus this PR's speedup, measured");
  return 0;
}
