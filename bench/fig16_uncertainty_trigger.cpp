// Figure 16: clustering-certainty over a sequence of HEDM datasets, without
// ("Before Trigger") and with ("After Trigger") the uncertainty-triggered
// system-plane retrain. The embedding + clustering models are trained on the
// first five datasets; a deformation partway through the sequence collapses
// the static system's certainty, while the triggered system retrains and
// stays high.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "cluster/fuzzy.hpp"
#include "fairds/fairds.hpp"

namespace {
constexpr std::size_t kDatasets = 36;        // paper: 0..35
constexpr std::size_t kWarmup = 5;           // paper: first five datasets
constexpr std::size_t kDeformation = 23;     // paper: drop at dataset 23
constexpr std::size_t kSamples = 64;
constexpr double kTriggerThreshold = 0.80;   // paper: 80%
constexpr std::uint64_t kSeed = 1616;
}  // namespace

int main() {
  using namespace fairdms;
  bench::print_header("Fig. 16",
                      "clustering certainty without and with the "
                      "uncertainty-triggered retrain");

  const auto timeline = bench::standard_timeline(kDatasets, kDeformation);

  auto make_ds = [&](store::DocStore& db) {
    fairds::FairDSConfig config;
    config.embedding_algorithm = "byol";
    config.embedding_dim = 12;
    config.n_clusters = 15;  // paper: 15 clusters
    config.embed_train.epochs = 5;
    config.certainty_threshold = kTriggerThreshold;
    config.seed = kSeed;
    return std::make_unique<fairds::FairDS>(config, db);
  };

  // Warm-up history: the first five datasets.
  store::DocStore db_static, db_triggered;
  auto ds_static = make_ds(db_static);
  auto ds_triggered = make_ds(db_triggered);
  {
    nn::Tensor all({kWarmup * kSamples, 1, 15, 15});
    for (std::size_t i = 0; i < kWarmup; ++i) {
      const auto part = timeline.dataset_at(i, kSamples, kSeed);
      std::copy_n(part.xs.data(), part.xs.numel(),
                  all.data() + i * kSamples * 225);
    }
    ds_static->train_system(all);
    ds_triggered->train_system(all);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      const auto part = timeline.dataset_at(i, kSamples, kSeed);
      ds_static->ingest(part.xs, part.ys, "warm_" + std::to_string(i));
      ds_triggered->ingest(part.xs, part.ys, "warm_" + std::to_string(i));
    }
  }

  std::printf("(trigger threshold %.0f%%, deformation at dataset %zu)\n\n",
              kTriggerThreshold * 100.0, kDeformation);
  bench::print_row("dataset", "before_pct", "after_pct", "retrained");
  std::size_t triggers = 0;
  for (std::size_t i = kWarmup; i < kDatasets; ++i) {
    const auto data = timeline.dataset_at(i, kSamples, kSeed + 1);
    const double before = ds_static->snapshot()->certainty(data.xs) * 100.0;

    const double after_pre =
        ds_triggered->snapshot()->certainty(data.xs) * 100.0;
    const bool retrained = ds_triggered->maybe_retrain(data.xs);
    if (retrained) ++triggers;
    const double after =
        retrained ? ds_triggered->snapshot()->certainty(data.xs) * 100.0
                  : after_pre;
    // The triggered system also keeps ingesting newly labeled data.
    ds_triggered->ingest(data.xs, data.ys, "seq_" + std::to_string(i));
    bench::print_row(i, before, after,
                     retrained ? std::string("TRIGGER") : std::string(""));
  }
  std::printf("\nretrains triggered: %zu\n", triggers);
  bench::print_footer(
      "the static system's certainty collapses at the deformation and never "
      "recovers; the triggered system retrains the embedding + clustering "
      "and keeps assigning new data confidently");
  return 0;
}
