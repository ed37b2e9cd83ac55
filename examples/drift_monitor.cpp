// Drift monitor: fairDS's uncertainty-quantification trigger as a streaming
// service (the paper's §II-C system plane). Datasets arrive one by one;
// clustering certainty is tracked, and when it crosses the threshold the
// embedding + clustering are retrained and the store re-indexed — all
// without human intervention.
#include <cstdio>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"

int main() {
  using namespace fairdms;
  std::printf("=== fairDS drift monitor ===\n");

  datagen::HedmTimelineConfig timeline_config;
  timeline_config.n_scans = 18;
  timeline_config.deformation_scans = {9};
  timeline_config.deformation_jump = 0.5;
  datagen::HedmTimeline timeline(timeline_config);

  store::DocStore db;
  fairds::FairDSConfig config;
  config.n_clusters = 15;
  config.embed_train.epochs = 5;
  config.certainty_threshold = 0.80;
  fairds::FairDS data_service(config, db);

  // Bootstrap on the first three scans.
  {
    nn::Tensor warm({3 * 96, 1, 15, 15});
    for (std::size_t s = 0; s < 3; ++s) {
      const auto part = timeline.dataset_at(s, 96, 7);
      std::copy_n(part.xs.data(), part.xs.numel(),
                  warm.data() + s * 96 * 225);
    }
    data_service.train_system(warm);
    for (std::size_t s = 0; s < 3; ++s) {
      const auto part = timeline.dataset_at(s, 96, 7);
      data_service.ingest(part.xs, part.ys, "warm_" + std::to_string(s));
    }
  }

  std::printf("streaming scans (trigger below %.0f%% certainty):\n",
              config.certainty_threshold * 100.0);
  for (std::size_t scan = 3; scan < timeline_config.n_scans; ++scan) {
    const auto data = timeline.dataset_at(scan, 96, 8);
    const double certainty =
        data_service.snapshot()->certainty(data.xs) * 100.0;
    const bool retrained = data_service.maybe_retrain(data.xs);
    data_service.ingest(data.xs, data.ys, "scan_" + std::to_string(scan));
    std::printf("  scan %2zu: certainty %5.1f%%%s\n", scan, certainty,
                retrained ? "  -> retrained system plane" : "");
  }
  std::printf("total system-plane retrains: %zu; store now holds %zu "
              "samples\n",
              data_service.retrain_count(), data_service.stored_count());
  return 0;
}
