// Quickstart: the fairDMS loop in ~80 lines.
//
//   1. train the fairDS system plane (embedding + clustering) on history
//   2. ingest labeled history into the data store
//   3. seed the model Zoo with a model trained on that history
//   4. when new (unlabeled) data arrives: look up pseudo-labels, get a
//      foundation recommendation, fine-tune, publish
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "models/models.hpp"

int main() {
  using namespace fairdms;

  // --- synthetic "experiment": Bragg peaks whose shape drifts over time ---
  datagen::HedmTimelineConfig timeline_config;
  timeline_config.n_scans = 10;
  datagen::HedmTimeline timeline(timeline_config);
  const nn::Batchset history = timeline.dataset_at(/*scan=*/0, 256, /*seed=*/1);
  const nn::Batchset new_data = timeline.dataset_at(/*scan=*/1, 96, 2);

  // --- 1+2: fairDS system plane ------------------------------------------
  store::DocStore db;
  fairds::FairDSConfig ds_config;
  ds_config.embedding_algorithm = "byol";  // or "autoencoder", "contrastive"
  ds_config.n_clusters = 8;                // 0 = pick K with the elbow method
  ds_config.embed_train.epochs = 4;
  fairds::FairDS data_service(ds_config, db);
  data_service.train_system(history.xs);
  data_service.ingest(history.xs, history.ys, "experiment_0");
  std::printf("fairDS ready: %zu labeled samples in %zu clusters\n",
              data_service.stored_count(),
              data_service.snapshot()->n_clusters());

  // --- 3: seed the model Zoo ----------------------------------------------
  core::FairDMSConfig config;
  config.architecture = "braggnn";
  config.train.max_epochs = 20;
  config.train.batch_size = 32;
  config.train.target_val_error = 1.5e-3;
  core::FairDMS system(config, data_service, db);
  models::TaskModel seed_model = models::make_braggnn(/*seed=*/7);
  system.train_and_publish(seed_model, history, history, "experiment_0");
  std::printf("model zoo seeded: %zu model(s)\n", system.zoo().size());

  // --- 4: rapid model update on new data ----------------------------------
  const auto report = system.update_model(new_data.xs, new_data,
                                          core::UpdateStrategy::kFairDMS);
  std::printf("update complete:\n");
  std::printf("  pseudo-labeling: %.3f s (no physics code ran)\n",
              report.label_seconds);
  std::printf("  foundation:      %s (JSD %.4f)\n",
              report.fine_tuned ? "fine-tuned from zoo" : "trained fresh",
              report.foundation_distance);
  std::printf("  training:        %.3f s, %zu epoch(s), val error %.5f\n",
              report.train_seconds, report.epochs, report.final_val_error);
  std::printf("  published as zoo model #%llu\n",
              static_cast<unsigned long long>(report.published_model));
  return 0;
}
