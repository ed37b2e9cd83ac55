// HEDM rapid-retraining workflow: the paper's Fig. 1/Fig. 5 loop end to end,
// orchestrated as a Globus-Flows-style DAG over funcX-style endpoints with
// explicit transfer accounting — acquire -> detect degradation -> pseudo-
// label -> recommend -> fine-tune -> deploy.
#include <cstdio>

#include "core/degradation.hpp"
#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "models/models.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "workflow/flow.hpp"
#include "workflow/funcx.hpp"

int main() {
  using namespace fairdms;
  std::printf("=== HEDM rapid retraining workflow ===\n");

  // Experiment with a deformation event at scan 6.
  datagen::HedmTimelineConfig timeline_config;
  timeline_config.n_scans = 12;
  timeline_config.deformation_scans = {6};
  timeline_config.deformation_jump = 0.6;
  datagen::HedmTimeline timeline(timeline_config);

  // fairDS + zoo built from the early phase.
  store::DocStore db;
  fairds::FairDSConfig ds_config;
  ds_config.n_clusters = 8;
  ds_config.embed_train.epochs = 4;
  fairds::FairDS data_service(ds_config, db);
  nn::Batchset history = timeline.dataset_at(0, 192, 1);
  {
    const nn::Batchset more = timeline.dataset_at(1, 192, 2);
    nn::Batchset merged;
    merged.xs = nn::Tensor({384, 1, 15, 15});
    merged.ys = nn::Tensor({384, 2});
    std::copy_n(history.xs.data(), history.xs.numel(), merged.xs.data());
    std::copy_n(more.xs.data(), more.xs.numel(),
                merged.xs.data() + history.xs.numel());
    std::copy_n(history.ys.data(), history.ys.numel(), merged.ys.data());
    std::copy_n(more.ys.data(), more.ys.numel(),
                merged.ys.data() + history.ys.numel());
    history = std::move(merged);
  }
  data_service.train_system(history.xs);
  data_service.ingest(history.xs, history.ys, "early_phase");

  workflow::TransferService transfers;
  transfers.set_link("beamline", "compute",
                     {.latency_seconds = 0.05, .bandwidth_bytes_per_s = 1e9});
  transfers.set_link("compute", "beamline",
                     {.latency_seconds = 0.05, .bandwidth_bytes_per_s = 1e9});

  core::FairDMSConfig config;
  config.architecture = "braggnn";
  config.train.max_epochs = 40;
  config.train.target_val_error = 2e-3;
  config.transfers = &transfers;
  core::FairDMS system(config, data_service, db);
  models::TaskModel deployed = models::make_braggnn(3);
  system.train_and_publish(deployed, history, history, "early_phase");

  // funcX-style endpoints: the edge runs inference/UQ; the cluster trains.
  workflow::FuncXRegistry funcx;
  funcx.add_endpoint("edge", 2);
  funcx.add_endpoint("gpu-cluster", 1);
  core::DegradationConfig monitor_config;
  monitor_config.baseline_window = 3;  // scans 2-4 establish the error band
  monitor_config.error_factor = 1.25;
  core::DegradationMonitor monitor(monitor_config);
  funcx.register_function(
      "evaluate_scan", "edge", [&](const workflow::Payload& arg) {
        const auto scan = static_cast<std::size_t>(arg.as_int());
        const nn::Batchset data = timeline.dataset_at(scan, 64, 100 + scan);
        const nn::Tensor pred =
            deployed.net.forward(data.xs, nn::Mode::kEval);
        double err = 0.0;
        for (std::size_t i = 0; i < 64; ++i) {
          err += datagen::bragg_pixel_error(pred, data.ys, 15, i) / 64.0;
        }
        const auto obs = monitor.observe(deployed.net, data.xs, err);
        store::Object out;
        out["error"] = store::Value(obs.error);
        out["degraded"] = store::Value(obs.degraded);
        return workflow::Payload(std::move(out));
      });

  // Stream scans; on degradation, run the update flow.
  for (std::size_t scan = 2; scan < timeline_config.n_scans; ++scan) {
    const auto result = funcx.invoke(
        "evaluate_scan", workflow::Payload(static_cast<std::int64_t>(scan)));
    const bool degraded = result.at("degraded").as_bool();
    std::printf("scan %2zu: error %.3f px %s\n", scan,
                result.at("error").as_double(),
                degraded ? " <- DEGRADED, updating model" : "");
    if (!degraded) continue;

    // The update itself as a flow DAG (tasks overlap where possible).
    const nn::Batchset new_data = timeline.dataset_at(scan, 128, 200 + scan);
    core::UpdateReport report;
    workflow::Flow flow("rapid_update");
    flow.add_task("snapshot_distribution", [&] {
      (void)data_service.snapshot()->distribution(new_data.xs);
    });
    flow.add_task(
        "update_model",
        [&] {
          report = system.update_model(new_data.xs, new_data,
                                       core::UpdateStrategy::kFairDMS);
        },
        {"snapshot_distribution"});
    flow.add_task(
        "deploy",
        [&] {
          const auto record = system.zoo().fetch(report.published_model);
          nn::load_parameters(deployed.net, record->parameters);
        },
        {"update_model"});
    const auto flow_report = flow.run();
    std::printf("  flow '%s' finished in %.2f s (%zu tasks); fine-tuned=%s, "
                "%zu epochs\n",
                flow_report.tasks.empty() ? "?" : "rapid_update",
                flow_report.total_seconds, flow_report.tasks.size(),
                report.fine_tuned ? "yes" : "no", report.epochs);
    monitor.reset();
  }
  std::printf("edge endpoint stats: %zu invocations\n",
              funcx.stats("edge").invocations);
  return 0;
}
