// multi_stream — the paper's three edge instruments (Bragg/HEDM, CookieBox,
// tomography) served as concurrent tenants of ONE DataService (ROADMAP open
// item 4, the fairDMS production framing: many experiments sharing one
// serving facility).
//
// Each instrument registers as a named stream with its own fairDS (its own
// collection in the shared document store, its own snapshot chain), its own
// RetrainPolicy, and its own serialized retrain executor. Three client
// threads then drive drifting workloads concurrently; the per-stream fig16
// uncertainty trigger fires auto-retrains independently per tenant, and the
// final table shows each stream's ledgers and the service-wide totals, and
// checks the admission-ledger invariant (requests == answered + shed, per
// op) on every row.
//
// Build & run:  ./build/examples/multi_stream
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/bragg.hpp"
#include "datagen/cookiebox.hpp"
#include "datagen/tomography.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "service/data_service.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fairdms;

/// Image-to-image fallback labeler (CookieBox density / tomography
/// denoising): the stand-in "conventional" labeler just hands back the
/// frame itself, flattened to the stream's label width — shape-correct and
/// cheap, which is all the serving demo needs.
nn::Tensor identity_labeler(const nn::Tensor& xs) {
  const std::size_t n = xs.dim(0);
  const std::size_t width = xs.numel() / n;
  nn::Tensor ys({n, width});
  std::copy(xs.data(), xs.data() + xs.numel(), ys.data());
  return ys;
}

/// Bragg fallback labeler: the centroid stand-in for the pseudo-Voigt fit
/// (same as examples/serve.cpp).
nn::Tensor centroid_labeler(const nn::Tensor& xs) {
  const std::size_t n = xs.dim(0);
  const std::size_t s = xs.dim(2);
  nn::Tensor ys({n, 2});
  for (std::size_t i = 0; i < n; ++i) {
    double cx = 0.0;
    double cy = 0.0;
    datagen::intensity_centroid({xs.data() + i * s * s, s * s}, s, cx, cy);
    ys.at(i, 0) = static_cast<float>((cx - 7.0) / 15.0);
    ys.at(i, 1) = static_cast<float>((cy - 7.0) / 15.0);
  }
  return ys;
}

struct StreamReport {
  std::string stream;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
};

/// Drives `batches` label requests against one stream, phase by phase, with
/// the batch supplier producing progressively drifted data. Returns the
/// client-side view; the authoritative ledgers live in the service.
StreamReport drive_stream(service::DataService& service,
                          const std::string& stream, std::size_t batches,
                          nn::Tensor (*labeler)(const nn::Tensor&),
                          const std::function<nn::Tensor(std::size_t)>& data) {
  StreamReport report{stream};
  for (std::size_t b = 0; b < batches; ++b) {
    service::LabelRequest request;
    request.xs = data(b);
    request.threshold = 0.35;
    request.fallback_labeler = labeler;
    request.stream = stream;
    auto future = service.submit(std::move(request));
    const auto response = future.get();
    if (response.status == service::ServeStatus::kOk) {
      ++report.ok;
    } else {
      ++report.shed;
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t batches = 8;
  std::size_t batch_size = 16;
  std::size_t workers = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      batch_size = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: multi_stream [--batches N] [--batch N] "
                   "[--workers N]\n");
      return 2;
    }
  }

  std::printf("=== multi-stream serving: bragg + cookiebox + tomo ===\n");

  // One shared document store; each tenant gets its own collection in it.
  store::DocStore db;

  // --- bragg: the drifting HEDM timeline (deformation jump at scan 5) ----
  datagen::HedmTimelineConfig bragg_config;
  bragg_config.n_scans = 12;
  bragg_config.drift_per_scan = 0.01;
  bragg_config.deformation_scans = {5};
  bragg_config.deformation_jump = 0.6;
  datagen::HedmTimeline bragg_timeline(bragg_config);
  const nn::Batchset bragg_history = bragg_timeline.dataset_at(0, 128, 101);

  fairds::FairDSConfig bragg_ds_config;
  bragg_ds_config.embedding_dim = 10;
  bragg_ds_config.image_size = 15;
  bragg_ds_config.n_clusters = 6;
  bragg_ds_config.embed_train.epochs = 2;
  bragg_ds_config.store_shards = 4;
  bragg_ds_config.seed = 101;
  bragg_ds_config.collection = "bragg_samples";
  fairds::FairDS bragg_ds(bragg_ds_config, db);
  bragg_ds.train_system(bragg_history.xs);
  bragg_ds.ingest(bragg_history.xs, bragg_history.ys, "bragg_history");

  // --- cookiebox: drifting photoline + streak phase ----------------------
  datagen::CookieBoxTimelineConfig cb_config;
  cb_config.n_steps = 24;
  cb_config.center_drift_per_step = 0.012;
  cb_config.phase_drift_per_step = 0.1;
  datagen::CookieBoxTimeline cb_timeline(cb_config);
  const nn::Batchset cb_history = cb_timeline.dataset_at(0, 96, 202);

  fairds::FairDSConfig cb_ds_config;
  cb_ds_config.embedding_dim = 10;
  cb_ds_config.image_size = 32;
  cb_ds_config.n_clusters = 6;
  cb_ds_config.embed_train.epochs = 2;
  cb_ds_config.store_shards = 2;
  cb_ds_config.seed = 202;
  cb_ds_config.collection = "cookiebox_samples";
  fairds::FairDS cb_ds(cb_ds_config, db);
  cb_ds.train_system(cb_history.xs);
  cb_ds.ingest(cb_history.xs, cb_history.ys, "cookiebox_history");

  // --- tomo: dose collapse as the drift (18 photons/px -> 3) -------------
  datagen::TomoConfig tomo_config;
  tomo_config.size = 16;
  tomo_config.dose = 18.0;
  util::Rng tomo_rng(303);
  const nn::Batchset tomo_history =
      datagen::make_tomo_batchset(tomo_config, 96, tomo_rng);

  fairds::FairDSConfig tomo_ds_config;
  tomo_ds_config.embedding_dim = 10;
  tomo_ds_config.image_size = 16;
  tomo_ds_config.n_clusters = 6;
  tomo_ds_config.embed_train.epochs = 2;
  tomo_ds_config.store_shards = 2;
  tomo_ds_config.seed = 303;
  tomo_ds_config.collection = "tomo_samples";
  fairds::FairDS tomo_ds(tomo_ds_config, db);
  tomo_ds.train_system(tomo_history.xs);
  tomo_ds.ingest(tomo_history.xs, tomo_history.ys, "tomo_history");

  // Shared zoo; each architecture gets one seed model so recommend() has
  // something to rank per tenant.
  fairms::ModelZoo zoo(db);
  zoo.publish("braggnn", "seed",
              bragg_ds.snapshot()->distribution(bragg_history.xs),
              std::vector<std::uint8_t>(2048, 0x42));
  zoo.publish("cookienetae", "seed",
              cb_ds.snapshot()->distribution(cb_history.xs),
              std::vector<std::uint8_t>(2048, 0x43));
  zoo.publish("tomonet", "seed",
              tomo_ds.snapshot()->distribution(tomo_history.xs),
              std::vector<std::uint8_t>(2048, 0x44));
  fairms::ModelManager manager(zoo, /*distance_threshold=*/1.0);

  // One service, three tenants. Every stream runs the fig16 uncertainty
  // trigger; the service-wide cap bounds how many may retrain at once (set
  // to the tenant count here so the demo shows all three policies firing —
  // a production host would set it below that and let `capped` absorb the
  // excess).
  service::DataService service({.workers = workers,
                                .max_pending = 64,
                                .max_concurrent_retrains = 3});
  service::StreamConfig tenant;
  tenant.retrain.auto_trigger = true;
  tenant.retrain.certainty_threshold = 0.0;  // each stream's own threshold
  tenant.retrain.min_new_samples = 2 * batch_size;
  tenant.max_pending = 32;
  // Bragg's drift is the mildest of the three; its operator runs a stricter
  // policy threshold than the FairDS default — per-stream policy in action.
  service::StreamConfig bragg_tenant = tenant;
  bragg_tenant.retrain.certainty_threshold = 0.95;
  FAIRDMS_CHECK(service.add_stream("bragg", bragg_ds, bragg_tenant, &manager),
                "register bragg");
  FAIRDMS_CHECK(service.add_stream("cookiebox", cb_ds, tenant, &manager),
                "register cookiebox");
  FAIRDMS_CHECK(service.add_stream("tomo", tomo_ds, tenant, &manager),
                "register tomo");

  // Three concurrent clients, one per instrument, each walking its own
  // drift trajectory so certainty decays independently per stream.
  std::vector<std::thread> clients;
  std::vector<StreamReport> reports(3);
  clients.emplace_back([&] {
    reports[0] = drive_stream(
        service, "bragg", batches, centroid_labeler, [&](std::size_t b) {
          return bragg_timeline.dataset_at(std::min<std::size_t>(b, 11),
                                           batch_size, 1000 + b)
              .xs;
        });
  });
  clients.emplace_back([&] {
    reports[1] = drive_stream(
        service, "cookiebox", batches, identity_labeler, [&](std::size_t b) {
          return cb_timeline.dataset_at(3 * b, batch_size, 2000 + b).xs;
        });
  });
  clients.emplace_back([&] {
    reports[2] = drive_stream(
        service, "tomo", batches, identity_labeler, [&](std::size_t b) {
          datagen::TomoConfig drifted = tomo_config;
          drifted.dose = 18.0 / static_cast<double>(1 + b);
          util::Rng rng(3000 + b);
          return datagen::make_tomo_batchset(drifted, batch_size, rng).xs;
        });
  });
  for (auto& t : clients) t.join();

  // One recommend per tenant: the per-stream model plane answering from the
  // shared zoo.
  for (const auto& [stream, arch] :
       std::vector<std::pair<std::string, std::string>>{
           {"bragg", "braggnn"},
           {"cookiebox", "cookienetae"},
           {"tomo", "tomonet"}}) {
    service::RecommendRequest request;
    request.architecture = arch;
    request.xs = stream == "bragg"      ? bragg_timeline.dataset_at(6, 8, 7).xs
                 : stream == "cookiebox" ? cb_timeline.dataset_at(6, 8, 7).xs
                                         : tomo_history.xs;
    request.stream = stream;
    const auto response = service.submit(std::move(request)).get();
    if (response.pick) {
      std::printf("recommend[%s/%s]: model #%llu (JSD %.3f)\n",
                  stream.c_str(), arch.c_str(),
                  static_cast<unsigned long long>(response.pick->model_id),
                  response.pick->distance);
    } else {
      std::printf("recommend[%s/%s]: train from scratch\n", stream.c_str(),
                  arch.c_str());
    }
  }

  service.wait_idle();

  // Per-stream ledgers, the service-wide totals, and the admission-ledger
  // invariant on each.
  const auto stats = service.stats();
  std::printf("\n%-10s %8s %8s %6s %7s %8s %6s %9s %8s %7s\n", "stream",
              "answered", "shed", "checks", "retrain", "coalesce", "capped",
              "cooldown", "model_v", "ledger");
  bool balanced = true;
  const auto print_row = [&balanced](const service::StreamStats& s,
                                     const char* name) {
    const bool ok =
        s.label_requests == s.label_answered + s.label_shed &&
        s.lookup_requests == s.lookup_answered + s.lookup_shed &&
        s.recommend_requests == s.recommend_answered + s.recommend_shed;
    balanced = balanced && ok;
    std::printf("%-10s %8llu %8llu %6llu %7llu %8llu %6llu %9llu %8llu %7s\n",
                name,
                static_cast<unsigned long long>(s.label_answered +
                                                s.lookup_answered +
                                                s.recommend_answered),
                static_cast<unsigned long long>(
                    s.label_shed + s.lookup_shed + s.recommend_shed),
                static_cast<unsigned long long>(s.retrain_checks),
                static_cast<unsigned long long>(s.retrains),
                static_cast<unsigned long long>(s.retrains_coalesced),
                static_cast<unsigned long long>(s.retrains_capped),
                static_cast<unsigned long long>(s.policy_cooldown_skips),
                static_cast<unsigned long long>(s.snapshot_version),
                ok ? "ok" : "MISMATCH");
  };
  for (const auto& s : stats.streams) print_row(s, s.stream.c_str());
  const service::StreamStats totals = stats.totals();
  print_row(totals, "(total)");
  if (!balanced) {
    std::printf("\nadmission ledger: requests != answered + shed\n");
    return 1;
  }
  if (totals.retrains == 0) {
    std::printf("note: no stream retrained — drift too mild for the "
                "threshold this run\n");
  }
  return 0;
}
