// serve — a standalone fairDMS serving process speaking the binary wire
// protocol (src/net/wire.hpp) over TCP.
//
// Builds the standard demo world (drifting HEDM timeline, trained fairDS,
// seeded ModelZoo), then runs net::Server over a DataService until SIGTERM
// / SIGINT (or --duration elapses) and exits 0 after a graceful drain —
// in-flight requests complete, buffered responses flush, then sockets
// close. `bench/loadgen wire --connect` drives this binary from separate
// client processes; CI runs exactly that pair.
//
// Build & run:  ./build/examples/serve --port 7641
//               ./build/bench/loadgen wire --preset small --connect 7641
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "net/server.hpp"
#include "service/data_service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace fairdms;

  std::uint16_t port = 0;  // ephemeral by default; printed once bound
  std::size_t workers = 4;
  std::size_t max_pending = 64;
  std::size_t history_samples = 256;
  std::size_t n_streams = 1;   // stream 0 is kDefaultStreamName (v1 peers)
  bool auto_retrain = false;   // per-stream fig16 policy on every stream
  double duration_seconds = 0.0;  // 0 => run until SIGTERM/SIGINT
  std::string engine = "mem";
  std::string data_dir;  // required for --engine log
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-pending") == 0 && i + 1 < argc) {
      max_pending = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--history") == 0 && i + 1 < argc) {
      history_samples = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--streams") == 0 && i + 1 < argc) {
      n_streams = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--auto-retrain") == 0) {
      auto_retrain = true;
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: serve [--port N] [--workers N] [--max-pending N] "
                   "[--history N] [--streams N] [--auto-retrain] "
                   "[--duration SECONDS] [--engine mem|log] "
                   "[--data-dir DIR]\n");
      return 2;
    }
  }
  if (n_streams == 0) n_streams = 1;
  const auto engine_kind = store::parse_engine_kind(engine);
  if (!engine_kind.has_value()) {
    std::fprintf(stderr, "serve: unknown --engine '%s' (mem|log)\n",
                 engine.c_str());
    return 2;
  }
  if (*engine_kind == store::EngineKind::kLog && data_dir.empty()) {
    std::fprintf(stderr, "serve: --engine log requires --data-dir\n");
    return 2;
  }

  // The standard drifting HEDM world the benches use (deformation at scan
  // 7), trained before the socket opens so clients never race training.
  datagen::HedmTimelineConfig timeline_config;
  timeline_config.n_scans = 12;
  timeline_config.drift_per_scan = 0.004;
  timeline_config.deformation_scans = {7};
  timeline_config.deformation_jump = 0.5;
  datagen::HedmTimeline timeline(timeline_config);
  const nn::Batchset history =
      timeline.dataset_at(/*scan=*/2, history_samples, /*seed=*/6161);

  store::DocStoreConfig db_config;
  db_config.engine.kind = *engine_kind;
  db_config.engine.directory = data_dir;  // store root; "<dir>/<collection>"
  store::DocStore db(db_config);

  // One FairDS (own collection, own snapshot chain) per stream. Stream 0 is
  // the default stream — what v1 wire peers and stream-less v2 frames hit;
  // extra streams are named s1..sN-1 and share the same world shape so one
  // fallback labeler serves them all.
  std::vector<std::string> stream_names;
  std::vector<std::unique_ptr<fairds::FairDS>> streams;
  for (std::size_t s = 0; s < n_streams; ++s) {
    fairds::FairDSConfig ds_config;
    ds_config.embedding_dim = 12;
    ds_config.n_clusters = 8;
    ds_config.embed_train.epochs = 2;
    ds_config.certainty_threshold = 0.8;
    ds_config.store_shards = 4;
    ds_config.seed = 6161 + s;
    ds_config.collection =
        s == 0 ? "fairds_samples" : "fairds_samples_s" + std::to_string(s);
    streams.push_back(std::make_unique<fairds::FairDS>(ds_config, db));
    streams.back()->train_system(history.xs);
    streams.back()->ingest(history.xs, history.ys, "history");
    stream_names.push_back(s == 0 ? service::kDefaultStreamName
                                  : "s" + std::to_string(s));
  }
  fairds::FairDS& ds = *streams.front();

  fairms::ModelZoo zoo(db);
  const auto snap = ds.snapshot();
  for (std::size_t m = 0; m < 4; ++m) {
    zoo.publish("braggnn", "seed_" + std::to_string(m),
                snap->distribution(timeline.dataset_at(2 + m, 32, 6161 + m).xs),
                std::vector<std::uint8_t>(4096, 0x42));
  }
  fairms::ModelManager manager(zoo, /*distance_threshold=*/1.0);

  service::DataService service({.workers = workers,
                                .max_pending = max_pending});
  for (std::size_t s = 0; s < n_streams; ++s) {
    service::StreamConfig tenant;
    tenant.retrain.auto_trigger = auto_retrain;
    tenant.retrain.cooldown_seconds = auto_retrain ? 5.0 : 0.0;
    tenant.retrain.min_new_samples = auto_retrain ? 64 : 0;
    tenant.store_shards = 4;
    tenant.storage_engine = engine;
    if (!service.add_stream(stream_names[s], *streams[s], tenant, &manager)) {
      std::fprintf(stderr, "serve: duplicate stream '%s'\n",
                   stream_names[s].c_str());
      return 1;
    }
  }

  // Server-side fallback labeler (code cannot travel on the wire): the
  // centroid stand-in for the conventional pseudo-Voigt fit.
  const std::size_t label_width = ds.snapshot()->label_width();
  net::ServerConfig server_config;
  server_config.port = port;
  server_config.fallback_labeler = [label_width](const nn::Tensor& xs) {
    const std::size_t n = xs.dim(0);
    const std::size_t s = xs.dim(2);
    nn::Tensor ys({n, label_width});
    for (std::size_t i = 0; i < n; ++i) {
      double cx = 0.0;
      double cy = 0.0;
      datagen::intensity_centroid({xs.data() + i * s * s, s * s}, s, cx, cy);
      ys.at(i, 0) = static_cast<float>((cx - 7.0) / 15.0);
      if (label_width > 1) {
        ys.at(i, 1) = static_cast<float>((cy - 7.0) / 15.0);
      }
    }
    return ys;
  };

  net::Server server(service, server_config);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: cannot listen on port %u\n",
                 static_cast<unsigned>(port));
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Parsed by scripts (and humans): the bound port, then a READY marker.
  std::printf("serve: listening on 127.0.0.1:%u (workers %zu, max_pending "
              "%zu, engine %s, streams %zu%s, model v%llu)\n",
              static_cast<unsigned>(server.port()), workers, max_pending,
              ds.storage_engine(), n_streams,
              auto_retrain ? ", auto-retrain" : "",
              static_cast<unsigned long long>(ds.snapshot()->version()));
  std::printf("READY\n");
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (duration_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
                .count() >= duration_seconds) {
      break;
    }
  }

  std::printf("serve: draining...\n");
  server.stop();
  service.wait_idle();

  const auto counters = server.counters();
  const auto stats = service.stats().totals();
  std::printf(
      "serve: done. connections %llu, frames in %llu / out %llu, malformed "
      "%llu, shed %llu, shutdown %llu; served %llu label / %llu lookup / "
      "%llu recommend, retrains %llu\n",
      static_cast<unsigned long long>(counters.accepted_connections),
      static_cast<unsigned long long>(counters.frames_in),
      static_cast<unsigned long long>(counters.frames_out),
      static_cast<unsigned long long>(counters.malformed_frames),
      static_cast<unsigned long long>(counters.shed_responses),
      static_cast<unsigned long long>(counters.shutdown_responses),
      static_cast<unsigned long long>(stats.label_requests),
      static_cast<unsigned long long>(stats.lookup_requests),
      static_cast<unsigned long long>(stats.recommend_requests),
      static_cast<unsigned long long>(stats.retrains));
  return 0;
}
