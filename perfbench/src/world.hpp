// Workload definitions, seeded inputs and the served system ("world") the
// benchmark drives.
//
// A world is what a beamline deployment stands up before traffic arrives:
// a trained fairDS stream with labeled history, a fleet zoo of registered
// models that recommend requests rank, a FairDMS update workflow whose zoo
// holds real trained BraggNN foundations, and a net::Server over a
// DataService on loopback. Every input is generated from --seed before the
// first timer starts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fairdms.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "net/server.hpp"
#include "service/data_service.hpp"
#include "store/docstore.hpp"

namespace perfbench {

using namespace fairdms;

inline constexpr const char* kStream = "hedm";
inline constexpr std::size_t kPatch = 15;
/// Foreground rounds per run; each round ends with one forced retrain.
inline constexpr std::size_t kRounds = 10;

/// One workload. Foreground traffic runs in kRounds rounds. Each round runs
/// the open-loop serving phase, one forced retrain, the closed-loop
/// saturation phase and the update phase, in that order, so every metric
/// samples the whole run and a transient stall on the host hits few samples
/// of each. Ingest runs in the background at a fixed rate for the whole run.
struct Spec {
  std::string name;
  store::EngineKind engine = store::EngineKind::kMem;
  std::size_t label_batch = 16;     ///< images per label request
  double threshold = 0.4;           ///< reuse distance threshold
  /// Image j of every label pool comes from label_scans[j % size], so all
  /// pools carry the same regime mix whichever of them are hot.
  std::vector<std::size_t> label_scans;
  std::vector<std::size_t> ingest_scans;  ///< timeline scans of ingest rows
  double serve_share = 0.0;      ///< fraction of --seconds, all rounds
  double label_per_s = 0.0;      ///< wire label requests (Poisson)
  double recommend_per_s = 0.0;  ///< wire recommend requests (Poisson)
  double saturate_share = 0.0;
  double update_share = 0.0;
  double ingest_per_s = 0.0;     ///< background FairDS::ingest calls
};

/// Size knobs; `tiny` shrinks everything for the self-test.
struct Scale {
  std::size_t history_per_scan = 256;
  std::size_t fleet_models = 2000;
  std::size_t foundations = 3;
  std::size_t update_samples = 128;
  std::size_t epochs = 6;  ///< fixed per-cycle budget (no early stop)
  std::size_t setup_reps = 3;
};

struct Inputs {
  nn::Batchset history;
  std::vector<tensor::Tensor> label_pools;  ///< [label_batch, 1, S, S]
  std::vector<nn::Batchset> ingest_batches;
  tensor::Tensor retrain_probe;
  std::vector<nn::Batchset> update_train;  ///< one per timeline scan
  std::vector<nn::Batchset> update_val;
  std::vector<nn::Batchset> foundation_train;
  std::vector<std::vector<double>> fleet_pdfs;
  std::size_t nurand_c = 0;
  std::uint64_t seed = 0;
};

Inputs make_inputs(const Spec& spec, const Scale& scale, std::uint64_t seed);

/// Time and samples spent in the server-side fallback labeler.
struct LabelerMeter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> nanos{0};
};

/// The served system. Members are declared in dependency order so the
/// implicit destruction order tears the server down first.
struct World {
  LabelerMeter labeler;
  std::string data_dir;  ///< log-engine directory ("" on mem)
  std::unique_ptr<store::DocStore> db;
  std::unique_ptr<fairds::FairDS> ds;
  std::unique_ptr<store::DocStore> fleet_db;
  std::unique_ptr<fairms::ModelZoo> fleet;
  std::unique_ptr<fairms::ModelManager> fleet_manager;
  std::unique_ptr<core::FairDMS> fairdms;
  std::vector<store::DocId> foundations;  ///< trained in setup, in fairdms's zoo
  std::unique_ptr<service::DataService> service;
  std::unique_ptr<net::Server> server;

  World() = default;
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// Stands the world up; nullptr (with a message on stderr) when the server
/// cannot listen.
std::unique_ptr<World> build_world(const Spec& spec, const Scale& scale,
                                   const Inputs& inputs,
                                   const std::string& dir);

struct UpdateCycle {
  double seconds = 0.0;  ///< the update_model call
  core::UpdateReport report;
  bool published = false;  ///< the published model was fetchable, with weights
};

/// One FairDMS::update_model(kFairDMS) cycle that fine-tunes from the setup
/// foundations only. The cycle runs on a fresh update zoo that holds just
/// them, so fine-tune lineages do not chain from cycle to cycle. A chain of
/// dozens of fine-tunes made later cycles about 1.6x slower than early ones,
/// so update_p50_s depended on how far a run got.
UpdateCycle update_from_foundations(World& world, const nn::Batchset& train,
                                    const nn::Batchset& validation);

}  // namespace perfbench
