// Mixed-workload transaction driver — the paper's DOE-beamline traffic
// shape, driven as one closed-loop TPC-style mix instead of one op type at
// a time (ROADMAP open item 2).
//
// Five typed transactions hit one DataService + ModelZoo concurrently:
//   ingest          — streaming detector writes (system plane, direct)
//   lookup_or_label — the Fig. 9 label-reuse query (user plane, admission
//                     controlled)
//   rank            — foundation-model recommendation (user plane,
//                     admission controlled)
//   publish         — a newly trained model lands in the zoo
//   request_retrain — the Fig. 16 drift probe (system plane, coalesced)
//
// TPC-C idioms, adapted:
//   * weighted mixes: each client's script is a shuffled deck with the
//     preset's op proportions, so the offered mix is exact per client;
//   * NURand hot-key skew: query/ingest data is drawn from a pool of
//     precomputed batches through the classic non-uniform-random OR
//     construction, so a hot subset of pools (and therefore the clusters
//     they map to) absorbs most of the traffic;
//   * scale parameter: --scale N multiplies stored history and per-client
//     transaction count;
//   * precalculated workloads: every tensor, dataset id, PDF, and
//     parameter blob a transaction touches is generated before the timer
//     starts, so generation cost never pollutes the timed region.
//
// Per-op-type latency histograms report p50/p99/p999 (client-observed,
// submit-to-response; shed requests are counted separately and excluded
// from the percentiles). `--json PATH` writes the machine-readable report
// CI archives as BENCH_*.json; `--require-graceful` turns the run into a
// robustness gate: nonzero exit when the service shed 100% of user-plane
// traffic, the admission ledger does not reconcile, or the queue failed to
// drain — an abort or deadlock fails the step on its own.
//
// Presets: `small` (CI smoke), `full` (EXPERIMENTS.md numbers), and
// `saturate` (deliberately over-capacity: 1 worker, a 4-deep pending
// queue, bursty submission, and a forced-trigger retrain storm — the run
// must degrade by partial shedding, never by stalling or aborting).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "service/data_service.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace fairdms;

constexpr std::uint64_t kSeed = 6161;
constexpr std::size_t kQueryPools = 16;  ///< precomputed hot-key space
constexpr std::size_t kNurandA = 7;      ///< TPC-C A for a 16-wide key space
constexpr std::size_t kRetrainProbes = 4;
constexpr std::size_t kPublishBlobBytes = 4096;

enum class Op : std::size_t {
  kIngest = 0,
  kLabel,
  kRank,
  kPublish,
  kRetrain,
  kCount,
};
constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

const char* op_name(std::size_t op) {
  static const char* kNames[kOpCount] = {"ingest", "lookup_or_label", "rank",
                                         "publish", "request_retrain"};
  return kNames[op];
}

/// Transaction weights, in percent (must sum to 100).
struct MixWeights {
  std::size_t ingest;
  std::size_t label;
  std::size_t rank;
  std::size_t publish;
  std::size_t retrain;
};

struct Preset {
  const char* name;
  std::size_t history;          ///< stored samples before the timed run
  std::size_t train_subset;     ///< embedding-training subset cap
  std::size_t embed_epochs;
  std::size_t clients;
  std::size_t txns_per_client;
  std::size_t label_batch;      ///< queries per label/rank transaction
  std::size_t ingest_batch;     ///< samples per ingest transaction
  std::size_t workers;          ///< service worker threads
  std::size_t max_pending;      ///< admission bound (0 = unbounded)
  std::size_t burst;            ///< label futures in flight per transaction
  double certainty_threshold;   ///< >1 forces every retrain probe to train
  MixWeights weights;
};

Preset small_preset() {
  return {"small", 256, 256, 2, 4, 40, 8, 16, 4, 64, 1, 0.8,
          {15, 60, 10, 5, 10}};
}
Preset full_preset() {
  return {"full", 1024, 512, 3, 8, 120, 16, 32, 8, 256, 1, 0.8,
          {15, 60, 10, 5, 10}};
}
Preset saturate_preset() {
  // Offered load deliberately exceeds capacity: one worker, a 4-deep
  // pending queue, 8 clients submitting 4-deep bursts, and every retrain
  // probe forced to actually train (a retrain storm on the system plane).
  return {"saturate", 256, 256, 2, 8, 24, 8, 8, 1, 4, 4, 1.01,
          {25, 45, 10, 5, 15}};
}

/// NURand hot-key skew specialized to this bench's pool space (the shared
/// construction lives in bench_common.hpp; net_workload draws from it too).
std::size_t nurand(util::Rng& rng, std::size_t n, std::size_t c) {
  return bench::nurand(rng, kNurandA, n, c);
}

struct Txn {
  Op op;
  std::size_t arg;  ///< index into the op's precomputed workload table
};

/// Everything the timed region consumes, generated up front.
struct Workload {
  std::vector<nn::Batchset> query_pools;            // label/rank inputs
  std::vector<nn::Batchset> ingest_batches;         // one per ingest txn
  std::vector<std::string> ingest_ids;
  std::vector<std::vector<double>> publish_pdfs;    // one per publish txn
  std::vector<std::vector<std::uint8_t>> publish_blobs;
  std::vector<std::string> publish_ids;
  std::vector<nn::Batchset> retrain_probes;
  std::vector<std::vector<Txn>> scripts;            // per client
};

using bench::OpTally;
using bench::pct_ms;

fairdms::nn::Tensor head_rows(const fairdms::nn::Tensor& xs, std::size_t n) {
  if (n >= xs.dim(0)) return xs;
  const std::size_t row = xs.numel() / xs.dim(0);
  fairdms::nn::Tensor out({n, xs.dim(1), xs.dim(2), xs.dim(3)});
  std::copy_n(xs.data(), n * row, out.data());
  return out;
}

Workload build_workload(const Preset& preset,
                        const datagen::HedmTimeline& timeline,
                        fairds::FairDS& ds) {
  Workload w;
  // Hot-key space: pools drawn from the pre-deformation scans (2..5) stay
  // in-distribution, so their cluster PDFs differ but overlap — NURand
  // then concentrates traffic on a hot subset of pools, i.e. hot clusters.
  w.query_pools.reserve(kQueryPools);
  for (std::size_t i = 0; i < kQueryPools; ++i) {
    w.query_pools.push_back(
        timeline.dataset_at(2 + i % 4, preset.label_batch, kSeed + 10 + i));
  }
  for (std::size_t i = 0; i < kRetrainProbes; ++i) {
    // Post-deformation scans: genuinely drifted probes, so whether a check
    // retrains is decided by the certainty threshold, not by construction.
    w.retrain_probes.push_back(
        timeline.dataset_at(8 + i % 3, 48, kSeed + 50 + i));
  }

  // Scripts: an exact-proportion deck per client, shuffled per client.
  util::Rng rng(kSeed);
  const std::size_t nurand_c = rng.uniform_index(kQueryPools);
  for (std::size_t c = 0; c < preset.clients; ++c) {
    util::Rng client_rng = rng.fork(1000 + c);
    const MixWeights& mix = preset.weights;
    const std::size_t weights[kOpCount] = {mix.ingest, mix.label, mix.rank,
                                           mix.publish, mix.retrain};
    const std::vector<std::size_t> deck =
        bench::build_deck(client_rng, preset.txns_per_client, weights,
                          static_cast<std::size_t>(Op::kLabel));

    std::vector<Txn> script;
    script.reserve(deck.size());
    for (const std::size_t op_index : deck) {
      const Op op = static_cast<Op>(op_index);
      Txn txn{op, 0};
      switch (op) {
        case Op::kIngest: {
          txn.arg = w.ingest_batches.size();
          const std::size_t pool = nurand(client_rng, kQueryPools, nurand_c);
          w.ingest_batches.push_back(timeline.dataset_at(
              2 + pool % 4, preset.ingest_batch, kSeed + 900 + txn.arg));
          w.ingest_ids.push_back("mix_c" + std::to_string(c) + "_t" +
                                 std::to_string(txn.arg));
          break;
        }
        case Op::kLabel:
        case Op::kRank:
          txn.arg = nurand(client_rng, kQueryPools, nurand_c);
          break;
        case Op::kPublish: {
          txn.arg = w.publish_pdfs.size();
          const std::size_t pool = nurand(client_rng, kQueryPools, nurand_c);
          w.publish_pdfs.push_back(ds.distribution(w.query_pools[pool].xs));
          w.publish_blobs.emplace_back(kPublishBlobBytes,
                                       static_cast<std::uint8_t>(txn.arg));
          w.publish_ids.push_back("mix_pub_" + std::to_string(txn.arg));
          break;
        }
        case Op::kRetrain:
          txn.arg = client_rng.uniform_index(kRetrainProbes);
          break;
        case Op::kCount:
          break;
      }
      script.push_back(txn);
    }
    w.scripts.push_back(std::move(script));
  }
  return w;
}

struct RunResult {
  double wall_seconds = 0.0;
  OpTally ops[kOpCount];
  service::ServiceStats stats;
  service::ServiceStats baseline;  ///< post-warmup, pre-run (for deltas)
  double drain_seconds = 0.0;      ///< wait_idle duration after the last txn
};

RunResult run_mix(const Preset& preset, const Workload& w,
                  fairds::FairDS& ds, fairms::ModelZoo& zoo,
                  service::DataService& service) {
  const std::size_t label_width = ds.snapshot()->label_width();
  const auto labeler = [label_width](const nn::Tensor& xs) {
    return nn::Tensor({xs.dim(0), label_width});
  };
  // Warmup outside the timed window (first-touch costs).
  (void)service
      .submit(service::LabelRequest{w.query_pools[0].xs, 1e9, labeler})
      .get();
  const service::ServiceStats baseline = service.stats();

  std::vector<std::vector<OpTally>> tallies(
      preset.clients, std::vector<OpTally>(kOpCount));
  util::WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(preset.clients);
  for (std::size_t c = 0; c < preset.clients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<OpTally>& my = tallies[c];
      for (const Txn& txn : w.scripts[c]) {
        OpTally& tally = my[static_cast<std::size_t>(txn.op)];
        util::WallTimer timer;
        switch (txn.op) {
          case Op::kIngest: {
            ds.ingest(w.ingest_batches[txn.arg].xs,
                      w.ingest_batches[txn.arg].ys, w.ingest_ids[txn.arg]);
            ++tally.submitted;
            ++tally.answered;
            tally.latencies.push_back(timer.seconds());
            break;
          }
          case Op::kLabel: {
            // Closed-loop with a per-transaction burst: `burst` futures in
            // flight, then drain. Latency is burst-start to that future's
            // response; shed responses return immediately and are tallied
            // apart so they cannot deflate the percentiles.
            std::vector<std::future<service::LabelResponse>> futures;
            futures.reserve(preset.burst);
            for (std::size_t b = 0; b < preset.burst; ++b) {
              futures.push_back(service.submit(service::LabelRequest{
                  w.query_pools[txn.arg].xs, 1e9, labeler}));
            }
            for (auto& f : futures) {
              const auto response = f.get();
              ++tally.submitted;
              if (response.status == service::ServeStatus::kOk) {
                ++tally.answered;
                tally.latencies.push_back(timer.seconds());
              } else {
                ++tally.shed;
              }
            }
            break;
          }
          case Op::kRank: {
            const auto response =
                service
                    .submit(service::RecommendRequest{
                        "braggnn", w.query_pools[txn.arg].xs})
                    .get();
            ++tally.submitted;
            if (response.status == service::ServeStatus::kOk) {
              ++tally.answered;
              tally.latencies.push_back(timer.seconds());
            } else {
              ++tally.shed;
            }
            break;
          }
          case Op::kPublish: {
            zoo.publish("braggnn", w.publish_ids[txn.arg],
                        w.publish_pdfs[txn.arg], w.publish_blobs[txn.arg]);
            ++tally.submitted;
            ++tally.answered;
            tally.latencies.push_back(timer.seconds());
            break;
          }
          case Op::kRetrain: {
            // answered = won the coalescing race (a check actually ran);
            // shed = coalesced into the in-flight check.
            const bool accepted =
                service.request_retrain(w.retrain_probes[txn.arg].xs);
            ++tally.submitted;
            if (accepted) {
              ++tally.answered;
              tally.latencies.push_back(timer.seconds());
            } else {
              ++tally.shed;
            }
            break;
          }
          case Op::kCount:
            break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  RunResult result;
  result.wall_seconds = wall.seconds();
  util::WallTimer drain;
  service.wait_idle();
  result.drain_seconds = drain.seconds();
  result.stats = service.stats();
  result.baseline = baseline;
  for (std::size_t c = 0; c < preset.clients; ++c) {
    for (std::size_t op = 0; op < kOpCount; ++op) {
      result.ops[op].merge(tallies[c][op]);
    }
  }
  return result;
}

void write_json(const char* path, const Preset& preset, std::size_t scale,
                const RunResult& r) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "mixed_workload: cannot open %s for writing\n",
                 path);
    std::exit(1);
  }
  std::uint64_t txns = 0;
  for (const auto& op : r.ops) txns += op.submitted;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"mixed_workload\",\n");
  std::fprintf(f, "  \"preset\": \"%s\",\n", preset.name);
  std::fprintf(f, "  \"scale\": %zu,\n", scale);
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"clients\": %zu,\n", preset.clients);
  std::fprintf(f, "  \"workers\": %zu,\n", preset.workers);
  std::fprintf(f, "  \"max_pending\": %zu,\n", preset.max_pending);
  std::fprintf(f, "  \"burst\": %zu,\n", preset.burst);
  std::fprintf(f, "  \"wall_seconds\": %.6f,\n", r.wall_seconds);
  std::fprintf(f, "  \"drain_seconds\": %.6f,\n", r.drain_seconds);
  std::fprintf(f, "  \"txns\": %llu,\n",
               static_cast<unsigned long long>(txns));
  std::fprintf(f, "  \"tps\": %.2f,\n",
               static_cast<double>(txns) / r.wall_seconds);
  std::fprintf(f, "  \"ops\": {\n");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const OpTally& t = r.ops[op];
    std::fprintf(
        f,
        "    \"%s\": {\"submitted\": %llu, \"answered\": %llu, "
        "\"shed\": %llu, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"p999_ms\": %.4f}%s\n",
        op_name(op), static_cast<unsigned long long>(t.submitted),
        static_cast<unsigned long long>(t.answered),
        static_cast<unsigned long long>(t.shed), pct_ms(t.latencies, 50),
        pct_ms(t.latencies, 99), pct_ms(t.latencies, 99.9),
        op + 1 < kOpCount ? "," : "");
  }
  std::fprintf(f, "  },\n");
  const service::ServiceStats& s = r.stats;
  const service::StreamStats t = s.totals();
  std::fprintf(
      f,
      "  \"service_stats\": {\"label_requests\": %llu, "
      "\"label_answered\": %llu, \"label_shed\": %llu, "
      "\"recommend_requests\": %llu, \"recommend_answered\": %llu, "
      "\"recommend_shed\": %llu, \"queue_depth\": %llu, "
      "\"max_queue_depth\": %llu, \"retrain_checks\": %llu, "
      "\"retrains\": %llu, \"retrains_coalesced\": %llu}\n",
      static_cast<unsigned long long>(t.label_requests),
      static_cast<unsigned long long>(t.label_answered),
      static_cast<unsigned long long>(t.label_shed),
      static_cast<unsigned long long>(t.recommend_requests),
      static_cast<unsigned long long>(t.recommend_answered),
      static_cast<unsigned long long>(t.recommend_shed),
      static_cast<unsigned long long>(s.queue_depth),
      static_cast<unsigned long long>(s.max_queue_depth),
      static_cast<unsigned long long>(t.retrain_checks),
      static_cast<unsigned long long>(t.retrains),
      static_cast<unsigned long long>(t.retrains_coalesced));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("json report written to %s\n", path);
}

/// The graceful-degradation gate (CI saturation step). Returns the number
/// of violated invariants; prints each violation.
int check_graceful(const Preset& preset, const RunResult& r) {
  int violations = 0;
  const auto fail = [&violations](const char* what) {
    std::fprintf(stderr, "GRACEFUL-DEGRADATION VIOLATION: %s\n", what);
    ++violations;
  };
  const OpTally& label = r.ops[static_cast<std::size_t>(Op::kLabel)];
  const OpTally& rank = r.ops[static_cast<std::size_t>(Op::kRank)];
  // Shedding all user-plane traffic is not degradation, it is an outage.
  if (label.answered + rank.answered == 0) {
    fail("100% of user-plane traffic was shed");
  }
  const service::StreamStats s = r.stats.totals();
  // The admission ledger must reconcile exactly once idle: every submit
  // was either answered or shed, nothing lost, nothing double-counted.
  if (s.label_requests != s.label_answered + s.label_shed) {
    fail("label_requests != label_answered + label_shed");
  }
  if (s.lookup_requests != s.lookup_answered + s.lookup_shed) {
    fail("lookup_requests != lookup_answered + lookup_shed");
  }
  if (s.recommend_requests != s.recommend_answered + s.recommend_shed) {
    fail("recommend_requests != recommend_answered + recommend_shed");
  }
  // Client-observed outcomes must agree with the service's ledger (deltas
  // against the post-warmup baseline: the warmup request is outside the
  // timed run but inside the service's lifetime counters).
  const service::StreamStats b = r.baseline.totals();
  if (label.answered != s.label_answered - b.label_answered ||
      label.shed != s.label_shed - b.label_shed) {
    fail("client-observed label outcomes disagree with ServiceStats");
  }
  if (rank.answered != s.recommend_answered - b.recommend_answered ||
      rank.shed != s.recommend_shed - b.recommend_shed) {
    fail("client-observed rank outcomes disagree with ServiceStats");
  }
  if (r.stats.queue_depth != 0) {
    fail("pending queue did not drain after the run");
  }
  if (preset.max_pending != 0 &&
      r.stats.max_queue_depth > preset.max_pending) {
    fail("pending queue grew beyond the configured bound");
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  Preset preset = full_preset();
  const char* json_path = nullptr;
  bool require_graceful = false;
  std::size_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    const auto pick = [&preset](const char* name) {
      if (std::strcmp(name, "small") == 0) preset = small_preset();
      else if (std::strcmp(name, "full") == 0) preset = full_preset();
      else if (std::strcmp(name, "saturate") == 0) preset = saturate_preset();
      else {
        std::fprintf(stderr, "unknown preset: %s\n", name);
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc) {
      pick(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--require-graceful") == 0) {
      require_graceful = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::max(1, std::atoi(argv[++i]));
    } else if (argv[i][0] != '-') {
      pick(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: mixed_workload [--preset small|full|saturate] "
                   "[--scale N] [--json PATH] [--require-graceful]\n");
      return 2;
    }
  }
  preset.history *= scale;
  preset.txns_per_client *= scale;

  bench::print_header(
      "Mixed-workload transaction driver",
      std::string("closed-loop typed mix over one DataService (preset: ") +
          preset.name + ", scale: " + std::to_string(scale) +
          ", hw threads: " +
          std::to_string(std::thread::hardware_concurrency()) + ")");
  std::printf(
      "mix: ingest %zu%% / lookup_or_label %zu%% / rank %zu%% / "
      "publish %zu%% / retrain %zu%% — %zu clients x %zu txns, "
      "burst %zu, workers %zu, max_pending %zu\n",
      preset.weights.ingest, preset.weights.label, preset.weights.rank,
      preset.weights.publish, preset.weights.retrain, preset.clients,
      preset.txns_per_client, preset.burst, preset.workers,
      preset.max_pending);

  // --- untimed setup + workload precalculation ------------------------------
  const auto timeline = bench::standard_timeline(12, 7);
  const nn::Batchset history =
      timeline.dataset_at(2, preset.history, kSeed);
  store::DocStore db;
  fairds::FairDSConfig config;
  config.embedding_dim = 12;
  config.n_clusters = 8;
  config.embed_train.epochs = preset.embed_epochs;
  config.certainty_threshold = preset.certainty_threshold;
  config.seed = kSeed;
  config.store_shards = 4;
  fairds::FairDS ds(config, db);
  ds.train_system(head_rows(history.xs, preset.train_subset));
  ds.ingest(history.xs, history.ys, "history");

  fairms::ModelZoo zoo(db);
  // Seed the zoo so rank transactions have real candidates from txn one.
  for (std::size_t m = 0; m < 4; ++m) {
    zoo.publish("braggnn", "seed_" + std::to_string(m),
                ds.distribution(timeline.dataset_at(2 + m, 32, kSeed + m).xs),
                std::vector<std::uint8_t>(kPublishBlobBytes, 0x42));
  }
  fairms::ModelManager manager(zoo, 1.0);
  service::DataService service(
      {.workers = preset.workers, .max_pending = preset.max_pending});
  service.add_stream(service::kDefaultStreamName, ds, {.store_shards = 4},
                     &manager);

  const Workload workload = build_workload(preset, timeline, ds);

  // --- timed run ------------------------------------------------------------
  const RunResult result = run_mix(preset, workload, ds, zoo, service);

  const service::StreamStats totals = result.stats.totals();
  std::uint64_t txns = 0, user_answered = 0, user_shed = 0;
  for (std::size_t op = 0; op < kOpCount; ++op) {
    txns += result.ops[op].submitted;
  }
  user_answered = result.ops[1].answered + result.ops[2].answered;
  user_shed = result.ops[1].shed + result.ops[2].shed;

  bench::print_row("op", "submitted", "answered", "shed", "p50_ms",
                   "p99_ms", "p999_ms");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const OpTally& t = result.ops[op];
    bench::print_row(op_name(op), t.submitted, t.answered, t.shed,
                     pct_ms(t.latencies, 50), pct_ms(t.latencies, 99),
                     pct_ms(t.latencies, 99.9));
  }
  std::printf(
      "wall %.3fs, %.0f txns/s; user plane answered %llu / shed %llu; "
      "retrain checks %llu (%llu trained, %llu coalesced); queue high-water "
      "%llu of %zu; drain %.3fs\n",
      result.wall_seconds,
      static_cast<double>(txns) / result.wall_seconds,
      static_cast<unsigned long long>(user_answered),
      static_cast<unsigned long long>(user_shed),
      static_cast<unsigned long long>(totals.retrain_checks),
      static_cast<unsigned long long>(totals.retrains),
      static_cast<unsigned long long>(totals.retrains_coalesced),
      static_cast<unsigned long long>(result.stats.max_queue_depth),
      preset.max_pending, result.drain_seconds);

  if (json_path != nullptr) write_json(json_path, preset, scale, result);

  int violations = 0;
  if (require_graceful) {
    violations = check_graceful(preset, result);
    std::printf("graceful-degradation gate: %s\n",
                violations == 0 ? "PASS" : "FAIL");
  }

  bench::print_footer(
      "under the paper's mixed beamline traffic the service degrades by "
      "policy, not by accident: at saturation the bounded queue sheds with "
      "an explicit status while admitted requests keep completing, and the "
      "admission ledger reconciles exactly once the queue drains");
  return violations == 0 ? 0 : 1;
}
