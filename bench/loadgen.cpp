// loadgen — the closed-loop load driver of the serving layer.
//
// The paper's two-plane premise (§II, Fig. 3) is that the user plane keeps
// answering instrument traffic while the system plane retrains. Each
// scenario drives that premise from one side, then runs the same gate:
//
//   mix    in-process client threads over a typed deck (ingest,
//          lookup_or_label bursts, rank, publish, request_retrain) with
//          NURand hot-pool skew. `saturate` is deliberately over capacity:
//          1 worker, a 4-deep queue, 4-deep bursts and every retrain check
//          forced to train, so the run must degrade by shedding.
//   wire   forked client processes over TCP: pipelined label bursts plus
//          lookup, rank, request_retrain and stats, then one malformed-frame
//          probe per client. Hosts its own server on an ephemeral port
//          unless --connect names one (examples/serve).
//   storm  three streams: victims s1 and s2 are measured at baseline, then
//          again while a retrain storm hammers s0.
//   sweep  label-only clients at 1/2/4 (full: 1/2/4/8) threads, then a
//          baseline run and a run that forces a retrain mid-stream.
//
// Every input is generated before a timer starts and is deterministic from
// (preset, client), so a preset's per-op submitted counts never change.
// The gate is always on and any violation exits 1. On every stream, the
// client-observed outcomes of label, lookup, rank and request_retrain must
// equal the service's counter deltas (read in-process, or over the wire
// `stats` endpoint), every ledger must balance (requests == answered +
// shed), the queue must drain with its high-water mark within the bound,
// and some user-plane request must be answered. `wire` and `storm` add
// their own conditions (run_wire, check_storm). `--connect` expects a
// server without an auto-retrain policy: its checks have no client.
//
// Usage: loadgen mix|wire|storm|sweep [--preset small|full|saturate]
//                [--connect PORT] [--json PATH]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/data_service.hpp"
#include "util/bytes.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace fairdms;
using service::ServeStatus;
using service::ServiceStats;
using service::StreamStats;

enum class Op : std::size_t {
  kIngest = 0,
  kLabel,
  kLookup,
  kRank,
  kPublish,
  kRetrain,
  kStats,
  kCount,
};
constexpr std::size_t kOps = static_cast<std::size_t>(Op::kCount);
constexpr const char* kOpNames[kOps] = {
    "ingest", "lookup_or_label", "lookup", "rank",
    "publish", "request_retrain", "stats"};
constexpr std::size_t idx(Op op) { return static_cast<std::size_t>(op); }

constexpr std::size_t kQueryPools = 16;  ///< precomputed hot-key space
constexpr std::size_t kNurandA = 7;      ///< TPC-C A for a 16-wide key space
constexpr std::size_t kProbes = 4;       ///< drifted retrain probes
constexpr std::size_t kProbeRows = 48;
constexpr std::size_t kBlobBytes = 4096;  ///< published parameter blobs
/// Label threshold under which every query reuses a stored label, so the
/// fallback labeler never runs: the load measures serving, not labeling.
constexpr double kReuseAll = 1e9;
/// storm: a victim's storm-phase p99 must stay within max(ratio x its own
/// baseline p99, floor). Loose on purpose: the gate catches victims
/// queuing behind another tenant's system plane, not scheduler noise.
constexpr double kIsolationRatio = 25.0;
constexpr double kIsolationFloorMs = 250.0;

enum class Scenario { kMix, kWire, kStorm, kSweep };

struct Preset {
  const char* name;
  std::uint64_t seed;
  std::size_t history;          ///< stored samples per stream
  std::size_t train_subset;     ///< embedding-training rows
  std::size_t embed_epochs;
  std::size_t streams;
  double certainty_threshold;   ///< stream 0's; > 1 makes every check train
  std::size_t workers;          ///< service worker threads
  std::size_t max_pending;      ///< service-wide admission bound (0 = none)
  std::vector<std::size_t> clients;  ///< sweep runs one row per entry
  std::size_t txns;             ///< per client
  std::size_t batch;            ///< rows per query
  std::size_t ingest_batch;     ///< rows per ingest
  std::size_t burst;            ///< label requests in flight per label txn
  std::array<std::size_t, kOps> weights;  ///< percent, in Op order
};

/// A scenario's presets. The decks are seeded, so a preset fixes every
/// per-op submitted count.
std::optional<Preset> find_preset(Scenario scenario, const std::string& n) {
  // Weights in Op order: ingest, label, lookup, rank, publish, retrain,
  // stats.
  constexpr std::array<std::size_t, kOps> kMix = {15, 60, 0, 10, 5, 10, 0};
  constexpr std::array<std::size_t, kOps> kSat = {25, 45, 0, 10, 5, 15, 0};
  constexpr std::array<std::size_t, kOps> kWire = {0, 50, 20, 15, 0, 5, 10};
  constexpr std::array<std::size_t, kOps> kLabels = {0, 100, 0, 0, 0, 0, 0};
  // name, seed, history, train_subset, epochs, streams, threshold, workers,
  // max_pending, clients, txns, batch, ingest_batch, burst, weights
  switch (scenario) {
    case Scenario::kMix:
      if (n == "small")
        return Preset{"small", 6161, 256, 256, 2, 1, 0.8, 4, 64, {4}, 40, 8,
                      16, 1, kMix};
      if (n == "full")
        return Preset{"full", 6161, 1024, 512, 3, 1, 0.8, 8, 256, {8}, 120,
                      16, 32, 1, kMix};
      if (n == "saturate")
        return Preset{"saturate", 6161, 256, 256, 2, 1, 1.01, 1, 4, {8}, 24,
                      8, 8, 4, kSat};
      break;
    case Scenario::kWire:
      if (n == "small")
        return Preset{"small", 6161, 256, 256, 2, 1, 0.8, 4, 64, {4}, 40, 8,
                      0, 4, kWire};
      if (n == "full")
        return Preset{"full", 6161, 512, 512, 2, 1, 0.8, 4, 128, {6}, 120, 8,
                      0, 8, kWire};
      break;
    case Scenario::kStorm:
      if (n == "small")
        return Preset{"small", 7272, 192, 192, 2, 3, 1.01, 4, 64, {2}, 40, 8,
                      0, 1, kLabels};
      if (n == "full")
        return Preset{"full", 7272, 512, 512, 3, 3, 1.01, 8, 256, {2}, 120,
                      16, 0, 1, kLabels};
      break;
    case Scenario::kSweep:
      if (n == "small")
        return Preset{"small", 3131, 256, 256, 2, 1, 1.01, 0, 0, {1, 2, 4},
                      6, 8, 0, 1, kLabels};
      if (n == "full")
        return Preset{"full", 3131, 1024, 512, 3, 1, 1.01, 0, 0,
                      {1, 2, 4, 8}, 24, 16, 0, 1, kLabels};
      break;
  }
  return std::nullopt;
}

// --- inputs -----------------------------------------------------------------

/// TPC-C NURand(A, 0, n-1): ORing two uniform draws concentrates results on
/// a hot subset of the key space; `c` decorrelates the hot set from the key
/// order.
std::size_t nurand(util::Rng& rng, std::size_t c) {
  const std::size_t hot = rng.uniform_index(kNurandA + 1);
  const std::size_t base = rng.uniform_index(kQueryPools);
  return ((hot | base) + c) % kQueryPools;
}

/// An exact-proportion deck: floor(txns * weight / 100) slots per op,
/// padded with `fill` to `txns`, then shuffled, so every client offers
/// exactly the preset's mix rather than a sample of it.
std::vector<std::size_t> build_deck(util::Rng& rng, std::size_t txns,
                                    const std::array<std::size_t, kOps>& pct,
                                    std::size_t fill) {
  std::vector<std::size_t> deck;
  deck.reserve(txns);
  for (std::size_t op = 0; op < kOps; ++op) {
    deck.insert(deck.end(), txns * pct[op] / 100, op);
  }
  while (deck.size() < txns) deck.push_back(fill);
  rng.shuffle(deck);
  return deck;
}

struct Txn {
  Op op;
  std::size_t pool;   ///< NURand-drawn query pool
  std::size_t probe;  ///< drift probe (request_retrain only)
};

/// Everything the clients send. A forked wire client rebuilds it from the
/// preset, so nothing but the port crosses the fork.
struct Inputs {
  std::uint64_t seed;
  std::vector<nn::Batchset> pools;      ///< in-distribution (scans 2-5)
  std::vector<nn::Batchset> probes;     ///< post-deformation (scans 8-10)
  std::vector<std::vector<Txn>> decks;  ///< one per client
};

Inputs build_inputs(const Preset& p, std::size_t clients) {
  const auto timeline = bench::standard_timeline(12, 7);
  Inputs in{p.seed, {}, {}, {}};
  for (std::size_t i = 0; i < kQueryPools; ++i) {
    in.pools.push_back(
        timeline.dataset_at(2 + i % 4, p.batch, p.seed + 10 + i));
  }
  for (std::size_t i = 0; i < kProbes; ++i) {
    in.probes.push_back(
        timeline.dataset_at(8 + i % 3, kProbeRows, p.seed + 50 + i));
  }
  util::Rng rng(p.seed);
  const std::size_t skew = rng.uniform_index(kQueryPools);
  for (std::size_t c = 0; c < clients; ++c) {
    util::Rng client_rng = rng.fork(1000 + c);
    std::vector<Txn> deck;
    for (const std::size_t op :
         build_deck(client_rng, p.txns, p.weights, idx(Op::kLabel))) {
      Txn txn{static_cast<Op>(op), nurand(client_rng, skew), 0};
      if (txn.op == Op::kRetrain) {
        txn.probe = client_rng.uniform_index(kProbes);
      }
      deck.push_back(txn);
    }
    in.decks.push_back(std::move(deck));
  }
  return in;
}

/// A fallback labeler of the stored label width. Reuse-all requests never
/// call it; the request contract needs one.
std::function<nn::Tensor(const nn::Tensor&)> labeler(std::size_t width) {
  return [width](const nn::Tensor& xs) {
    return nn::Tensor({xs.dim(0), width});
  };
}

// --- world ------------------------------------------------------------------

/// The served side: one trained FairDS per stream over one store, a seeded
/// zoo, one DataService and, for a self-hosted `wire` run, a net::Server
/// on an ephemeral port. A one-stream world serves the default stream; a
/// multi-stream world names its streams s0, s1, ...
struct World {
  World(const Preset& p, bool serve);

  store::DocStore db;
  std::vector<std::unique_ptr<fairds::FairDS>> streams;
  std::vector<std::string> names;
  fairms::ModelZoo zoo{db};
  fairms::ModelManager manager{zoo, 1.0};
  service::DataService service;
  std::size_t label_width = 0;
  std::optional<net::Server> server;  ///< last: stops before the service
};

World::World(const Preset& p, bool serve)
    : service({.workers = p.workers, .max_pending = p.max_pending}) {
  const auto timeline = bench::standard_timeline(12, 7);
  service::StreamConfig stream_config;
  stream_config.store_shards = 4;
  for (std::size_t s = 0; s < p.streams; ++s) {
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = p.embed_epochs;
    config.seed = p.seed + s;
    config.store_shards = 4;
    config.collection = "stream_s" + std::to_string(s);
    if (s == 0) config.certainty_threshold = p.certainty_threshold;
    fairds::FairDS& ds = *streams.emplace_back(
        std::make_unique<fairds::FairDS>(config, db));
    const nn::Batchset history =
        timeline.dataset_at(2, p.history, p.seed + s);
    ds.train_system(bench::head_rows(history.xs, p.train_subset));
    ds.ingest(history.xs, history.ys, "history_s" + std::to_string(s));
    label_width = ds.snapshot()->label_width();
    names.push_back(p.streams == 1 ? service::kDefaultStreamName
                                   : "s" + std::to_string(s));
    service.add_stream(names.back(), ds, stream_config, &manager);
    // First-touch costs stay out of every timed window.
    (void)service
        .submit(service::LabelRequest{bench::head_rows(history.xs, p.batch),
                                      kReuseAll, labeler(label_width),
                                      names.back()})
        .get();
  }
  // Real rank candidates from the first transaction on.
  const auto snap = streams[0]->snapshot();
  for (std::size_t m = 0; m < 4; ++m) {
    zoo.publish("braggnn", "seed_" + std::to_string(m),
                snap->distribution(
                    timeline.dataset_at(2 + m, 32, p.seed + m).xs),
                std::vector<std::uint8_t>(kBlobBytes, 0x42));
  }
  if (serve) {
    net::ServerConfig config;
    config.fallback_labeler = labeler(label_width);
    server.emplace(service, config);
  }
}

// --- tally ------------------------------------------------------------------

/// Client-observed outcomes of one op. `shed` counts explicit non-kOk
/// answers (for request_retrain: coalesced into an in-flight check); they
/// stay out of the latency percentiles so shedding cannot deflate them.
struct OpTally {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
  std::vector<double> latencies;  ///< seconds, answered requests only
};
using Tally = std::array<OpTally, kOps>;
/// Client tallies merged per stream name.
using StreamTallies = std::map<std::string, Tally>;

void merge(Tally& into, const Tally& from) {
  for (std::size_t op = 0; op < kOps; ++op) {
    into[op].submitted += from[op].submitted;
    into[op].answered += from[op].answered;
    into[op].shed += from[op].shed;
    into[op].latencies.insert(into[op].latencies.end(),
                              from[op].latencies.begin(),
                              from[op].latencies.end());
  }
}

const Tally& tally_of(const StreamTallies& tallies, const std::string& s) {
  static const Tally kNone{};
  const auto it = tallies.find(s);
  return it != tallies.end() ? it->second : kNone;
}

/// nullopt: the transport failed before an answer arrived.
using Outcome = std::optional<ServeStatus>;

/// False when the transport failed (nothing is counted then).
bool record(OpTally& tally, Outcome status, double seconds) {
  if (!status) return false;
  ++tally.submitted;
  if (*status == ServeStatus::kOk) {
    ++tally.answered;
    tally.latencies.push_back(seconds);
  } else {
    ++tally.shed;
  }
  return true;
}

/// Latency percentile in milliseconds (0 when nothing was answered).
double pct_ms(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : util::percentile(xs, p) * 1e3;
}

// --- targets ----------------------------------------------------------------

/// In-process target: the DataService planes, plus FairDS::ingest and
/// ModelZoo::publish called directly (they are not service ops). The
/// client's ingest batches and publish payloads are generated at
/// construction, outside the timed window, and consumed in deck order.
class LocalTarget {
 public:
  LocalTarget(World& world, const Inputs& in, const Preset& p,
              std::size_t client, std::size_t stream)
      : world_(world),
        in_(in),
        ds_(*world.streams[stream]),
        stream_(world.names[stream]),
        labeler_(labeler(world.label_width)) {
    const auto timeline = bench::standard_timeline(12, 7);
    const auto snap = ds_.snapshot();
    const std::vector<Txn>& deck = in.decks[client];
    for (std::size_t t = 0; t < deck.size(); ++t) {
      const std::string id =
          "c" + std::to_string(client) + "_t" + std::to_string(t);
      if (deck[t].op == Op::kIngest) {
        writes_.push_back({"ingest_" + id,
                           timeline.dataset_at(2 + deck[t].pool % 4,
                                               p.ingest_batch,
                                               p.seed + 900 +
                                                   client * deck.size() + t),
                           {}, {}});
      } else if (deck[t].op == Op::kPublish) {
        writes_.push_back(
            {"publish_" + id, {}, snap->distribution(in.pools[deck[t].pool].xs),
             std::vector<std::uint8_t>(kBlobBytes,
                                       static_cast<std::uint8_t>(t))});
      }
    }
  }

  /// `burst` futures in flight, then drained; each answer is reported as
  /// it is collected.
  template <typename On>
  bool label(const Txn& txn, std::size_t burst, const On& on) {
    std::vector<std::future<service::LabelResponse>> futures;
    futures.reserve(burst);
    for (std::size_t b = 0; b < burst; ++b) {
      futures.push_back(world_.service.submit(service::LabelRequest{
          in_.pools[txn.pool].xs, kReuseAll, labeler_, stream_}));
    }
    for (auto& f : futures) on(f.get().status);
    return true;
  }
  Outcome lookup(const Txn& txn) {
    return world_.service
        .submit(service::LookupRequest{in_.pools[txn.pool].xs,
                                       in_.seed + txn.pool, stream_})
        .get()
        .status;
  }
  Outcome rank(const Txn& txn) {
    return world_.service
        .submit(service::RecommendRequest{"braggnn", in_.pools[txn.pool].xs,
                                          stream_})
        .get()
        .status;
  }
  /// Accepted counts as answered; coalesced into an in-flight check as
  /// shed.
  Outcome retrain(const Txn& txn) {
    return world_.service.request_retrain(stream_, in_.probes[txn.probe].xs)
               ? ServeStatus::kOk
               : ServeStatus::kShedOverload;
  }
  Outcome stats(const Txn&) {
    (void)world_.service.stats();
    return ServeStatus::kOk;
  }
  Outcome ingest(const Txn&) {
    const Write& w = writes_[next_write_++];
    ds_.ingest(w.batch.xs, w.batch.ys, w.id);
    return ServeStatus::kOk;
  }
  Outcome publish(const Txn&) {
    const Write& w = writes_[next_write_++];
    world_.zoo.publish("braggnn", w.id, w.pdf, w.blob);
    return ServeStatus::kOk;
  }

 private:
  struct Write {
    std::string id;
    nn::Batchset batch;             ///< ingest
    std::vector<double> pdf;        ///< publish
    std::vector<std::uint8_t> blob;  ///< publish
  };

  World& world_;
  const Inputs& in_;
  fairds::FairDS& ds_;
  std::string stream_;
  std::function<nn::Tensor(const nn::Tensor&)> labeler_;
  std::vector<Write> writes_;
  std::size_t next_write_ = 0;
};

/// Wire target: the same ops through net::Client on one connection.
class WireTarget {
 public:
  WireTarget(net::Client& client, const Inputs& in)
      : client_(client), in_(in) {}

  /// Pipelined burst: `burst` frames on the wire before the first read;
  /// answers may come back in any order (correlation ids match them).
  template <typename On>
  bool label(const Txn& txn, std::size_t burst, const On& on) {
    for (std::size_t b = 0; b < burst; ++b) {
      if (client_.send_label(service::LabelRequest{
              in_.pools[txn.pool].xs, kReuseAll, nullptr, {}}) == 0) {
        return false;
      }
    }
    for (std::size_t b = 0; b < burst; ++b) {
      const auto reply = client_.recv_reply();
      if (!on(reply ? Outcome(reply->header.status) : std::nullopt)) {
        return false;
      }
    }
    return true;
  }
  Outcome lookup(const Txn& txn) {
    return status_of(client_.lookup(service::LookupRequest{
        in_.pools[txn.pool].xs, in_.seed + txn.pool, {}}));
  }
  Outcome rank(const Txn& txn) {
    return status_of(client_.recommend(
        service::RecommendRequest{"braggnn", in_.pools[txn.pool].xs, {}}));
  }
  Outcome retrain(const Txn& txn) {
    const auto accepted = client_.request_retrain(in_.probes[txn.probe].xs);
    if (!accepted) return std::nullopt;
    return *accepted ? ServeStatus::kOk : ServeStatus::kShedOverload;
  }
  Outcome stats(const Txn&) {
    return client_.stats() ? Outcome(ServeStatus::kOk) : std::nullopt;
  }
  // Not wire ops; the wire presets give them weight 0.
  Outcome ingest(const Txn&) { return std::nullopt; }
  Outcome publish(const Txn&) { return std::nullopt; }

  /// A valid envelope around garbage must be answered kMalformedRequest
  /// with its correlation id, and the connection must keep working. The
  /// stats request queued behind the probe makes a dropped probe fail
  /// (its reply arrives first) instead of blocking forever.
  bool probe() {
    constexpr std::uint64_t kCid = 987654321;
    if (!client_.send_raw(net::encode_frame(net::Op::kLabel, ServeStatus::kOk,
                                            kCid, {0xde, 0xad, 0xbe, 0xef})) ||
        client_.send_stats() == 0) {
      return false;
    }
    const auto reply = client_.recv_reply();
    return reply.has_value() &&
           reply->header.status == ServeStatus::kMalformedRequest &&
           reply->header.correlation_id == kCid && client_.stats();
  }

 private:
  template <typename Response>
  static Outcome status_of(const std::optional<Response>& response) {
    return response ? Outcome(response->status) : std::nullopt;
  }

  net::Client& client_;
  const Inputs& in_;
};

/// The client loop: one closed-loop pass over `deck`. False when the
/// transport failed.
template <typename Target>
bool drive(Target& target, const std::vector<Txn>& deck, std::size_t burst,
           Tally& tally) {
  for (const Txn& txn : deck) {
    OpTally& t = tally[idx(txn.op)];
    const util::WallTimer timer;
    const auto on = [&t, &timer](Outcome status) {
      return record(t, status, timer.seconds());
    };
    bool ok = true;
    switch (txn.op) {
      case Op::kIngest: ok = on(target.ingest(txn)); break;
      case Op::kLabel: ok = target.label(txn, burst, on); break;
      case Op::kLookup: ok = on(target.lookup(txn)); break;
      case Op::kRank: ok = on(target.rank(txn)); break;
      case Op::kPublish: ok = on(target.publish(txn)); break;
      case Op::kRetrain: ok = on(target.retrain(txn)); break;
      case Op::kStats: ok = on(target.stats(txn)); break;
      case Op::kCount: break;
    }
    if (!ok) return false;
  }
  return true;
}

// --- fleets -----------------------------------------------------------------

/// One timed run: client tallies merged per stream, and its wall time.
struct Phase {
  std::string name;
  StreamTallies streams;
  double wall_seconds = 0.0;
};

/// Thread fleet: client c drives decks[c] against stream stream_of[c].
Phase run_threads(World& world, const Inputs& in, const Preset& p,
                  const std::vector<std::size_t>& stream_of,
                  std::string name) {
  std::vector<LocalTarget> targets;
  targets.reserve(stream_of.size());
  for (std::size_t c = 0; c < stream_of.size(); ++c) {
    targets.emplace_back(world, in, p, c, stream_of[c]);
  }
  std::vector<Tally> tallies(stream_of.size());
  const util::WallTimer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < stream_of.size(); ++c) {
    threads.emplace_back([&, c] {
      (void)drive(targets[c], in.decks[c], p.burst, tallies[c]);
    });
  }
  for (auto& t : threads) t.join();
  Phase phase{std::move(name), {}, wall.seconds()};
  for (std::size_t c = 0; c < stream_of.size(); ++c) {
    merge(phase.streams[world.names[stream_of[c]]], tallies[c]);
  }
  return phase;
}

/// What a wire client process sends back through its pipe.
struct ClientReport {
  Tally tally;
  bool transport_ok = false;
  bool probe_ok = false;
};

net::Bytes encode_report(const ClientReport& r) {
  net::Bytes body;
  util::ByteWriter w(body);
  w.u8(r.transport_ok ? 1 : 0);
  w.u8(r.probe_ok ? 1 : 0);
  for (const OpTally& t : r.tally) {
    w.u64(t.submitted);
    w.u64(t.answered);
    w.u64(t.shed);
    w.u32(static_cast<std::uint32_t>(t.latencies.size()));
    for (const double s : t.latencies) w.f64(s);
  }
  net::Bytes out;
  util::ByteWriter framed(out);
  framed.u32(static_cast<std::uint32_t>(body.size()));
  framed.bytes(body);
  return out;
}

bool read_report(int fd, ClientReport* r) {
  std::uint8_t len_bytes[4];
  std::uint32_t len = 0;
  if (!net::read_exact(fd, len_bytes, 4) ||
      !util::ByteReader(len_bytes).u32(&len)) {
    return false;
  }
  net::Bytes blob(len);
  if (!net::read_exact(fd, blob.data(), len)) return false;
  util::ByteReader reader(blob);
  std::uint8_t transport = 0;
  std::uint8_t probe = 0;
  if (!reader.u8(&transport) || !reader.u8(&probe)) return false;
  r->transport_ok = transport != 0;
  r->probe_ok = probe != 0;
  for (OpTally& t : r->tally) {
    std::uint32_t n = 0;
    if (!reader.u64(&t.submitted) || !reader.u64(&t.answered) ||
        !reader.u64(&t.shed) || !reader.u32(&n) || n > reader.remaining()) {
      return false;
    }
    t.latencies.resize(n);
    for (double& s : t.latencies) {
      if (!reader.f64(&s)) return false;
    }
  }
  return reader.done();
}

/// A wire client process: rebuild the inputs, wait for the port (the
/// parent writes it once the server accepts, so reading it is the start
/// barrier), drive the deck, probe, report. Returns the exit code.
int run_wire_client(const Preset& p, std::size_t client, int port_fd,
                    int report_fd) {
  const Inputs in = build_inputs(p, client + 1);
  std::uint8_t port_bytes[2];
  std::uint16_t port = 0;
  if (!net::read_exact(port_fd, port_bytes, 2) ||
      !util::ByteReader(port_bytes).u16(&port)) {
    return 3;
  }
  net::Client client_conn;
  if (!client_conn.connect_retry("127.0.0.1", port, 30.0)) return 4;
  WireTarget target(client_conn, in);
  ClientReport report;
  report.transport_ok = drive(target, in.decks[client], p.burst, report.tally);
  report.probe_ok = report.transport_ok && target.probe();
  const net::Bytes bytes = encode_report(report);
  if (!net::write_all(report_fd, bytes.data(), bytes.size())) return 5;
  return report.transport_ok ? 0 : 6;
}

// --- gate -------------------------------------------------------------------

struct Gate {
  int violations = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "GATE VIOLATION: %s\n", what.c_str());
    ++violations;
  }
};

/// The three StreamStats counters a user-plane op owns.
struct Ledger {
  Op op;
  std::uint64_t StreamStats::*requests;
  std::uint64_t StreamStats::*answered;
  std::uint64_t StreamStats::*shed;
};
constexpr Ledger kUserPlane[] = {
    {Op::kLabel, &StreamStats::label_requests, &StreamStats::label_answered,
     &StreamStats::label_shed},
    {Op::kLookup, &StreamStats::lookup_requests,
     &StreamStats::lookup_answered, &StreamStats::lookup_shed},
    {Op::kRank, &StreamStats::recommend_requests,
     &StreamStats::recommend_answered, &StreamStats::recommend_shed},
};

bool balanced(const StreamStats& s, const Ledger& l) {
  return s.*l.requests == s.*l.answered + s.*l.shed;
}

/// The gate every scenario runs, over the counters read before and after
/// the timed window (`after` once the service is idle).
void check_ledgers(Gate& gate, const StreamTallies& clients,
                   const ServiceStats& before, const ServiceStats& after) {
  std::uint64_t answered = 0;
  for (const StreamStats& s : after.streams) {
    const auto b = std::find_if(
        before.streams.begin(), before.streams.end(),
        [&s](const StreamStats& x) { return x.stream == s.stream; });
    const auto delta = [&](std::uint64_t StreamStats::*f) {
      return s.*f - (b != before.streams.end() ? (*b).*f : 0);
    };
    const Tally& tally = tally_of(clients, s.stream);
    for (std::size_t op = 0; op < kOps; ++op) {
      gate.expect(tally[op].submitted == tally[op].answered + tally[op].shed,
                  s.stream + " " + kOpNames[op] +
                      ": client submitted != answered + shed");
    }
    for (const Ledger& l : kUserPlane) {
      const OpTally& t = tally[idx(l.op)];
      const std::string what = s.stream + " " + kOpNames[idx(l.op)];
      gate.expect(delta(l.requests) == t.submitted &&
                      delta(l.answered) == t.answered &&
                      delta(l.shed) == t.shed,
                  what + ": service counters disagree with the clients");
      gate.expect(balanced(s, l), what + ": requests != answered + shed");
      answered += t.answered;
    }
    const OpTally& retrain = tally[idx(Op::kRetrain)];
    gate.expect(delta(&StreamStats::retrain_checks) == retrain.answered &&
                    delta(&StreamStats::retrains_coalesced) +
                            delta(&StreamStats::retrains_capped) ==
                        retrain.shed,
                s.stream + " request_retrain: checks and coalesced "
                           "disagree with the clients");
  }
  const StreamStats totals = after.totals();
  for (const Ledger& l : kUserPlane) {
    gate.expect(balanced(totals, l),
                std::string("service-wide ") + kOpNames[idx(l.op)] +
                    ": requests != answered + shed");
  }
  gate.expect(after.queue_depth == 0, "pending queue did not drain");
  gate.expect(after.max_pending == 0 ||
                  after.max_queue_depth <= after.max_pending,
              "pending queue grew beyond the configured bound");
  gate.expect(answered > 0, "100% of user-plane traffic was shed");
}

/// storm: s0 retrained, no victim did, and every victim kept answering
/// without a single shed and within its p99 bound.
void check_storm(Gate& gate, const Phase& baseline, const Phase& storm,
                 const ServiceStats& after) {
  for (const StreamStats& s : after.streams) {
    if (s.stream == "s0") {
      gate.expect(s.retrains > 0, "storm stream s0 never retrained");
      continue;
    }
    gate.expect(s.retrains == 0,
                s.stream + " retrained: the storm leaked across streams");
    const OpTally& b = tally_of(baseline.streams, s.stream)[idx(Op::kLabel)];
    const OpTally& t = tally_of(storm.streams, s.stream)[idx(Op::kLabel)];
    gate.expect(b.answered + t.answered > 0, s.stream + " answered nothing");
    gate.expect(b.shed + t.shed == 0,
                s.stream + " shed " + std::to_string(b.shed + t.shed) +
                    " requests");
    const double bound =
        std::max(kIsolationRatio * pct_ms(b.latencies, 99), kIsolationFloorMs);
    gate.expect(pct_ms(t.latencies, 99) <= bound,
                s.stream + " storm p99 " +
                    std::to_string(pct_ms(t.latencies, 99)) +
                    " ms exceeds bound " + std::to_string(bound) + " ms");
  }
}

// --- report -----------------------------------------------------------------

struct Report {
  std::vector<Phase> phases;
  ServiceStats stats;  ///< the last counters the gate read
  int violations = 0;
};

Tally merged(const Phase& phase) {
  Tally all;
  for (const auto& [stream, tally] : phase.streams) merge(all, tally);
  return all;
}

void print_ops(const Phase& phase, const ServiceStats& after) {
  const Tally all = merged(phase);
  bench::print_row("op", "submitted", "answered", "shed", "p50_ms", "p99_ms",
                   "p999_ms");
  std::uint64_t results = 0;
  for (std::size_t op = 0; op < kOps; ++op) {
    const OpTally& t = all[op];
    results += t.submitted;
    if (t.submitted == 0) continue;
    bench::print_row(kOpNames[op], static_cast<std::size_t>(t.submitted),
                     static_cast<std::size_t>(t.answered),
                     static_cast<std::size_t>(t.shed),
                     pct_ms(t.latencies, 50), pct_ms(t.latencies, 99),
                     pct_ms(t.latencies, 99.9));
  }
  const StreamStats totals = after.totals();
  std::printf(
      "wall %.3fs, %.0f results/s; retrain checks %llu (%llu trained, %llu "
      "coalesced); queue high-water %llu of %llu\n",
      phase.wall_seconds, static_cast<double>(results) / phase.wall_seconds,
      static_cast<unsigned long long>(totals.retrain_checks),
      static_cast<unsigned long long>(totals.retrains),
      static_cast<unsigned long long>(totals.retrains_coalesced),
      static_cast<unsigned long long>(after.max_queue_depth),
      static_cast<unsigned long long>(after.max_pending));
}

bool write_json(const std::string& path, const char* scenario,
                const Preset& p, const Report& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "loadgen: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::fprintf(f,
               "{\n  \"bench\": \"loadgen\",\n  \"scenario\": \"%s\",\n"
               "  \"preset\": \"%s\",\n  \"hw_threads\": %u,\n"
               "  \"violations\": %d,\n  \"phases\": [",
               scenario, p.name, std::thread::hardware_concurrency(),
               r.violations);
  const char* phase_sep = "\n";
  for (const Phase& phase : r.phases) {
    std::fprintf(f, "%s    {\"phase\": \"%s\", \"wall_seconds\": %.6f, "
                 "\"streams\": {", phase_sep, phase.name.c_str(),
                 phase.wall_seconds);
    const char* stream_sep = "";
    for (const auto& [stream, tally] : phase.streams) {
      std::fprintf(f, "%s\n      \"%s\": {", stream_sep, stream.c_str());
      const char* op_sep = "";
      for (std::size_t op = 0; op < kOps; ++op) {
        const OpTally& t = tally[op];
        if (t.submitted == 0) continue;
        std::fprintf(f,
                     "%s\n        \"%s\": {\"submitted\": %llu, "
                     "\"answered\": %llu, \"shed\": %llu, \"p50_ms\": %.4f, "
                     "\"p99_ms\": %.4f, \"p999_ms\": %.4f}",
                     op_sep, kOpNames[op], u(t.submitted), u(t.answered),
                     u(t.shed), pct_ms(t.latencies, 50),
                     pct_ms(t.latencies, 99), pct_ms(t.latencies, 99.9));
        op_sep = ",";
      }
      std::fprintf(f, "}");
      stream_sep = ",";
    }
    std::fprintf(f, "}}");
    phase_sep = ",\n";
  }
  std::fprintf(f,
               "\n  ],\n  \"service\": {\"queue_depth\": %llu, "
               "\"max_queue_depth\": %llu, \"max_pending\": %llu, "
               "\"streams\": [",
               u(r.stats.queue_depth), u(r.stats.max_queue_depth),
               u(r.stats.max_pending));
  const char* sep = "\n";
  for (const StreamStats& s : r.stats.streams) {
    std::fprintf(
        f,
        "%s    {\"stream\": \"%s\", \"label_requests\": %llu, "
        "\"label_answered\": %llu, \"label_shed\": %llu, "
        "\"lookup_requests\": %llu, \"lookup_answered\": %llu, "
        "\"lookup_shed\": %llu, \"recommend_requests\": %llu, "
        "\"recommend_answered\": %llu, \"recommend_shed\": %llu, "
        "\"retrain_checks\": %llu, \"retrains\": %llu, "
        "\"retrains_coalesced\": %llu, \"snapshot_version\": %llu}",
        sep, s.stream.c_str(), u(s.label_requests), u(s.label_answered),
        u(s.label_shed), u(s.lookup_requests), u(s.lookup_answered),
        u(s.lookup_shed), u(s.recommend_requests), u(s.recommend_answered),
        u(s.recommend_shed), u(s.retrain_checks), u(s.retrains),
        u(s.retrains_coalesced), u(s.snapshot_version));
    sep = ",\n";
  }
  std::fprintf(f, "\n  ]}\n}\n");
  std::fclose(f);
  std::printf("json report written to %s\n", path.c_str());
  return true;
}

// --- scenarios --------------------------------------------------------------

Report run_mix(const Preset& p) {
  World world(p, false);
  const Inputs in = build_inputs(p, p.clients.front());
  const ServiceStats before = world.service.stats();
  Report r;
  r.phases.push_back(run_threads(
      world, in, p, std::vector<std::size_t>(p.clients.front(), 0), "mix"));
  world.service.wait_idle();
  r.stats = world.service.stats();
  print_ops(r.phases.back(), r.stats);
  Gate gate;
  check_ledgers(gate, r.phases.back().streams, before, r.stats);
  r.violations = gate.violations;
  return r;
}

Report run_wire(const Preset& p, std::uint16_t port) {
  // Coordination pipes can lose their peer if a child crashes; surface
  // that as a failed write, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  // Fork first: no thread may exist on either side of a fork. The children
  // block reading the port; the parent builds the world afterwards.
  struct Child {
    pid_t pid;
    int port_wr;
    int report_rd;
  };
  const std::size_t clients = p.clients.front();
  std::vector<Child> children;
  for (std::size_t c = 0; c < clients; ++c) {
    int port_pipe[2];
    int report_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(report_pipe) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      ::close(port_pipe[1]);
      ::close(report_pipe[0]);
      for (const Child& sibling : children) {
        ::close(sibling.port_wr);
        ::close(sibling.report_rd);
      }
      ::_exit(run_wire_client(p, c, port_pipe[0], report_pipe[1]));
    }
    ::close(port_pipe[0]);
    ::close(report_pipe[1]);
    children.push_back({pid, port_pipe[1], report_pipe[0]});
  }

  Gate gate;
  std::optional<World> world;
  if (port == 0) {
    world.emplace(p, true);
    gate.expect(world->server->ok(), "cannot start the server");
    port = world->server->port();
  }
  net::Client observer;
  std::optional<ServiceStats> before;
  if (observer.connect_retry("127.0.0.1", port, 30.0)) {
    before = observer.stats();
  }
  gate.expect(before.has_value(), "cannot read stats from port " +
                                      std::to_string(port));

  const util::WallTimer wall;
  net::Bytes port_bytes;
  util::ByteWriter(port_bytes).u16(port);
  for (const Child& child : children) {
    (void)net::write_all(child.port_wr, port_bytes.data(), 2);
    ::close(child.port_wr);
  }
  // Reports fit in a pipe buffer, so no child blocks on an unread pipe.
  Phase phase{"wire", {}, 0.0};
  Tally& tally = phase.streams[service::kDefaultStreamName];
  std::size_t reported = 0;
  std::size_t probes_ok = 0;
  for (const Child& child : children) {
    ClientReport report;
    if (read_report(child.report_rd, &report)) {
      ++reported;
      probes_ok += report.probe_ok ? 1 : 0;
      merge(tally, report.tally);
    }
    ::close(child.report_rd);
  }
  phase.wall_seconds = wall.seconds();
  std::size_t exited_ok = 0;
  for (const Child& child : children) {
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) ++exited_ok;
  }

  // Retrain checks run on the system plane after their request returns:
  // poll until every accepted check has run and the queue is empty.
  Report r;
  r.stats = before.value_or(ServiceStats{});
  const std::uint64_t accepted = tally[idx(Op::kRetrain)].answered;
  for (int attempt = 0; before && attempt < 300; ++attempt) {
    const auto now = observer.stats();
    if (!now) break;
    r.stats = *now;
    if (now->totals().retrain_checks - before->totals().retrain_checks >=
            accepted &&
        now->queue_depth == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  print_ops(phase, r.stats);
  std::printf("%zu client processes, %zu exited 0; malformed probes ok "
              "%zu/%zu\n",
              clients, exited_ok, probes_ok, clients);

  gate.expect(exited_ok == clients && reported == clients,
              "a client process crashed or lost its connection");
  gate.expect(probes_ok == clients,
              "a malformed-frame probe was not answered kMalformedRequest "
              "on a still-usable connection");
  if (before) check_ledgers(gate, phase.streams, *before, r.stats);
  r.phases.push_back(std::move(phase));
  r.violations = gate.violations;
  if (world) world->server->stop();
  return r;
}

Report run_storm(const Preset& p) {
  World world(p, false);
  const std::size_t victims = p.streams - 1;
  const Inputs in = build_inputs(p, victims);
  std::vector<std::size_t> stream_of(victims);
  std::iota(stream_of.begin(), stream_of.end(), 1);  // victims s1, s2, ...
  const ServiceStats before = world.service.stats();
  Report r;
  r.phases.push_back(run_threads(world, in, p, stream_of, "baseline"));

  // The storm: a closed-loop request_retrain hammer on s0, tallied like
  // any client. Coalescing bounds how many checks run, and every check
  // that runs trains (threshold > 1), so s0's system plane stays busy.
  std::atomic<bool> storming{true};
  Tally storm_tally;
  std::thread storm([&] {
    util::Rng rng(p.seed + 9);
    OpTally& t = storm_tally[idx(Op::kRetrain)];
    while (storming.load(std::memory_order_acquire)) {
      const util::WallTimer timer;
      const bool accepted = world.service.request_retrain(
          world.names[0], in.probes[rng.uniform_index(kProbes)].xs);
      (void)record(t,
                   accepted ? ServeStatus::kOk : ServeStatus::kShedOverload,
                   timer.seconds());
    }
  });
  r.phases.push_back(run_threads(world, in, p, stream_of, "storm"));
  storming.store(false, std::memory_order_release);
  storm.join();
  world.service.wait_idle();
  merge(r.phases.back().streams[world.names[0]], storm_tally);
  r.stats = world.service.stats();

  bench::print_row("stream", "baseline_p99", "storm_p99", "answered", "shed");
  for (std::size_t v = 1; v < p.streams; ++v) {
    const OpTally& b = tally_of(r.phases[0].streams,
                                world.names[v])[idx(Op::kLabel)];
    const OpTally& s = tally_of(r.phases[1].streams,
                                world.names[v])[idx(Op::kLabel)];
    bench::print_row(world.names[v], pct_ms(b.latencies, 99),
                     pct_ms(s.latencies, 99),
                     static_cast<std::size_t>(b.answered + s.answered),
                     static_cast<std::size_t>(b.shed + s.shed));
  }
  const StreamStats& s0 = r.stats.streams.front();  // sorted: s0 first
  std::printf("storm: %llu probes submitted, s0 checks %llu, retrains %llu, "
              "coalesced %llu, model v%llu\n",
              static_cast<unsigned long long>(
                  storm_tally[idx(Op::kRetrain)].submitted),
              static_cast<unsigned long long>(s0.retrain_checks),
              static_cast<unsigned long long>(s0.retrains),
              static_cast<unsigned long long>(s0.retrains_coalesced),
              static_cast<unsigned long long>(s0.snapshot_version));

  Gate gate;
  StreamTallies all = r.phases[0].streams;
  for (const auto& [stream, tally] : r.phases[1].streams) {
    merge(all[stream], tally);
  }
  check_ledgers(gate, all, before, r.stats);
  check_storm(gate, r.phases[0], r.phases[1], r.stats);
  r.violations = gate.violations;
  return r;
}

Report run_sweep(const Preset& p) {
  Report r;
  Gate gate;
  // One row: a fresh world with one worker per client. With `retrain`,
  // client 0 requests a retrain after its second batch. Returns the
  // wait_idle time after the last answer: training the clients never
  // waited for.
  const auto row = [&](std::size_t clients, bool retrain, std::string name) {
    Preset q = p;
    q.workers = clients;
    World world(q, false);
    Inputs in = build_inputs(q, clients);
    if (retrain) {
      in.decks[0].insert(in.decks[0].begin() + 2, Txn{Op::kRetrain, 0, 0});
    }
    const ServiceStats before = world.service.stats();
    r.phases.push_back(run_threads(world, in, q,
                                   std::vector<std::size_t>(clients, 0),
                                   std::move(name)));
    const util::WallTimer tail;
    world.service.wait_idle();
    const double tail_s = tail.seconds();
    r.stats = world.service.stats();
    check_ledgers(gate, r.phases.back().streams, before, r.stats);
    return tail_s;
  };
  // qps counts query rows; max_req_ms is the slowest client-observed
  // label request.
  const auto label = [&r] { return merged(r.phases.back())[idx(Op::kLabel)]; };
  const auto qps = [&](const OpTally& t) {
    return static_cast<double>(t.answered * p.batch) /
           r.phases.back().wall_seconds;
  };
  const auto max_ms = [](const OpTally& t) {
    return t.latencies.empty()
               ? 0.0
               : *std::max_element(t.latencies.begin(), t.latencies.end()) *
                     1e3;
  };

  std::printf("(1) throughput: queries/sec vs client threads (history = "
              "%zu, %zu batches x %zu queries per client)\n",
              p.history, p.txns, p.batch);
  bench::print_row("clients", "wall_s", "qps", "max_req_ms");
  for (const std::size_t clients : p.clients) {
    (void)row(clients, false, "clients_" + std::to_string(clients));
    const OpTally t = label();
    bench::print_row(clients, r.phases.back().wall_seconds, qps(t),
                     max_ms(t));
  }

  std::printf("\n(2) retrain interference: same drive, system-plane retrain "
              "forced mid-stream (certainty threshold > 1)\n");
  bench::print_row("clients", "mode", "qps", "max_req_ms", "tail_s");
  const std::size_t clients = p.clients[std::min<std::size_t>(
      2, p.clients.size() - 1)];
  for (const bool retrain : {false, true}) {
    const char* mode = retrain ? "retrain" : "baseline";
    const double tail_s = row(clients, retrain, mode);
    const OpTally t = label();
    bench::print_row(clients, mode, qps(t), max_ms(t),
                     retrain ? tail_s : 0.0);
    if (retrain) {
      std::printf("    retrains completed: %llu (queries answered during "
                  "training: %llu of %llu)\n",
                  static_cast<unsigned long long>(r.stats.totals().retrains),
                  static_cast<unsigned long long>(t.answered * p.batch),
                  static_cast<unsigned long long>(t.submitted * p.batch));
    }
  }
  r.violations = gate.violations;
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: loadgen mix|wire|storm|sweep "
               "[--preset small|full|saturate] [--connect PORT] "
               "[--json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string scenario_name = argv[1];
  const std::map<std::string, Scenario> kScenarios = {
      {"mix", Scenario::kMix},
      {"wire", Scenario::kWire},
      {"storm", Scenario::kStorm},
      {"sweep", Scenario::kSweep}};
  const auto scenario = kScenarios.find(scenario_name);
  if (scenario == kScenarios.end()) return usage();
  std::string preset_name = "small";
  std::string json_path;
  int connect_port = 0;  // 0 => self-host
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    if (arg == "--preset") {
      preset_name = argv[++i];
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--connect" && scenario->second == Scenario::kWire) {
      connect_port = std::atoi(argv[++i]);
      if (connect_port <= 0 || connect_port > 65535) return usage();
    } else {
      return usage();
    }
  }
  const std::optional<Preset> preset =
      find_preset(scenario->second, preset_name);
  if (!preset) {
    std::fprintf(stderr, "loadgen: no preset '%s' for %s\n",
                 preset_name.c_str(), scenario_name.c_str());
    return 2;
  }

  bench::print_header(
      "loadgen " + scenario_name,
      "closed-loop load + ledger gate (preset: " + preset_name +
          (connect_port != 0 ? ", port " + std::to_string(connect_port)
                             : std::string()) +
          ", hw threads: " +
          std::to_string(std::thread::hardware_concurrency()) + ")");
  std::fflush(stdout);
  Report report;
  switch (scenario->second) {
    case Scenario::kMix: report = run_mix(*preset); break;
    case Scenario::kWire:
      report = run_wire(*preset, static_cast<std::uint16_t>(connect_port));
      break;
    case Scenario::kStorm: report = run_storm(*preset); break;
    case Scenario::kSweep: report = run_sweep(*preset); break;
  }
  const bool written =
      json_path.empty() ||
      write_json(json_path, scenario_name.c_str(), *preset, report);
  std::printf("gate: %s\n", report.violations == 0 ? "PASS" : "FAIL");
  return report.violations == 0 && written ? 0 : 1;
}
