// Cross-process closed-loop load generator for the wire serving front-end
// (ROADMAP open item 1: "multi-process serving front-end").
//
// Where bench/mixed_workload.cpp drives the DataService in-process with
// threads, this bench forks N *client processes*, each holding one TCP
// connection to a net::Server, and drives the same TPC-style closed-loop
// mix over the wire:
//   lookup_or_label — pipelined bursts of label frames (the wire analogue
//                     of the in-process future burst)
//   lookup          — PDF-matched dataset retrieval
//   rank            — foundation-model recommendation
//   request_retrain — the Fig. 16 drift probe (coalescing visible on the
//                     wire as accepted=false)
//   stats           — operator-plane reads, served inline
//
// The deck/skew machinery (exact-proportion shuffled decks, NURand hot-key
// skew, per-op p50/p99/p999 tallies) is shared with mixed_workload via
// bench_common.hpp, so the two drivers offer comparable mixes by
// construction. Every child rebuilds its workload deterministically from
// (preset, seed, client index): nothing but the port crosses the fork.
//
// Two modes:
//   self-host (default) — fork the clients FIRST (so no thread ever crosses
//     a fork), then build the demo world + net::Server in the parent and
//     release the clients with the ephemeral port.
//   --connect PORT      — drive an external server (examples/serve); the
//     admission ledger is read over the wire (stats deltas) in both modes.
//
// `--require-graceful` turns the run into a robustness gate: nonzero exit
// when any client crashed, a connection died, the per-client or wire-level
// admission ledger fails to reconcile, the malformed-frame probe killed a
// connection, or 100% of user-plane traffic was shed. `--json PATH` writes
// the machine-readable BENCH_net_*.json report CI archives.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
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
#include "util/timer.hpp"

namespace {

using namespace fairdms;

constexpr std::uint64_t kSeed = 6161;
constexpr std::size_t kQueryPools = 16;
constexpr std::size_t kNurandA = 7;
constexpr std::size_t kRetrainProbes = 4;

enum class Op : std::size_t {
  kLabel = 0,
  kLookup,
  kRecommend,
  kRetrain,
  kStats,
  kCount,
};
constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

const char* op_name(std::size_t op) {
  static const char* kNames[kOpCount] = {"lookup_or_label", "lookup", "rank",
                                         "request_retrain", "stats"};
  return kNames[op];
}

struct Preset {
  const char* name;
  std::size_t history;          ///< self-host world size
  std::size_t embed_epochs;
  std::size_t clients;          ///< forked client processes
  std::size_t txns_per_client;
  std::size_t batch;            ///< rows per query tensor
  std::size_t workers;          ///< self-host service workers
  std::size_t max_pending;      ///< self-host admission bound
  std::size_t burst;            ///< pipelined label frames per label txn
  std::size_t weights[kOpCount];  ///< percent: label/lookup/rank/retrain/stats
};

Preset small_preset() {
  return {"small", 256, 2, 4, 40, 8, 4, 64, 4, {50, 20, 15, 5, 10}};
}
Preset full_preset() {
  return {"full", 512, 2, 6, 120, 8, 4, 128, 8, {50, 20, 15, 5, 10}};
}

using bench::OpTally;
using bench::pct_ms;

/// Everything a child sends back through its result pipe.
struct ClientResult {
  OpTally ops[kOpCount];
  bool probe_ok = false;  ///< malformed probe answered + connection survived
  bool transport_ok = true;
};

net::Bytes serialize_result(const ClientResult& r) {
  net::WireWriter w;
  w.u8(r.probe_ok ? 1 : 0);
  w.u8(r.transport_ok ? 1 : 0);
  for (const auto& t : r.ops) {
    w.u64(t.submitted);
    w.u64(t.answered);
    w.u64(t.shed);
    w.u32(static_cast<std::uint32_t>(t.latencies.size()));
    for (const double s : t.latencies) w.f64(s);
  }
  return w.take();
}

bool deserialize_result(const net::Bytes& bytes, ClientResult* r) {
  net::WireReader reader(bytes);
  std::uint8_t probe = 0;
  std::uint8_t transport = 0;
  if (!reader.u8(&probe) || !reader.u8(&transport)) return false;
  r->probe_ok = probe != 0;
  r->transport_ok = transport != 0;
  for (auto& t : r->ops) {
    std::uint32_t n = 0;
    if (!reader.u64(&t.submitted) || !reader.u64(&t.answered) ||
        !reader.u64(&t.shed) || !reader.u32(&n)) {
      return false;
    }
    t.latencies.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!reader.f64(&t.latencies[i])) return false;
    }
  }
  return reader.done();
}

/// The child's whole life: rebuild the deterministic workload, connect,
/// drive the deck closed-loop, probe the malformed path, ship the tallies
/// back. Returns the process exit code.
int run_child(const Preset& preset, std::size_t index, int port_fd,
              int result_fd) {
  // Deterministic from (preset, kSeed, index): the parent never ships data.
  const auto timeline = bench::standard_timeline(12, 7);
  std::vector<nn::Batchset> pools;
  pools.reserve(kQueryPools);
  for (std::size_t i = 0; i < kQueryPools; ++i) {
    pools.push_back(
        timeline.dataset_at(2 + i % 4, preset.batch, kSeed + 10 + i));
  }
  std::vector<nn::Batchset> probes;
  probes.reserve(kRetrainProbes);
  for (std::size_t i = 0; i < kRetrainProbes; ++i) {
    probes.push_back(timeline.dataset_at(8 + i % 3, 24, kSeed + 50 + i));
  }
  util::Rng rng(kSeed);
  const std::size_t nurand_c = rng.uniform_index(kQueryPools);
  util::Rng client_rng = rng.fork(2000 + index);
  const std::vector<std::size_t> deck =
      bench::build_deck(client_rng, preset.txns_per_client, preset.weights,
                        static_cast<std::size_t>(Op::kLabel));

  // The parent writes the port only once the server is accepting: reading
  // it doubles as the start barrier.
  std::uint8_t port_bytes[2];
  if (!net::read_exact(port_fd, port_bytes, 2)) {
    std::perror("net_workload client: port pipe read");
    return 3;
  }
  const auto port = static_cast<std::uint16_t>(
      port_bytes[0] | (static_cast<std::uint16_t>(port_bytes[1]) << 8));

  net::Client client;
  if (!client.connect_retry("127.0.0.1", port, 30.0)) return 4;

  ClientResult result;
  for (const std::size_t op_index : deck) {
    OpTally& tally = result.ops[op_index];
    const std::size_t pool =
        bench::nurand(client_rng, kNurandA, kQueryPools, nurand_c);
    util::WallTimer timer;
    switch (static_cast<Op>(op_index)) {
      case Op::kLabel: {
        // Pipelined burst: `burst` frames on the wire before the first
        // read, then drain. Latency is burst-start to each response, and
        // responses may return in any order (correlation ids match them).
        std::vector<std::uint64_t> cids;
        cids.reserve(preset.burst);
        for (std::size_t b = 0; b < preset.burst; ++b) {
          const std::uint64_t cid = client.send_label(
              service::LabelRequest{pools[pool].xs, 1e9, nullptr});
          if (cid == 0) {
            result.transport_ok = false;
            break;
          }
          cids.push_back(cid);
        }
        for (std::size_t b = 0; b < cids.size(); ++b) {
          const auto reply = client.recv_reply();
          if (!reply) {
            result.transport_ok = false;
            break;
          }
          ++tally.submitted;
          if (reply->header.status == service::ServeStatus::kOk) {
            ++tally.answered;
            tally.latencies.push_back(timer.seconds());
          } else {
            ++tally.shed;
          }
        }
        break;
      }
      case Op::kLookup: {
        const auto response = client.lookup(
            service::LookupRequest{pools[pool].xs, kSeed + pool});
        ++tally.submitted;
        if (!response) {
          result.transport_ok = false;
        } else if (response->status == service::ServeStatus::kOk) {
          ++tally.answered;
          tally.latencies.push_back(timer.seconds());
        } else {
          ++tally.shed;
        }
        break;
      }
      case Op::kRecommend: {
        const auto response = client.recommend(
            service::RecommendRequest{"braggnn", pools[pool].xs});
        ++tally.submitted;
        if (!response) {
          result.transport_ok = false;
        } else if (response->status == service::ServeStatus::kOk) {
          ++tally.answered;
          tally.latencies.push_back(timer.seconds());
        } else {
          ++tally.shed;
        }
        break;
      }
      case Op::kRetrain: {
        // answered = the check was accepted; shed = coalesced into an
        // in-flight check (same semantics as the in-process driver).
        const auto accepted = client.request_retrain(
            probes[client_rng.uniform_index(kRetrainProbes)].xs);
        ++tally.submitted;
        if (!accepted) {
          result.transport_ok = false;
        } else if (*accepted) {
          ++tally.answered;
          tally.latencies.push_back(timer.seconds());
        } else {
          ++tally.shed;
        }
        break;
      }
      case Op::kStats: {
        const auto stats = client.stats();
        ++tally.submitted;
        if (!stats) {
          result.transport_ok = false;
        } else {
          ++tally.answered;
          tally.latencies.push_back(timer.seconds());
        }
        break;
      }
      case Op::kCount:
        break;
    }
    if (!result.transport_ok) break;
  }

  // Malformed-frame probe: a valid envelope around garbage bytes must be
  // answered kMalformedRequest and the connection must stay usable — the
  // cross-process half of the hardening suite in tests/test_net.cpp.
  if (result.transport_ok) {
    const net::Bytes garbage = {0xde, 0xad, 0xbe, 0xef};
    if (client.send_raw(net::encode_frame(net::Op::kLabel,
                                          service::ServeStatus::kOk,
                                          /*correlation_id=*/987654321,
                                          garbage))) {
      const auto reply = client.recv_reply();
      result.probe_ok =
          reply.has_value() &&
          reply->header.status == service::ServeStatus::kMalformedRequest &&
          reply->header.correlation_id == 987654321 &&
          client.stats().has_value();
    }
  }

  const net::Bytes blob = serialize_result(result);
  net::WireWriter len;
  len.u32(static_cast<std::uint32_t>(blob.size()));
  if (!net::write_all(result_fd, len.bytes().data(), len.bytes().size()) ||
      !net::write_all(result_fd, blob.data(), blob.size())) {
    return 5;
  }
  return result.transport_ok ? 0 : 6;
}

/// Service-wide counter deltas over the run (ServiceStats::totals()).
struct StatsDelta {
  service::ServiceStats baseline;
  service::ServiceStats final;
  [[nodiscard]] std::uint64_t d(std::uint64_t service::StreamStats::*f) const {
    return final.totals().*f - baseline.totals().*f;
  }
};

void write_json(const char* path, const Preset& preset, bool external,
                double wall_seconds, const ClientResult& merged,
                const StatsDelta& wire) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "net_workload: cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::uint64_t txns = 0;
  for (const auto& op : merged.ops) txns += op.submitted;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"net_workload\",\n");
  std::fprintf(f, "  \"preset\": \"%s\",\n", preset.name);
  std::fprintf(f, "  \"mode\": \"%s\",\n",
               external ? "connect" : "self_host");
  std::fprintf(f, "  \"hw_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"client_processes\": %zu,\n", preset.clients);
  std::fprintf(f, "  \"burst\": %zu,\n", preset.burst);
  std::fprintf(f, "  \"wall_seconds\": %.6f,\n", wall_seconds);
  std::fprintf(f, "  \"txn_results\": %llu,\n",
               static_cast<unsigned long long>(txns));
  std::fprintf(f, "  \"ops\": {\n");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const OpTally& t = merged.ops[op];
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
  std::fprintf(
      f,
      "  \"wire_stats_delta\": {\"label_requests\": %llu, "
      "\"label_answered\": %llu, \"label_shed\": %llu, "
      "\"lookup_requests\": %llu, \"recommend_requests\": %llu, "
      "\"retrain_checks\": %llu, \"retrains\": %llu, "
      "\"retrains_coalesced\": %llu},\n",
      static_cast<unsigned long long>(wire.d(&service::StreamStats::label_requests)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::label_answered)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::label_shed)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::lookup_requests)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::recommend_requests)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::retrain_checks)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::retrains)),
      static_cast<unsigned long long>(wire.d(&service::StreamStats::retrains_coalesced)));
  std::fprintf(f, "  \"queue_depth_final\": %llu\n",
               static_cast<unsigned long long>(wire.final.queue_depth));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("json report written to %s\n", path);
}

int check_graceful(const ClientResult& merged, bool children_ok,
                   std::size_t probes_ok, std::size_t clients,
                   const StatsDelta& wire) {
  int violations = 0;
  const auto fail = [&violations](const char* what) {
    std::fprintf(stderr, "GRACEFUL-DEGRADATION VIOLATION: %s\n", what);
    ++violations;
  };
  if (!children_ok) fail("a client process crashed or lost its connection");
  if (probes_ok != clients) {
    fail("a malformed-frame probe was not answered kMalformedRequest on a "
         "still-usable connection");
  }
  // Client side: every submitted request got exactly one explicit outcome.
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const OpTally& t = merged.ops[op];
    if (t.submitted != t.answered + t.shed) {
      fail("client-side submitted != answered + shed");
      break;
    }
  }
  const std::uint64_t user_answered =
      merged.ops[0].answered + merged.ops[1].answered +
      merged.ops[2].answered;
  if (user_answered == 0) fail("100% of user-plane traffic was shed");
  // Wire ledger: the service's counters, read over the stats endpoint, must
  // reconcile exactly with what the client processes observed. The
  // malformed probes never reach the service, so they must NOT appear.
  using S = service::StreamStats;
  if (wire.d(&S::label_requests) != merged.ops[0].submitted ||
      wire.d(&S::label_answered) != merged.ops[0].answered ||
      wire.d(&S::label_shed) != merged.ops[0].shed) {
    fail("wire label ledger disagrees with client processes");
  }
  if (wire.d(&S::lookup_requests) != merged.ops[1].submitted ||
      wire.d(&S::lookup_answered) != merged.ops[1].answered ||
      wire.d(&S::lookup_shed) != merged.ops[1].shed) {
    fail("wire lookup ledger disagrees with client processes");
  }
  if (wire.d(&S::recommend_requests) != merged.ops[2].submitted ||
      wire.d(&S::recommend_answered) != merged.ops[2].answered ||
      wire.d(&S::recommend_shed) != merged.ops[2].shed) {
    fail("wire recommend ledger disagrees with client processes");
  }
  if (wire.final.queue_depth != 0) {
    fail("pending queue did not drain after the run");
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  // Coordination pipes can lose their peer if a child crashes; surface that
  // as a failed write, not a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  Preset preset = small_preset();
  const char* json_path = nullptr;
  bool require_graceful = false;
  int connect_port = 0;  // 0 => self-host
  for (int i = 1; i < argc; ++i) {
    const auto pick = [&preset](const char* name) {
      if (std::strcmp(name, "small") == 0) preset = small_preset();
      else if (std::strcmp(name, "full") == 0) preset = full_preset();
      else {
        std::fprintf(stderr, "unknown preset: %s\n", name);
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc) {
      pick(argv[++i]);
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--require-graceful") == 0) {
      require_graceful = true;
    } else if (argv[i][0] != '-') {
      pick(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: net_workload [--preset small|full] "
                   "[--connect PORT] [--json PATH] [--require-graceful]\n");
      return 2;
    }
  }
  const bool external = connect_port != 0;

  bench::print_header(
      "Cross-process wire-serving workload",
      std::string("closed-loop mix over TCP, forked client processes "
                  "(preset: ") +
          preset.name + ", mode: " + (external ? "connect" : "self-host") +
          ", hw threads: " +
          std::to_string(std::thread::hardware_concurrency()) + ")");
  std::printf(
      "mix: lookup_or_label %zu%% / lookup %zu%% / rank %zu%% / "
      "request_retrain %zu%% / stats %zu%% — %zu client processes x %zu "
      "txns, burst %zu\n",
      preset.weights[0], preset.weights[1], preset.weights[2],
      preset.weights[3], preset.weights[4], preset.clients,
      preset.txns_per_client, preset.burst);
  std::fflush(stdout);

  // Fork FIRST: no thread (and no used thread pool) may exist on either
  // side of a fork. The children block reading the port; the parent builds
  // the world afterwards.
  struct Child {
    pid_t pid = -1;
    int port_wr = -1;
    int result_rd = -1;
  };
  std::vector<Child> children(preset.clients);
  for (std::size_t c = 0; c < preset.clients; ++c) {
    int port_pipe[2];
    int result_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(result_pipe) != 0) {
      std::perror("pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      ::close(port_pipe[1]);
      ::close(result_pipe[0]);
      for (std::size_t p = 0; p < c; ++p) {
        ::close(children[p].port_wr);
        ::close(children[p].result_rd);
      }
      const int code = run_child(preset, c, port_pipe[0], result_pipe[1]);
      ::_exit(code);
    }
    ::close(port_pipe[0]);
    ::close(result_pipe[1]);
    children[c] = {pid, port_pipe[1], result_pipe[0]};
  }

  // --- the server side (self-host) or none (--connect) ----------------------
  std::optional<store::DocStore> db;
  std::optional<fairds::FairDS> ds;
  std::optional<fairms::ModelZoo> zoo;
  std::optional<fairms::ModelManager> manager;
  std::optional<service::DataService> service;
  std::optional<net::Server> server;
  std::uint16_t port = static_cast<std::uint16_t>(connect_port);
  if (!external) {
    const auto timeline = bench::standard_timeline(12, 7);
    const nn::Batchset history = timeline.dataset_at(2, preset.history, kSeed);
    db.emplace();
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = preset.embed_epochs;
    config.certainty_threshold = 0.8;
    config.seed = kSeed;
    config.store_shards = 4;
    ds.emplace(config, *db);
    ds->train_system(history.xs);
    ds->ingest(history.xs, history.ys, "history");
    zoo.emplace(*db);
    for (std::size_t m = 0; m < 4; ++m) {
      zoo->publish("braggnn", "seed_" + std::to_string(m),
                   ds->distribution(timeline.dataset_at(2 + m, 32, kSeed + m).xs),
                   std::vector<std::uint8_t>(4096, 0x42));
    }
    manager.emplace(*zoo, 1.0);
    service.emplace(service::DataServiceConfig{
        .workers = preset.workers, .max_pending = preset.max_pending});
    service->add_stream(service::kDefaultStreamName, *ds,
                        {.store_shards = 4}, &*manager);
    const std::size_t label_width = ds->snapshot()->label_width();
    net::ServerConfig server_config;
    server_config.fallback_labeler = [label_width](const nn::Tensor& xs) {
      return nn::Tensor({xs.dim(0), label_width});
    };
    server.emplace(*service, server_config);
    if (!server->ok()) {
      std::fprintf(stderr, "net_workload: cannot start server\n");
      return 1;
    }
    port = server->port();
  }

  // Baseline over the wire, then release the barrier.
  net::Client observer;
  if (!observer.connect_retry("127.0.0.1", port, 30.0)) {
    std::fprintf(stderr, "net_workload: cannot connect to port %u\n",
                 static_cast<unsigned>(port));
    return 1;
  }
  const auto baseline = observer.stats();
  if (!baseline) {
    std::fprintf(stderr, "net_workload: stats endpoint failed\n");
    return 1;
  }

  util::WallTimer wall;
  for (auto& child : children) {
    const std::uint8_t port_bytes[2] = {
        static_cast<std::uint8_t>(port & 0xff),
        static_cast<std::uint8_t>(port >> 8)};
    if (!net::write_all(child.port_wr, port_bytes, 2)) {
      std::fprintf(stderr, "net_workload: a client died before the start\n");
    }
    ::close(child.port_wr);
  }

  // Collect result blobs, then reap. The blobs fit comfortably in a pipe
  // buffer, so the children never block on us.
  std::vector<ClientResult> results(preset.clients);
  bool children_ok = true;
  for (std::size_t c = 0; c < preset.clients; ++c) {
    std::uint8_t len_bytes[4];
    net::Bytes blob;
    bool ok = net::read_exact(children[c].result_rd, len_bytes, 4);
    if (ok) {
      std::uint32_t len = 0;
      std::memcpy(&len, len_bytes, 4);
      blob.resize(len);
      ok = net::read_exact(children[c].result_rd, blob.data(), len) &&
           deserialize_result(blob, &results[c]);
    }
    ::close(children[c].result_rd);
    if (!ok) {
      children_ok = false;
      results[c].transport_ok = false;
    }
  }
  const double wall_seconds = wall.seconds();
  for (auto& child : children) {
    int status = 0;
    ::waitpid(child.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      children_ok = false;
      if (WIFEXITED(status)) {
        std::fprintf(stderr, "net_workload: client %d exited with code %d\n",
                     static_cast<int>(child.pid), WEXITSTATUS(status));
      } else if (WIFSIGNALED(status)) {
        std::fprintf(stderr, "net_workload: client %d killed by signal %d\n",
                     static_cast<int>(child.pid), WTERMSIG(status));
      }
    }
  }

  // Retrain checks run async on the system plane: poll the wire stats until
  // every accepted check has executed (bounded), then read the final ledger.
  ClientResult merged;
  std::size_t probes_ok = 0;
  for (const auto& r : results) {
    for (std::size_t op = 0; op < kOpCount; ++op) merged.ops[op].merge(r.ops[op]);
    if (r.probe_ok) ++probes_ok;
    if (!r.transport_ok) merged.transport_ok = false;
  }
  const std::uint64_t accepted_retrains = merged.ops[3].answered;
  service::ServiceStats final_stats = *baseline;
  for (int attempt = 0; attempt < 300; ++attempt) {
    const auto now = observer.stats();
    if (!now) break;
    final_stats = *now;
    if (final_stats.totals().retrain_checks -
                baseline->totals().retrain_checks >=
            accepted_retrains &&
        final_stats.queue_depth == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const StatsDelta wire{*baseline, final_stats};

  std::uint64_t txns = 0;
  for (const auto& op : merged.ops) txns += op.submitted;
  bench::print_row("op", "submitted", "answered", "shed", "p50_ms", "p99_ms",
                   "p999_ms");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const OpTally& t = merged.ops[op];
    bench::print_row(op_name(op), t.submitted, t.answered, t.shed,
                     pct_ms(t.latencies, 50), pct_ms(t.latencies, 99),
                     pct_ms(t.latencies, 99.9));
  }
  using S = service::StreamStats;
  std::printf(
      "wall %.3fs, %.0f results/s across %zu processes; wire ledger: "
      "label %llu lookup %llu recommend %llu; retrain checks %llu "
      "(%llu trained, %llu coalesced); malformed probes ok %zu/%zu\n",
      wall_seconds, static_cast<double>(txns) / wall_seconds, preset.clients,
      static_cast<unsigned long long>(wire.d(&S::label_requests)),
      static_cast<unsigned long long>(wire.d(&S::lookup_requests)),
      static_cast<unsigned long long>(wire.d(&S::recommend_requests)),
      static_cast<unsigned long long>(wire.d(&S::retrain_checks)),
      static_cast<unsigned long long>(wire.d(&S::retrains)),
      static_cast<unsigned long long>(wire.d(&S::retrains_coalesced)),
      probes_ok, preset.clients);

  if (json_path != nullptr) {
    write_json(json_path, preset, external, wall_seconds, merged, wire);
  }

  int violations = 0;
  if (require_graceful) {
    violations =
        check_graceful(merged, children_ok, probes_ok, preset.clients, wire);
    std::printf("graceful-degradation gate: %s\n",
                violations == 0 ? "PASS" : "FAIL");
  }

  if (server) {
    server->stop();
    service->wait_idle();
  }

  bench::print_footer(
      "the wire front-end preserves the service's degradation policy across "
      "process boundaries: sheds arrive as explicit statuses, malformed "
      "frames get answered without killing the connection, and the "
      "admission ledger read over the stats endpoint reconciles exactly "
      "with what N independent client processes observed");
  return violations == 0 ? 0 : 1;
}
