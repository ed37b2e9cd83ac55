// fairDMS benchmark driver: one workload per invocation.
//
//   perfbench --workload reuse_steady|drift_storm|model_update --seed N
//             --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//             [--tiny]
//
// Every run stands the world up (three times; setup_s is the median), then
// runs the workload's phases in order: open-loop serving phases, a
// closed-loop label saturation phase, and update_model cycles. It checks the
// outputs, prints provenance and detail lines, and ends with one JSON line
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The exit code is nonzero
// when any check fails or any operation failed. See perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "labeling/voigt_fit.hpp"
#include "load.hpp"
#include "net/client.hpp"
#include "trace.hpp"
#include "world.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kMaxValError = 0.05;   ///< update_model validation MSE bound
constexpr std::size_t kTraceSample = 48;
constexpr double kStageTolerance = 0.25;  ///< |stage sum / whole - 1|

std::vector<Spec> specs() {
  Spec reuse;
  reuse.name = "reuse_steady";
  reuse.engine = store::EngineKind::kMem;
  reuse.label_batch = 16;
  reuse.threshold = 0.4;
  reuse.label_scans = {1, 2, 3, 4};
  reuse.ingest_scans = {4, 5, 6, 7};
  reuse.serve_share = 0.62;
  reuse.label_per_s = 400;
  reuse.recommend_per_s = 80;
  reuse.saturate_share = 0.14;
  reuse.update_share = 0.24;
  reuse.ingest_per_s = 8;

  Spec drift;
  drift.name = "drift_storm";
  drift.engine = store::EngineKind::kLog;
  drift.label_batch = 4;
  drift.threshold = 0.2;
  drift.label_scans = {9, 10, 11};
  drift.ingest_scans = {5, 6, 7};
  drift.serve_share = 0.70;
  drift.label_per_s = 100;
  drift.recommend_per_s = 60;
  drift.saturate_share = 0.12;
  drift.update_share = 0.18;
  drift.ingest_per_s = 12;

  Spec update;
  update.name = "model_update";
  update.engine = store::EngineKind::kMem;
  update.label_batch = 16;
  update.threshold = 0.4;
  update.label_scans = {4, 5, 6, 7};
  update.ingest_scans = {4, 5, 6, 7};
  update.serve_share = 0.36;
  update.label_per_s = 200;
  update.recommend_per_s = 100;
  update.saturate_share = 0.08;
  update.update_share = 0.56;
  update.ingest_per_s = 8;
  return {reuse, drift, update};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 35.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) a->workload = argv[++i];
    else if (k == "--seed" && has_value) a->seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds" && has_value) a->seconds = std::atof(argv[++i]);
    else if (k == "--trace" && has_value) a->trace = std::string(argv[++i]) == "1";
    else if (k == "--workdir" && has_value) a->workdir = argv[++i];
    else if (k == "--trace-out" && has_value) a->trace_out = argv[++i];
    else if (k == "--tiny") a->tiny = true;
    else return false;
  }
  return !a->workload.empty() && !a->workdir.empty() && a->seconds > 0.0;
}

std::string cpu_field(const char* key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

std::string provenance(const Args& args, const Spec& spec, const Scale& scale) {
  const std::string flags = cpu_field("flags");
  std::string simd;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
    if ((" " + flags + " ").find(std::string(" ") + f + " ") != std::string::npos) {
      simd += simd.empty() ? f : std::string(",") + f;
    }
  }
  return Json()
      .str("workload", spec.name)
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .num("nproc", std::thread::hardware_concurrency())
      .str("cpu", cpu_field("model name"))
      .str("cpu_flags", simd)
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("engine", store::to_string(spec.engine))
      .num("label_batch", static_cast<double>(spec.label_batch))
      .num("threshold", spec.threshold)
      .num("rounds", static_cast<double>(kRounds))
      .num("serve_seconds", spec.serve_share * args.seconds)
      .num("label_per_s", spec.label_per_s)
      .num("recommend_per_s", spec.recommend_per_s)
      .num("saturate_seconds", spec.saturate_share * args.seconds)
      .num("update_seconds", spec.update_share * args.seconds)
      .num("ingest_per_s", spec.ingest_per_s)
      .num("retrains", static_cast<double>(kRounds))
      .num("history_rows", static_cast<double>(scale.history_per_scan * 4))
      .num("fleet_models", static_cast<double>(scale.fleet_models))
      .num("epochs_per_cycle", static_cast<double>(scale.epochs))
      .boolean("tiny", args.tiny)
      .done();
}

double dir_bytes(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += static_cast<double>(e.file_size(ec));
  }
  return total;
}

double median(const std::vector<double>& v) {
  Samples s;
  for (const double x : v) s.ok(x);
  return s.pct(50);
}

/// A run's figure for a metric measured once per round: the quartile of the
/// round values on the better side (the 25th percentile of times, the 75th
/// of rates). On a shared host, a stall that slows up to seven of the ten
/// rounds does not move it; a change in the program that slows every round
/// moves it in full.
double better_quartile(const std::vector<double>& per_round, bool higher_is_better) {
  Samples s;
  for (const double x : per_round) s.ok(x);
  return s.pct(higher_is_better ? 75 : 25);
}

/// Checks accumulate here; any failure makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

int run(const Args& args) {
  const auto all = specs();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Spec& s) {
    return s.name == args.workload;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Spec& spec = *it;
  Scale scale;
  if (args.tiny) {
    scale = {.history_per_scan = 64, .fleet_models = 100, .foundations = 2,
             .update_samples = 64, .epochs = 3, .setup_reps = 2};
  }
  std::printf("provenance %s\n", provenance(args, spec, scale).c_str());
  std::fflush(stdout);

  // All inputs exist before the first timer starts.
  const Inputs inputs = make_inputs(spec, scale, args.seed);
  Trace trace(args.trace);
  Checks checks;

  std::vector<double> setup_times;
  std::unique_ptr<World> world;
  for (std::size_t rep = 0; rep < scale.setup_reps; ++rep) {
    world.reset();
    const std::string dir = args.workdir + "/setup" + std::to_string(rep);
    std::filesystem::create_directories(dir);
    const auto start = Clock::now();
    world = build_world(spec, scale, inputs, dir);
    setup_times.push_back(since(start));
    if (!world) return 1;
  }
  World& w = *world;

  net::Client observer;
  if (!observer.connect("127.0.0.1", w.server->port())) {
    std::fprintf(stderr, "perfbench: cannot connect to the server\n");
    return 1;
  }
  const auto baseline = observer.stats();
  if (!baseline) return 1;
  const std::uint64_t version0 = w.ds->snapshot()->version();
  const std::size_t retrains0 = w.ds->retrain_count();
  const std::size_t stored0 = w.ds->stored_count();
  const double history_bytes =
      static_cast<double>(inputs.history.xs.numel() + inputs.history.ys.numel()) * 4.0;

  // --- background writes + rounds of serve, saturate, update -------------
  util::Rng plan_rng(args.seed ^ 0x5eedf00dull);
  const double rounds = static_cast<double>(kRounds);
  std::vector<WireTraffic> wire;
  IngestResult ingest;
  Samples retrain_s;
  SaturateResult saturate;
  std::vector<UpdateCycle> cycles;
  std::vector<std::size_t> round_cycles;  ///< cycles.size() after each round
  std::vector<double> round_samples_per_s;
  const auto run_epoch = Clock::now() + std::chrono::milliseconds(20);
  std::thread ingester([&] {
    ingest = run_ingest(w, inputs, spec.ingest_per_s, args.seconds, run_epoch);
  });
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double seconds = spec.serve_share * args.seconds / rounds;
    auto plan = plan_requests(spec, seconds, inputs.label_pools.size(),
                              inputs.nurand_c, plan_rng);
    WireContext ctx{&w, &inputs, spec.threshold};
    wire.push_back(run_wire(ctx, std::move(plan),
                            Clock::now() + std::chrono::milliseconds(5)));

    // One forced retrain per round, beside the background ingest stream
    // only; the phase lasts until the retrained snapshot is published.
    run_retrain(w, inputs, &retrain_s);

    const SaturateResult slice = run_saturate(
        w, inputs, spec.threshold, spec.saturate_share * args.seconds / rounds);
    saturate.sent += slice.sent;
    saturate.answered += slice.answered;
    saturate.failed += slice.failed;
    saturate.block_per_s.insert(saturate.block_per_s.end(),
                                 slice.block_per_s.begin(),
                                 slice.block_per_s.end());
    round_samples_per_s.push_back(median(slice.block_per_s));

    const auto update_epoch = Clock::now();
    const double budget = spec.update_share * args.seconds / rounds;
    do {
      const std::size_t scan = cycles.size() % inputs.update_train.size();
      UpdateCycle cycle = update_from_foundations(w, inputs.update_train[scan],
                                                  inputs.update_val[scan]);
      checks.expect(cycle.published, "update cycle published no fetchable model");
      checks.expect(cycle.report.final_val_error < kMaxValError,
                    "update cycle validation error above bound");
      checks.expect(cycle.report.epochs == scale.epochs,
                    "update cycle ran a different epoch count");
      cycles.push_back(std::move(cycle));
    } while (since(update_epoch) < budget);
    round_cycles.push_back(cycles.size());
  }
  ingester.join();

  w.service->wait_idle();
  const auto final_stats = observer.stats();
  if (!final_stats) return 1;

  // --- tally client-observed outcomes -----------------------------------------
  Samples label_lat, recommend_lat, lateness, exec_ms, wait_ms;
  std::size_t label_sent = 0, label_ok = 0, recommend_sent = 0, recommend_ok = 0;
  std::size_t wire_failed = 0;
  std::vector<double> round_label_p50_ms, round_recommend_p50_ms, round_update_p50_s;
  for (std::size_t round = 0; round < wire.size(); ++round) {
    const WireTraffic& t = wire[round];
    Samples round_label, round_recommend;
    checks.expect(t.transport_ok, "transport failure on the load connection");
    // Outcome times count from the round's own epoch; spans count from the
    // trace's.
    const double shift = trace.at(t.epoch);
    for (std::size_t i = 0; i < t.plan.size(); ++i) {
      const Request& r = t.plan[i];
      const Outcome& o = t.outcomes[i];
      const bool label = r.op == WireOp::kLabel;
      Samples& lat = label ? label_lat : recommend_lat;
      if (o.sent >= 0.0) {
        (label ? label_sent : recommend_sent) += 1;
        lateness.ok(o.sent - r.due);
      }
      if (o.ok) {
        lat.ok(o.decoded - r.due);
        (label ? round_label : round_recommend).ok(o.decoded - r.due);
        (label ? label_ok : recommend_ok) += 1;
        if (label) {
          exec_ms.ok(o.exec * 1e3);
          wait_ms.ok((o.received - o.sent - o.exec) * 1e3);
        }
        if (trace.enabled()) {
          // Op, round and index within the round: unique over the run and
          // disjoint from the decomposition's ids (op bits 0).
          const std::uint64_t rid =
              (label ? 1ull : 2ull) << 48 | std::uint64_t{round} << 32 | i;
          const auto root = trace.add(label ? "client.label" : "client.recommend",
                                      shift + r.due, shift + o.decoded, -1, rid);
          trace.add("client.schedule_lag", shift + r.due, shift + o.sent, root, rid);
          trace.add("client.encode_send", shift + o.sent, shift + o.sent_end, root, rid);
          trace.add("server_and_transport", shift + o.sent_end, shift + o.received,
                    root, rid);
          trace.add("client.recv_decode", shift + o.received, shift + o.decoded,
                    root, rid);
        }
      } else {
        lat.fail();
        (label ? round_label : round_recommend).fail();
        ++wire_failed;
      }
    }
    round_label_p50_ms.push_back(round_label.pct(50) * 1e3);
    round_recommend_p50_ms.push_back(round_recommend.pct(50) * 1e3);
    Samples round_update;
    for (std::size_t c = round == 0 ? 0 : round_cycles[round - 1];
         c < round_cycles[round]; ++c) {
      round_update.ok(cycles[c].seconds);
    }
    round_update_p50_s.push_back(round_update.pct(50));
  }
  const double max_lateness_ms =
      std::max(lateness.pct(100), ingest.max_lateness) * 1e3;

  // --- correctness checks -----------------------------------------------------
  const auto find_stream = [](const service::ServiceStats& s) {
    for (const auto& st : s.streams) {
      if (st.stream == kStream) return st;
    }
    return service::StreamStats{};
  };
  const service::StreamStats s0 = find_stream(*baseline);
  const service::StreamStats s1 = find_stream(*final_stats);
  const std::uint64_t label_requests = s1.label_requests - s0.label_requests;
  const std::uint64_t label_answered = s1.label_answered - s0.label_answered;
  const std::uint64_t label_shed = s1.label_shed - s0.label_shed;
  checks.expect(label_requests == label_answered + label_shed,
                "label ledger: requests != answered + shed");
  checks.expect(label_requests == label_sent + saturate.sent,
                "label ledger disagrees with requests the clients sent");
  checks.expect(label_answered == label_ok + saturate.answered,
                "label ledger disagrees with replies the clients decoded");
  const std::uint64_t rec_requests = s1.recommend_requests - s0.recommend_requests;
  const std::uint64_t rec_shed = s1.recommend_shed - s0.recommend_shed;
  checks.expect(rec_requests == s1.recommend_answered - s0.recommend_answered + rec_shed,
                "recommend ledger: requests != answered + shed");
  checks.expect(rec_requests == recommend_sent,
                "recommend ledger disagrees with requests the clients sent");
  checks.expect(s1.recommend_answered - s0.recommend_answered == recommend_ok,
                "recommend ledger disagrees with replies the clients decoded");
  checks.expect(final_stats->unknown_stream_requests ==
                    baseline->unknown_stream_requests,
                "requests reached an unknown stream");

  std::size_t parity_checked = 0;
  const auto labeler = [](const tensor::Tensor& xs) {
    return labeling::label_patches(xs);
  };
  for (const auto& t : wire) {
    for (const auto& s : t.sampled) {
      if (!s.snapshot) continue;
      const tensor::Tensor& xs = inputs.label_pools[t.plan[s.request].pool];
      fairds::ReuseStats reuse;
      const nn::Batchset expect =
          s.snapshot->lookup_or_label(xs, spec.threshold, labeler, &reuse);
      const auto& got = s.response.batch;
      const bool same =
          got.xs.numel() == expect.xs.numel() && got.ys.numel() == expect.ys.numel() &&
          std::equal(got.xs.data(), got.xs.data() + got.xs.numel(), expect.xs.data()) &&
          std::equal(got.ys.data(), got.ys.data() + got.ys.numel(), expect.ys.data()) &&
          s.response.reuse.reused == reuse.reused &&
          s.response.reuse.computed == reuse.computed;
      checks.expect(same, "served label rows differ from in-process lookup_or_label");
      ++parity_checked;
    }
  }
  checks.expect(parity_checked > 0 || label_ok == 0,
                "no label reply could be checked against its snapshot");

  checks.expect(w.ds->stored_count() == stored0 + ingest.rows,
                "stored_count != history + ingested rows");
  const std::size_t retrains_done = w.ds->retrain_count() - retrains0;
  checks.expect(retrains_done == kRounds && retrain_s.failed == 0,
                "forced retrains did not each run exactly once");
  const std::uint64_t versions = w.ds->snapshot()->version() - version0;
  checks.expect(versions == ingest.latency.count() + retrains_done,
                "snapshot versions != ingest calls + retrains");
  checks.expect(saturate.answered > 0, "saturation phase answered nothing");

  const std::size_t attempted = label_sent + recommend_sent + saturate.sent +
                                ingest.latency.count() + retrain_s.count() +
                                cycles.size();
  const std::size_t failed = wire_failed + saturate.failed + retrain_s.failed;

  // --- end-to-end numbers -------------------------------------------------
  Samples update_s, label_s, recommend_s, train_s, per_epoch, epochs;
  for (const auto& c : cycles) {
    update_s.ok(c.seconds);
    label_s.ok(c.report.label_seconds);
    recommend_s.ok(c.report.recommend_seconds);
    train_s.ok(c.report.train_seconds);
    per_epoch.ok(c.report.train_seconds / static_cast<double>(std::max<std::size_t>(1, c.report.epochs)));
    epochs.ok(static_cast<double>(c.report.epochs));
  }
  struct Metric {
    const char* name;
    double value;
    const char* unit;
  };
  // The p99s swing by up to 2x between runs on a shared 4-vCPU host, wider
  // than any allowed regression bound, so they are reported in the detail
  // line rather than gated. So are retrain_s and update_p50_s (`unresolved`):
  // in some runs, from a random round on, every training (the retrain's
  // embedder fit and the update's fine-tune) runs about 1.7x slower, so
  // their run values fall into two modes.
  // Ingest runs beside every round; its calls split into kRounds
  // consecutive chunks.
  std::vector<double> round_ingest_p50_ms;
  const std::size_t ingests = ingest.latency.count();
  for (std::size_t k = 0; k < kRounds; ++k) {
    Samples chunk;
    chunk.values.assign(ingest.latency.values.begin() + k * ingests / kRounds,
                        ingest.latency.values.begin() + (k + 1) * ingests / kRounds);
    round_ingest_p50_ms.push_back(chunk.pct(50) * 1e3);
  }
  const std::vector<Metric> end_to_end = {
      {"label_p50_ms", better_quartile(round_label_p50_ms, false), "ms"},
      {"label_samples_per_s", better_quartile(round_samples_per_s, true), "1/s"},
      {"recommend_p50_ms", better_quartile(round_recommend_p50_ms, false), "ms"},
      {"ingest_p50_ms", better_quartile(round_ingest_p50_ms, false), "ms"},
      {"setup_s", median(setup_times), "s"},
  };
  Json unresolved;
  unresolved.num("retrain_s", better_quartile(retrain_s.values, false))
      .num("update_p50_s", better_quartile(round_update_p50_s, false));
  // The same figures over the whole run, for comparison.
  Json pooled;
  pooled.num("label_p50_ms", label_lat.pct(50) * 1e3)
      .num("label_samples_per_s", median(saturate.block_per_s))
      .num("recommend_p50_ms", recommend_lat.pct(50) * 1e3)
      .num("ingest_p50_ms", ingest.latency.pct(50) * 1e3)
      .num("retrain_s", retrain_s.pct(50))
      .num("update_p50_s", update_s.pct(50));
  Json counts;
  counts.num("label", static_cast<double>(label_lat.count()))
      .num("recommend", static_cast<double>(recommend_lat.count()))
      .num("ingest", static_cast<double>(ingest.latency.count()))
      .num("retrain", static_cast<double>(retrain_s.count()))
      .num("update_cycles", static_cast<double>(cycles.size()))
      .num("setup_reps", static_cast<double>(setup_times.size()))
      .num("saturate_requests", static_cast<double>(saturate.answered))
      .num("saturate_blocks", static_cast<double>(saturate.block_per_s.size()));
  Json tails;
  tails.num("label_p99_ms", label_lat.pct(99) * 1e3)
      .num("recommend_p99_ms", recommend_lat.pct(99) * 1e3)
      .num("ingest_p99_ms", ingest.latency.pct(99) * 1e3)
      .boolean("each_p99_has_10_beyond", label_lat.tail_ok(99) &&
                                             recommend_lat.tail_ok(99) &&
                                             ingest.latency.tail_ok(99));
  Json e2e;
  for (const auto& m : end_to_end) e2e.num(m.name, m.value);
  std::printf("%s %s\n", args.trace ? "traced_end_to_end" : "end_to_end",
              Json()
                  .raw("values", e2e.done())
                  .raw("samples", counts.done())
                  .raw("unresolved", unresolved.done())
                  .raw("pooled", pooled.done())
                  .raw("tails", tails.done())
                  .raw("rounds", Json()
                                     .list("label_p50_ms", round_label_p50_ms)
                                     .list("label_samples_per_s", round_samples_per_s)
                                     .list("recommend_p50_ms", round_recommend_p50_ms)
                                     .list("ingest_p50_ms", round_ingest_p50_ms)
                                     .list("retrain_s", retrain_s.values)
                                     .list("update_p50_s", round_update_p50_s)
                                     .done())
                  .num("lateness_p99_ms", lateness.pct(99) * 1e3)
                  .num("lateness_max_ms", max_lateness_ms)
                  .num("ingest_lateness_max_ms", ingest.max_lateness * 1e3)
                  .num("parity_checked", static_cast<double>(parity_checked))
                  .num("failed_frac", attempted == 0 ? 0.0
                                          : static_cast<double>(failed) /
                                                static_cast<double>(attempted))
                  .done()
                  .c_str());

  std::vector<Metric> metrics = end_to_end;
  if (args.trace) {
    Decomposition d = decompose(w, inputs, spec.threshold, kTraceSample, trace);
    const double stage_ratio = median(d.stage_ratio);
    checks.expect(d.codec_ok, "wire codec round trip failed");
    checks.expect(std::abs(stage_ratio - 1.0) <= kStageTolerance,
                  "stage sum outside tolerance of whole lookup_or_label");
    const double n = static_cast<double>(d.requests);
    std::printf("stages %s\n",
                Json()
                    .str("dominant", d.dominant())
                    .num("whole_ms", d.whole_s / n * 1e3)
                    .num("embed_ms", d.embed_s / n * 1e3)
                    .num("assign_ms", d.assign_s / n * 1e3)
                    .num("nearest_ms", d.nearest_s / n * 1e3)
                    .num("find_many_ms", d.find_many_s / n * 1e3)
                    .num("labeler_ms", d.labeler_s / n * 1e3)
                    .num("stage_sum_over_whole", stage_ratio)
                    .num("tolerance", kStageTolerance)
                    .done()
                    .c_str());

    // fairMS: rank against the fleet, cached loads and publishes on the
    // update zoo.
    const auto snap = w.service->snapshot(kStream);
    Samples rank_ms;
    double candidates = 0.0;
    for (std::size_t s = 0; s < kTraceSample; ++s) {
      const auto pdf = snap->distribution(inputs.label_pools[s % inputs.label_pools.size()]);
      const auto start = Clock::now();
      const auto ranked = w.fleet_manager->rank("braggnn", pdf);
      rank_ms.ok(since(start) * 1e3);
      candidates = static_cast<double>(ranked.size());
    }
    const store::DocId last = w.foundations.front();
    const auto fetch_start = Clock::now();
    std::size_t blob_bytes = 0;
    for (std::size_t k = 0; k < 200; ++k) {
      blob_bytes = w.fairdms->zoo().fetch_cached(last)->parameters->size();
    }
    const double fetch_us = since(fetch_start) * 1e6 / 200.0;
    const auto record = w.fairdms->zoo().fetch_cached(last);
    Samples publish_ms;
    for (std::size_t k = 0; k < 8; ++k) {
      const auto start = Clock::now();
      w.fairdms->zoo().publish("braggnn", "trace_publish", record->train_pdf,
                               *record->parameters);
      publish_ms.ok(since(start) * 1e3);
    }
    const double hits = static_cast<double>(final_stats->model_cache_hits -
                                            baseline->model_cache_hits);
    const double misses = static_cast<double>(final_stats->model_cache_misses -
                                              baseline->model_cache_misses);
    const double labeled = static_cast<double>(s1.samples_labeled - s0.samples_labeled);
    const double reused = static_cast<double>(s1.labels_reused - s0.labels_reused);
    const double store_bytes =
        spec.engine == store::EngineKind::kLog
            ? dir_bytes(w.data_dir)
            : static_cast<double>(
                  w.db->collection(w.ds->config().collection).approx_bytes());
    const double meter_samples = static_cast<double>(w.labeler.samples.load());
    const double labeler_ms_per_sample =
        meter_samples > 0 ? static_cast<double>(w.labeler.nanos.load()) / 1e6 / meter_samples
                          : d.labeler_s * 1e3 / std::max<double>(1.0, static_cast<double>(d.labeled));
    metrics = {
        {"net.encode_us", d.encode_s / n * 1e6, "us"},
        {"net.decode_us", d.decode_s / n * 1e6, "us"},
        {"net.request_bytes", d.request_bytes / n, "bytes"},
        {"net.reply_bytes", d.reply_bytes / n, "bytes"},
        {"service.exec_ms", exec_ms.pct(50), "ms"},
        {"service.wait_ms", wait_ms.pct(50), "ms"},
        {"service.max_queue_depth", static_cast<double>(s1.max_queue_depth), "count"},
        {"service.shed", static_cast<double>(label_shed + rec_shed), "count"},
        {"fairds.embed_ms", d.embed_s / n * 1e3, "ms"},
        {"cluster.assign_us", d.assign_s / n * 1e6, "us"},
        {"reuse_index.nearest_us", d.nearest_s / n * 1e6, "us"},
        {"reuse.hit_ratio", labeled > 0 ? reused / labeled : 0.0, "ratio"},
        {"store.find_many_us", d.find_many_s / n * 1e6, "us"},
        {"store.find_many_docs", static_cast<double>(d.find_many_docs) / n, "count"},
        {"store.ingest_ms", ingest.call.mean() * 1e3, "ms"},
        {"store.log_bytes_per_user_byte",
         store_bytes / (history_bytes + ingest.payload_bytes), "ratio"},
        {"labeling.ms_per_sample", labeler_ms_per_sample, "ms"},
        {"labeling.samples", meter_samples, "count"},
        {"retrain.count", static_cast<double>(retrains_done), "count"},
        {"snapshot.versions", static_cast<double>(versions), "count"},
        {"fairms.rank_ms", rank_ms.pct(50), "ms"},
        {"fairms.candidates", candidates, "count"},
        {"fairms.fetch_cached_us", fetch_us, "us"},
        {"fairms.publish_ms", publish_ms.pct(50), "ms"},
        {"fairms.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"},
        {"nn.train_s_per_epoch", per_epoch.pct(50), "s"},
        {"nn.epochs", epochs.pct(50), "count"},
        {"update.label_s", label_s.pct(50), "s"},
        {"update.recommend_s", recommend_s.pct(50), "s"},
        {"update.train_s", train_s.pct(50), "s"},
        {"loadgen.lateness_p99_ms", lateness.pct(99) * 1e3, "ms"},
        {"loadgen.lateness_max_ms", max_lateness_ms, "ms"},
        {"trace.stage_sum_ratio", stage_ratio, "ratio"},
        {"trace.span_overhead_us", span_overhead_us(), "us"},
    };
    std::printf("foundation_blob_bytes %zu, labeler calls %llu\n", blob_bytes,
                static_cast<unsigned long long>(w.labeler.calls.load()));
    if (!args.trace_out.empty() && !trace.write(args.trace_out)) {
      checks.expect(false, "cannot write the trace file");
    }
  }

  for (const auto& f : checks.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  Json values;
  for (const auto& m : metrics) {
    values.raw(m.name, Json().num("value", m.value).str("unit", m.unit).done());
  }
  std::printf("%s\n", Json()
                          .boolean("correct", correct)
                          .num("attempted", static_cast<double>(attempted))
                          .num("failed", static_cast<double>(failed))
                          .raw("metrics", values.done())
                          .done()
                          .c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE] [--tiny]\n");
    return 2;
  }
  return perfbench::run(args);
}
