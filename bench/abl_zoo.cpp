// Ablation: the versioned model plane (ModelZoo + ModelCache + rank index)
// against a remotely hosted store at ~1k zoo models.
//
//   (1) foundation load, cold vs warm: fetch_cached() latency and
//       RemoteLink traffic on the first load of a model vs the repeat. The
//       repeat must move zero bytes and zero requests — the entire record
//       is served from the parameter-blob cache.
//   (2) zoo construction (index build) vs warm rank/recommend: what a
//       restart pays to rebuild the rank index from the store (one
//       projected read of every record), and the per-call latency and link
//       traffic of ranking the full zoo and of recommend's bound-pruned
//       min-scan, which read the in-memory index and move zero bytes. Three
//       zoos: the random one above; a fleet shaped like perfbench's (8-bin
//       u^3 + 1e-3 PDFs), queried with 16-sample histograms; and a worst
//       case where every row has one PDF, so no row can be pruned and
//       recommend's L1 pass is pure overhead. rank scores every row on
//       all three.
//   (3) byte-budget pressure: hit rate and evictions when the blob working
//       set exceeds the cache budget — the knob behind
//       FairDMSConfig.model_cache_bytes (a ModelZoo's construction-time
//       cache budget).
//
// The zoo is synthetic (random PDFs, fixed-size weight blobs): this bench
// measures the registry and its cache, not training. The RemoteLink uses
// the paper's remote-store profile (120us RTT, ~50Gb/s effective). Each
// time in (2) is the median of bench::kTimedRepeats windows, each the mean
// of rank_repeats calls.
//
// Run with `abl_zoo small` for the CI smoke preset; the default full
// preset is what EXPERIMENTS.md records.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fairms/zoo.hpp"
#include "store/docstore.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

constexpr std::uint64_t kSeed = 7171;

struct Preset {
  const char* name;
  std::size_t n_models;
  std::size_t pdf_width;
  std::size_t blob_bytes;
  std::size_t fetch_probes;   ///< distinct models fetched in section (1)
  std::size_t rank_repeats;   ///< calls per timed window of section (2)
  std::size_t fleet_models;   ///< rows of section (2)'s fleet zoos
};

Preset full_preset() { return {"full", 1024, 16, 64 * 1024, 64, 8, 2000}; }
Preset small_preset() { return {"small", 128, 8, 16 * 1024, 16, 4, 256}; }

/// perfbench's fleet PDF width and query size.
constexpr std::size_t kFleetWidth = 8;
constexpr std::size_t kQuerySamples = 16;

std::vector<double> random_pdf(fairdms::util::Rng& rng, std::size_t width) {
  std::vector<double> pdf(width);
  for (double& v : pdf) v = rng.uniform();
  pdf[rng.uniform_index(width)] += 0.5;
  return pdf;
}

/// A fleet PDF as perfbench draws one: u^3 + 1e-3 per bin, normalized.
std::vector<double> fleet_pdf(fairdms::util::Rng& rng) {
  std::vector<double> pdf(kFleetWidth);
  double sum = 0.0;
  for (double& v : pdf) {
    const double u = rng.uniform();
    v = u * u * u + 1e-3;
    sum += v;
  }
  for (double& v : pdf) v /= sum;
  return pdf;
}

/// The cluster histogram of a kQuerySamples-image query drawn from `pdf`.
std::vector<double> histogram_query(fairdms::util::Rng& rng,
                                    const std::vector<double>& pdf) {
  std::vector<double> counts(pdf.size(), 0.0);
  for (std::size_t s = 0; s < kQuerySamples; ++s) {
    double u = rng.uniform();
    std::size_t bin = 0;
    while (bin + 1 < pdf.size() && u >= pdf[bin]) u -= pdf[bin++];
    counts[bin] += 1.0;
  }
  return counts;
}

struct LinkDelta {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
};

template <typename Fn>
LinkDelta measure_link(const fairdms::store::DocStore& db, Fn&& fn) {
  const auto req = db.link().requests();
  const auto bytes = db.link().bytes_moved();
  fn();
  return {db.link().requests() - req, db.link().bytes_moved() - bytes};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairdms;
  const bool small = argc > 1 && std::strcmp(argv[1], "small") == 0;
  const Preset preset = small ? small_preset() : full_preset();
  bench::print_header(
      "Ablation: versioned model plane (ModelZoo + ModelCache + rank index)",
      std::string("cold vs warm fetch/recommend at scale (preset: ") +
          preset.name + ", models: " + std::to_string(preset.n_models) +
          ", blob: " + std::to_string(preset.blob_bytes / 1024) +
          " KiB, hw threads: " +
          std::to_string(std::thread::hardware_concurrency()) + ")");

  // The paper's remote-store profile: both MongoDB and NFS live behind a
  // 100 GbE NIC on another node.
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 120e-6,
                                             .bandwidth_bytes_per_s = 6e9});
  fairms::ModelZoo zoo(db);
  util::Rng rng(kSeed);
  std::vector<store::DocId> ids;
  ids.reserve(preset.n_models);
  {
    std::vector<std::uint8_t> blob(preset.blob_bytes);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    util::WallTimer timer;
    for (std::size_t i = 0; i < preset.n_models; ++i) {
      blob[0] = static_cast<std::uint8_t>(i);  // cheap per-model variation
      ids.push_back(zoo.publish("braggnn", "zoo_" + std::to_string(i),
                                random_pdf(rng, preset.pdf_width), blob));
    }
    std::printf("published %zu models in %.2f s (%.1f MiB of blobs)\n\n",
                preset.n_models, timer.seconds(),
                static_cast<double>(preset.n_models * preset.blob_bytes) /
                    (1024.0 * 1024.0));
  }

  // ---- (1) foundation load: cold vs warm -----------------------------------
  std::printf("(1) foundation load (fetch_cached): cold vs warm over %zu "
              "models\n", preset.fetch_probes);
  bench::print_row("pass", "avg_ms", "KiB/fetch", "req/fetch");
  std::vector<store::DocId> probes;
  // Distinct models, spread across the zoo: every cold fetch is a real miss.
  const std::size_t stride = ids.size() / preset.fetch_probes;
  for (std::size_t i = 0; i < preset.fetch_probes; ++i) {
    probes.push_back(ids[i * stride]);
  }
  for (const bool warm : {false, true}) {
    if (!warm) zoo.cache().clear();  // publish pre-warmed; measure true cold
    util::WallTimer timer;
    LinkDelta delta = measure_link(db, [&] {
      for (const auto id : probes) {
        const auto record = zoo.fetch_cached(id);
        bench::do_not_optimize(record);
      }
    });
    const double n = static_cast<double>(probes.size());
    bench::print_row(warm ? "warm" : "cold", timer.seconds() * 1e3 / n,
                     static_cast<double>(delta.bytes) / n / 1024.0,
                     static_cast<double>(delta.requests) / n);
  }

  // ---- (2) zoo construction (index build) vs warm rank/recommend --------
  std::printf("\n(2) zoo construction (index build) vs warm rank/recommend "
              "over each full zoo (median of %zu x %zu calls)\n",
              bench::kTimedRepeats, preset.rank_repeats);
  bench::print_row("zoo", "mode", "avg_ms", "KiB/call", "req/call");
  const auto measure = [&](const char* zoo_name, const char* label,
                           const store::DocStore& store, auto&& call) {
    std::vector<double> window_ms;
    LinkDelta delta;
    const double n = static_cast<double>(preset.rank_repeats);
    for (std::size_t w = 0; w < bench::kTimedRepeats; ++w) {
      util::WallTimer timer;
      delta = measure_link(store, [&] {
        for (std::size_t r = 0; r < preset.rank_repeats; ++r) call();
      });
      window_ms.push_back(timer.millis() / n);
    }
    bench::print_row(zoo_name, label, bench::median(std::move(window_ms)),
                     static_cast<double>(delta.bytes) / n / 1024.0,
                     static_cast<double>(delta.requests) / n);
  };
  const auto scan = [&](const char* zoo_name, const fairms::ModelZoo& z,
                        const store::DocStore& store,
                        const std::vector<std::vector<double>>& queries) {
    const fairms::ModelManager manager(z, 1.0);
    std::size_t q = 0;
    measure(zoo_name, "rank", store, [&] {
      const auto ranked =
          manager.rank("braggnn", queries[q++ % queries.size()]);
      bench::do_not_optimize(ranked);
    });
    measure(zoo_name, "recommend", store, [&] {
      const auto pick =
          manager.recommend("braggnn", queries[q++ % queries.size()]);
      bench::do_not_optimize(pick);
    });
  };
  const auto query = random_pdf(rng, preset.pdf_width);
  measure("random", "construct", db, [&] {
    fairms::ModelZoo rebuilt(db);
    bench::do_not_optimize(rebuilt.revision());
  });
  scan("random", zoo, db, {query});

  // The fleet zoos live in local stores: publishing them over the remote
  // link would only slow the set-up, and rank/recommend never read a store.
  const std::vector<std::uint8_t> tiny_blob = {1};
  std::vector<std::vector<double>> fleet_queries;
  for (std::size_t i = 0; i < 16; ++i) {
    fleet_queries.push_back(histogram_query(rng, fleet_pdf(rng)));
  }
  store::DocStore fleet_db;
  fairms::ModelZoo fleet(fleet_db);
  for (std::size_t i = 0; i < preset.fleet_models; ++i) {
    fleet.publish("braggnn", "fleet_" + std::to_string(i), fleet_pdf(rng),
                  tiny_blob);
  }
  scan("fleet", fleet, fleet_db, fleet_queries);
  store::DocStore same_db;
  fairms::ModelZoo same(same_db);
  const auto shared_pdf = fleet_pdf(rng);
  for (std::size_t i = 0; i < preset.fleet_models; ++i) {
    same.publish("braggnn", "same_" + std::to_string(i), shared_pdf,
                 tiny_blob);
  }
  scan("same-pdf", same, same_db, fleet_queries);

  // ---- (3) byte-budget pressure --------------------------------------------
  std::printf("\n(3) budget pressure: fetch every model twice under "
              "shrinking cache budgets\n");
  bench::print_row("budget_MiB", "hit_rate", "evictions", "resident_MiB");
  const std::size_t working_set = preset.n_models * preset.blob_bytes;
  for (const double fraction : {2.0, 0.5, 0.1}) {
    const auto budget =
        static_cast<std::size_t>(static_cast<double>(working_set) * fraction);
    fairms::ModelZoo budgeted(db, budget);
    budgeted.cache().clear();
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto id : ids) {
        const auto record = budgeted.fetch_cached(id);
        bench::do_not_optimize(record);
      }
    }
    const auto stats = budgeted.cache().stats();
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
    bench::print_row(static_cast<double>(budget) / (1024.0 * 1024.0),
                     hit_rate, static_cast<std::size_t>(stats.evictions),
                     static_cast<double>(stats.resident_bytes) /
                         (1024.0 * 1024.0));
  }

  bench::print_footer(
      "a warm foundation load and every rank/recommend move zero link bytes "
      "— the remote store drops out of the serving hot path; a restart pays "
      "one projected read of the zoo to rebuild the rank index; recommend "
      "runs the JSD kernel only on rows that can still win, and pays one L1 "
      "pass per row where none can be pruned");
  return 0;
}
