// store_matrix — per-backend CRUD micro-matrix for the document store.
//
// Runs the same single-threaded CRUD sequence against every cell of a
// (storage engine x shard count) grid on a fresh collection: insert,
// secondary-index backfill, point reads, projected batch reads, field
// updates, indexed lookups, deletes, compaction, and (durable engines
// only) a cold reopen that replays the on-disk segments. Each cell runs
// bench::kTimedRepeats times, each on a fresh collection and directory,
// and every op reports its median time over those runs. Single-threaded
// on purpose: with the RemoteLink wire model disabled, the numbers isolate
// per-engine storage cost — the MemEngine/LogEngine gap IS the price of
// durability, and the shard axis shows the engine seam composing with
// PR-4 sharding.
//
// `--json PATH` writes the machine-readable report CI archives as
// BENCH_store_*.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "store/docstore.hpp"
#include "util/rng.hpp"

namespace {

using namespace fairdms;
using bench::print_footer;
using bench::print_header;
using bench::print_row;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSeed = 6161;

struct Preset {
  const char* name;
  std::size_t docs;           ///< documents inserted per cell
  std::size_t blob_bytes;     ///< binary payload per document
  std::size_t point_reads;
  std::size_t batch_reads;    ///< find_many calls (64 ids, projected)
  std::size_t updates;
  std::size_t lookups;        ///< indexed find_eq calls
  std::vector<std::size_t> shard_counts;
};

Preset small_preset() { return {"small", 2000, 256, 4000, 50, 2000, 400,
                                {1, 4}}; }
Preset full_preset() { return {"full", 10000, 512, 20000, 200, 10000, 2000,
                               {1, 2, 8}}; }

store::Value random_doc(util::Rng& rng, std::size_t blob_bytes) {
  store::Object obj;
  obj.emplace("cluster",
              store::Value(static_cast<std::int64_t>(rng.uniform_index(16))));
  obj.emplace("tag", store::Value("tag_" +
                                  std::to_string(rng.uniform_index(1000))));
  store::Binary blob(blob_bytes);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  obj.emplace("blob", store::Value(std::move(blob)));
  return store::Value(std::move(obj));
}

struct Row {
  std::string engine;
  std::size_t shards;
  std::string op;
  std::size_t ops;
  double seconds;
  [[nodiscard]] double ops_per_s() const {
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// One run of a grid cell: the full CRUD sequence on a fresh collection
/// (in `dir` for durable engines). Appends one row per op, in order.
void run_once(store::EngineKind kind, std::size_t shards,
              const Preset& preset, const std::string& dir,
              std::vector<Row>& rows) {
  store::StorageEngineConfig engine;
  engine.kind = kind;
  if (kind == store::EngineKind::kLog) engine.directory = dir;

  util::Rng rng(kSeed);
  std::vector<store::Value> docs;
  docs.reserve(preset.docs);
  for (std::size_t i = 0; i < preset.docs; ++i) {
    docs.push_back(random_doc(rng, preset.blob_bytes));
  }

  auto col = std::make_unique<store::Collection>("bench", nullptr, shards,
                                                 engine);
  const auto record = [&](const char* op, std::size_t ops, double seconds) {
    rows.push_back(Row{store::to_string(kind), shards, op, ops, seconds});
  };

  std::vector<store::DocId> ids;
  ids.reserve(preset.docs);
  {
    Timer t;
    for (auto& doc : docs) ids.push_back(col->insert_one(std::move(doc)));
    record("insert", preset.docs, t.seconds());
  }
  {
    Timer t;
    col->create_index("cluster");
    record("index_backfill", preset.docs, t.seconds());
  }
  {
    Timer t;
    std::size_t found = 0;
    for (std::size_t i = 0; i < preset.point_reads; ++i) {
      const auto doc = col->find_by_id(ids[rng.uniform_index(ids.size())]);
      found += doc.has_value() ? 1 : 0;
    }
    bench::do_not_optimize(found);
    record("point_read", preset.point_reads, t.seconds());
  }
  {
    const std::vector<std::string> fields = {"cluster", "tag"};
    Timer t;
    std::size_t got = 0;
    for (std::size_t i = 0; i < preset.batch_reads; ++i) {
      std::vector<store::DocId> batch(64);
      for (auto& id : batch) id = ids[rng.uniform_index(ids.size())];
      const auto out = col->find_many(batch, fields);
      got += out.size();
    }
    bench::do_not_optimize(got);
    record("batch_read64", preset.batch_reads, t.seconds());
  }
  {
    Timer t;
    for (std::size_t i = 0; i < preset.updates; ++i) {
      col->update_field(
          ids[rng.uniform_index(ids.size())], "tag",
          store::Value("tag_" + std::to_string(rng.uniform_index(1000))));
    }
    record("update_field", preset.updates, t.seconds());
  }
  {
    Timer t;
    std::size_t matched = 0;
    for (std::size_t i = 0; i < preset.lookups; ++i) {
      matched += col->find_eq("cluster",
                              store::Value(static_cast<std::int64_t>(
                                  rng.uniform_index(16))))
                     .size();
    }
    bench::do_not_optimize(matched);
    record("indexed_lookup", preset.lookups, t.seconds());
  }
  {
    const std::size_t removals = preset.docs / 10;
    Timer t;
    for (std::size_t i = 0; i < removals; ++i) {
      col->remove_one(ids[i * 10]);
    }
    record("remove", removals, t.seconds());
  }
  {
    Timer t;
    col->compact();
    record("compact", col->size(), t.seconds());
  }
  if (kind == store::EngineKind::kLog) {
    // Cold reopen: drop the in-memory state and replay the segments.
    const std::size_t live = col->size();
    col.reset();
    Timer t;
    col = std::make_unique<store::Collection>("bench", nullptr, shards,
                                              engine);
    record("reopen_replay", col->size(), t.seconds());
    if (col->size() != live) {
      std::fprintf(stderr, "store_matrix: reopen lost documents (%zu -> %zu)\n",
                   live, col->size());
      std::exit(1);
    }
  }
}

/// One grid cell: bench::kTimedRepeats runs, each op's median printed and
/// appended to `rows`.
void run_cell(store::EngineKind kind, std::size_t shards,
              const Preset& preset, const std::string& data_root,
              std::vector<Row>& rows) {
  std::vector<std::vector<Row>> runs(bench::kTimedRepeats);
  for (std::size_t r = 0; r < runs.size(); ++r) {
    run_once(kind, shards, preset,
             data_root + "/cell_" + store::to_string(kind) + "_" +
                 std::to_string(shards) + "_run" + std::to_string(r),
             runs[r]);
  }
  for (std::size_t op = 0; op < runs[0].size(); ++op) {
    std::vector<double> seconds;
    for (const std::vector<Row>& run : runs) seconds.push_back(run[op].seconds);
    Row row = runs[0][op];
    row.seconds = bench::median(std::move(seconds));
    print_row(row.engine, row.shards, row.op, row.ops, row.seconds,
              row.ops_per_s());
    rows.push_back(std::move(row));
  }
}

void write_json(const char* path, const Preset& preset,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "store_matrix: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"store_matrix\",\n");
  std::fprintf(f, "  \"preset\": \"%s\",\n", preset.name);
  std::fprintf(f, "  \"docs\": %zu,\n", preset.docs);
  std::fprintf(f, "  \"blob_bytes\": %zu,\n", preset.blob_bytes);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"shards\": %zu, \"op\": \"%s\", "
                 "\"ops\": %zu, \"seconds\": %.6f, \"ops_per_s\": %.1f}%s\n",
                 r.engine.c_str(), r.shards, r.op.c_str(), r.ops, r.seconds,
                 r.ops_per_s(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("json report written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Preset preset = full_preset();
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--preset") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
      if (std::strcmp(name, "small") == 0) preset = small_preset();
      else if (std::strcmp(name, "full") == 0) preset = full_preset();
      else {
        std::fprintf(stderr, "unknown preset: %s\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: store_matrix [--preset small|full] [--json PATH]\n");
      return 2;
    }
  }

  print_header("store_matrix",
               "per-engine CRUD cost grid (engine x shards), preset " +
                   std::string(preset.name));
  print_row("engine", "shards", "op", "ops", "seconds", "ops/s");

  const std::string data_root =
      (std::filesystem::temp_directory_path() /
       ("fairdms_store_matrix_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(data_root);

  std::vector<Row> rows;
  for (const store::EngineKind kind :
       {store::EngineKind::kMem, store::EngineKind::kLog}) {
    for (const std::size_t shards : preset.shard_counts) {
      run_cell(kind, shards, preset, data_root, rows);
    }
  }
  std::filesystem::remove_all(data_root);

  if (json_path != nullptr) write_json(json_path, preset, rows);
  print_footer(
      "mem vs log on the same row is the storage cost of durability; "
      "down a column, the engine seam composes with sharding unchanged");
  return 0;
}
