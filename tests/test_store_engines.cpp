// Storage-engine semantics: randomized mem-vs-log parity (every query
// result, approx_bytes, and every charged byte must agree across engines,
// at shard counts 1/2/8), log-engine durability — reopen replay, tombstone
// persistence, the id floor a removed highest id leaves across reopen and
// compaction, byte-by-byte torn-tail truncation, and a child
// process SIGKILLed mid-ingest losing at most the tail record — plus the
// engine-selection plumbing through DocStoreConfig / FairDSConfig /
// DataServiceConfig.
//
// The crash tests fork() and run single-threaded insert loops in the
// child, staying under the store's per-shard fan-out threshold so no
// thread pool is ever spun on either side of the fork. They are declared
// first so they run before any test that starts service worker threads.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fairds/fairds.hpp"
#include "service/data_service.hpp"
#include "store/docstore.hpp"
#include "store/log_engine.hpp"
#include "store/persist.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

namespace fs = std::filesystem;

using store::Binary;
using store::Collection;
using store::DocId;
using store::EngineKind;
using store::LogEngine;
using store::Object;
using store::RemoteLink;
using store::RemoteLinkConfig;
using store::StorageEngineConfig;
using store::Value;

/// Counts requests/bytes without sleeping (latency 0 skips the wire model
/// but still accounts), so tests can compare charge accounting exactly.
RemoteLink accounting_link() {
  return RemoteLink(RemoteLinkConfig{.latency_seconds = 0.0,
                                     .bandwidth_bytes_per_s = 1e12});
}

/// A fresh per-test scratch directory (removed on destruction).
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(::testing::TempDir() + "fairdms_engines_" + tag + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

StorageEngineConfig log_config(const std::string& directory) {
  StorageEngineConfig config;
  config.kind = EngineKind::kLog;
  config.directory = directory;
  return config;
}

Value random_doc(util::Rng& rng) {
  Object doc;
  doc["cluster"] = Value(static_cast<std::int64_t>(rng.uniform_index(8)));
  doc["tag"] = Value(static_cast<std::int64_t>(rng.uniform_index(5)));
  Binary blob(rng.uniform_index(48));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  doc["blob"] = Value(std::move(blob));
  return Value(std::move(doc));
}

/// Deterministic document for crash tests: the parent can regenerate
/// exactly what the killed child inserted for any id.
Value doc_for(DocId id) {
  util::Rng rng(1000 + id);
  Object doc;
  doc["seq"] = Value(static_cast<std::int64_t>(id));
  Binary blob(16 + rng.uniform_index(48));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  doc["blob"] = Value(std::move(blob));
  return Value(std::move(doc));
}

Value expected_stored_doc(DocId id) {
  Value doc = doc_for(id);
  doc.as_object()["_id"] = Value(static_cast<std::int64_t>(id));
  return doc;
}

void expect_same_docs(const std::optional<Value>& a,
                      const std::optional<Value>& b, std::size_t op) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
  if (a.has_value()) {
    EXPECT_EQ(a->compare(*b), 0) << "op " << op;
  }
}

// --- crash recovery (declared first: forks must precede worker threads) -----

/// SIGKILLs a child mid-ingest and asserts the reopened collection holds a
/// contiguous prefix per shard: the acked documents all survive, every
/// recovered document is byte-exact, and at most the in-flight tail is
/// gone.
void run_sigkill_recovery(std::size_t shards) {
  TempDir dir("sigkill_" + std::to_string(shards));
  constexpr std::size_t kAckAfter = 40;

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: ack after kAckAfter single-threaded inserts, then keep
    // appending until the parent kills us mid-write. No gtest, no threads,
    // no exit handlers — _exit only on the (unexpected) fall-through.
    ::close(pipefd[0]);
    Collection col("crash", nullptr, shards, log_config(dir.path));
    for (DocId i = 1; i <= 100000; ++i) {
      col.insert_one(doc_for(i));
      if (i == kAckAfter) {
        const char byte = 'a';
        if (::write(pipefd[1], &byte, 1) != 1) ::_exit(3);
      }
    }
    ::_exit(0);
  }
  ::close(pipefd[1]);
  char byte = 0;
  ASSERT_EQ(::read(pipefd[0], &byte, 1), 1);
  ::close(pipefd[0]);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Reopen: replay must recover every acked record (completed write()s
  // survive process death in the page cache) and truncate any torn tail.
  Collection col("crash", nullptr, shards, log_config(dir.path));
  const std::vector<DocId> ids = col.all_ids();
  ASSERT_GE(ids.size(), kAckAfter);
  // Ids are issued 1, 2, 3, ... and routed to shard id % shards; a crash
  // can only lose each shard's own tail, so the recovered ids of every
  // residue class must be that class's full prefix 1..max with no holes:
  // every id below the class maximum whose residue matches is present.
  std::vector<bool> present(ids.back() + 1, false);
  std::vector<DocId> class_max(shards, 0);
  for (const DocId id : ids) {
    present[id] = true;
    class_max[id % shards] = std::max(class_max[id % shards], id);
  }
  for (DocId id = 1; id <= ids.back(); ++id) {
    if (id <= class_max[id % shards]) {
      EXPECT_TRUE(present[id]) << "hole: id " << id << " lost but shard "
                               << id % shards << " kept later records";
    }
  }
  // Every recovered document is byte-exact, and the id counter resumed
  // past the highest survivor.
  for (const DocId id : ids) {
    const auto doc = col.find_by_id(id);
    ASSERT_TRUE(doc.has_value()) << "id " << id;
    EXPECT_EQ(doc->compare(expected_stored_doc(id)), 0) << "id " << id;
  }
  EXPECT_EQ(col.next_id(), ids.back() + 1);
  const DocId fresh = col.insert_one(doc_for(999999));
  EXPECT_GT(fresh, ids.back());
}

TEST(LogCrash, SigkillMidIngestLosesAtMostTailRecordOneShard) {
  run_sigkill_recovery(1);
}

TEST(LogCrash, SigkillMidIngestLosesAtMostTailRecordTwoShards) {
  run_sigkill_recovery(2);
}

TEST(LogCrash, TruncationSweepRecoversLongestValidPrefix) {
  TempDir dir("truncsweep");
  const std::string seg = dir.path + "/shard-0.log";
  std::vector<std::size_t> doc_ends;  // segment size after each insert
  {
    LogEngine engine(seg);
    for (DocId id = 1; id <= 6; ++id) {
      Value doc = expected_stored_doc(id);
      const std::size_t bytes = doc.encoded_size();
      engine.insert(id, std::move(doc), bytes);
      doc_ends.push_back(engine.segment_bytes());
    }
  }
  Binary original;
  {
    std::ifstream in(seg, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(original.size(), doc_ends.back());

  // Cut the segment at every byte offset; reopen must never crash and must
  // recover exactly the records whose bytes fully survived the cut.
  const std::string cut_path = dir.path + "/cut.log";
  for (std::size_t cut = 0; cut <= original.size(); ++cut) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(original.data()),
                static_cast<std::streamsize>(cut));
    }
    LogEngine engine(cut_path);
    const std::size_t expect_docs =
        static_cast<std::size_t>(std::count_if(
            doc_ends.begin(), doc_ends.end(),
            [cut](std::size_t end) { return end <= cut; }));
    ASSERT_EQ(engine.size(), expect_docs) << "cut at byte " << cut;
    for (DocId id = 1; id <= expect_docs; ++id) {
      const bool found =
          engine.read(id, [&](const Value& doc, std::size_t /*bytes*/) {
            EXPECT_EQ(doc.compare(expected_stored_doc(id)), 0);
          });
      ASSERT_TRUE(found) << "cut " << cut << " id " << id;
    }
  }
}

TEST(LogCrash, CorruptTailRecordIsDroppedOnReopen) {
  TempDir dir("corrupt");
  const std::string seg = dir.path + "/shard-0.log";
  std::size_t second_doc_end = 0;
  {
    LogEngine engine(seg);
    for (DocId id = 1; id <= 3; ++id) {
      Value doc = expected_stored_doc(id);
      const std::size_t bytes = doc.encoded_size();
      engine.insert(id, std::move(doc), bytes);
      if (id == 2) second_doc_end = engine.segment_bytes();
    }
  }
  // Flip one payload byte inside the third record: its checksum fails, so
  // replay keeps records 1-2 and truncates the corrupt tail away.
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(second_doc_end + 20));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(second_doc_end + 20));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(second_doc_end + 20));
    f.write(&byte, 1);
  }
  LogEngine engine(seg);
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_EQ(engine.segment_bytes(), second_doc_end);
  const auto ignore = [](const Value&, std::size_t) {};
  EXPECT_TRUE(engine.read(1, ignore));
  EXPECT_TRUE(engine.read(2, ignore));
  EXPECT_FALSE(engine.read(3, ignore));
}

// --- randomized engine parity -----------------------------------------------

/// Drives identical randomized op sequences against a MemEngine and a
/// LogEngine collection (same shard count), including index creation over
/// existing documents and reopening the log side from its directory;
/// every query result and both links' byte accounting must agree at every
/// step.
void run_engine_parity(std::size_t shards, std::uint64_t seed) {
  TempDir dir("parity_" + std::to_string(shards));
  const RemoteLink link_a = accounting_link();
  const RemoteLink link_b = accounting_link();
  Collection a("parity", &link_a, shards);
  std::optional<Collection> b;
  b.emplace("parity", &link_b, shards, log_config(dir.path));
  ASSERT_STREQ(a.engine_name(), "mem");
  ASSERT_STREQ(b->engine_name(), "log");
  a.create_index("cluster");
  b->create_index("cluster");

  util::Rng rng(seed);
  std::vector<DocId> live;
  const auto any_id = [&](util::Rng& r) -> DocId {
    if (!live.empty() && r.uniform() < 0.85) {
      return live[r.uniform_index(live.size())];
    }
    return a.next_id() + r.uniform_index(4);
  };

  constexpr std::size_t kOps = 1000;
  for (std::size_t op = 0; op < kOps; ++op) {
    util::Rng op_rng = rng.fork(op);
    switch (op_rng.uniform_index(13)) {
      case 0: {  // insert_one
        Value doc = random_doc(op_rng);
        Value copy = doc;
        const DocId ia = a.insert_one(std::move(doc));
        const DocId ib = b->insert_one(std::move(copy));
        ASSERT_EQ(ia, ib) << "op " << op;
        live.push_back(ia);
        break;
      }
      case 1: {  // insert_many
        const std::size_t n = 1 + op_rng.uniform_index(6);
        std::vector<Value> docs;
        std::vector<Value> copies;
        for (std::size_t i = 0; i < n; ++i) {
          docs.push_back(random_doc(op_rng));
          copies.push_back(docs.back());
        }
        const auto ia = a.insert_many(std::move(docs));
        const auto ib = b->insert_many(std::move(copies));
        ASSERT_EQ(ia, ib) << "op " << op;
        live.insert(live.end(), ia.begin(), ia.end());
        break;
      }
      case 2: {  // update_field (sometimes on a missing id)
        const DocId id = any_id(op_rng);
        Value v(static_cast<std::int64_t>(op_rng.uniform_index(8)));
        EXPECT_EQ(a.update_field(id, "cluster", v),
                  b->update_field(id, "cluster", v))
            << "op " << op;
        break;
      }
      case 3: {  // update_fields, multi-field
        const DocId id = any_id(op_rng);
        Object fields;
        fields["tag"] =
            Value(static_cast<std::int64_t>(op_rng.uniform_index(5)));
        Binary blob(op_rng.uniform_index(32));
        for (auto& byte : blob) {
          byte = static_cast<std::uint8_t>(op_rng.uniform_index(256));
        }
        fields["blob"] = Value(std::move(blob));
        Object copy = fields;
        EXPECT_EQ(a.update_fields(id, std::move(fields)),
                  b->update_fields(id, std::move(copy)))
            << "op " << op;
        break;
      }
      case 4: {  // update_many with duplicate and missing ids
        std::vector<std::pair<DocId, Object>> updates;
        const std::size_t n = 1 + op_rng.uniform_index(5);
        for (std::size_t i = 0; i < n; ++i) {
          Object fields;
          fields["tag"] =
              Value(static_cast<std::int64_t>(op_rng.uniform_index(5)));
          updates.emplace_back(any_id(op_rng), std::move(fields));
        }
        auto copy = updates;
        EXPECT_EQ(a.update_many(std::move(updates)),
                  b->update_many(std::move(copy)))
            << "op " << op;
        break;
      }
      case 5: {  // index creation backfills the existing documents
        a.create_index("tag");
        b->create_index("tag");
        break;
      }
      case 6: {  // remove_one
        const DocId id = any_id(op_rng);
        EXPECT_EQ(a.remove_one(id), b->remove_one(id)) << "op " << op;
        std::erase(live, id);
        break;
      }
      case 7: {  // find_by_id
        const DocId id = any_id(op_rng);
        expect_same_docs(a.find_by_id(id), b->find_by_id(id), op);
        break;
      }
      case 8: {  // find_many with duplicates/missing, sometimes projected
        std::vector<DocId> ids;
        const std::size_t n = 1 + op_rng.uniform_index(8);
        for (std::size_t i = 0; i < n; ++i) ids.push_back(any_id(op_rng));
        if (n > 1) ids.push_back(ids.front());
        std::vector<std::string> fields;
        if (op_rng.uniform() < 0.5) fields = {"cluster", "blob"};
        const auto ra = a.find_many(ids, fields);
        const auto rb = b->find_many(ids, fields);
        ASSERT_EQ(ra.size(), rb.size()) << "op " << op;
        for (std::size_t i = 0; i < ra.size(); ++i) {
          expect_same_docs(ra[i], rb[i], op);
        }
        break;
      }
      case 9: {  // find_eq: indexed field and scanned field
        const Value c(static_cast<std::int64_t>(op_rng.uniform_index(8)));
        EXPECT_EQ(a.find_eq("cluster", c), b->find_eq("cluster", c))
            << "op " << op;
        const Value t(static_cast<std::int64_t>(op_rng.uniform_index(5)));
        EXPECT_EQ(a.find_eq("tag", t), b->find_eq("tag", t)) << "op " << op;
        // `_id` is never indexed: the scan fallback, with hits.
        const Value id(static_cast<std::int64_t>(any_id(op_rng)));
        EXPECT_EQ(a.find_eq("_id", id), b->find_eq("_id", id)) << "op " << op;
        break;
      }
      case 10: {  // reopen b: replay, then re-create its indexes
        const std::vector<std::string> fields = b->index_fields();
        b.reset();
        b.emplace("parity", &link_b, shards, log_config(dir.path));
        for (const std::string& field : fields) b->create_index(field);
        break;
      }
      case 11: {  // bulk introspection
        EXPECT_EQ(a.all_ids(), b->all_ids()) << "op " << op;
        EXPECT_EQ(a.size(), b->size()) << "op " << op;
        EXPECT_EQ(a.index_fields(), b->index_fields()) << "op " << op;
        break;
      }
      case 12: {  // compaction is transparent to every later op
        a.compact();
        b->compact();
        break;
      }
    }
    ASSERT_EQ(a.approx_bytes(), b->approx_bytes()) << "op " << op;
    ASSERT_EQ(a.next_id(), b->next_id()) << "op " << op;
    ASSERT_EQ(link_a.bytes_moved(), link_b.bytes_moved()) << "op " << op;
    ASSERT_EQ(link_a.requests(), link_b.requests()) << "op " << op;
  }
  EXPECT_GT(a.size(), 0u);
  EXPECT_GT(link_a.bytes_moved(), 0u);
}

TEST(EngineParity, LogMatchesMemOneShard) { run_engine_parity(1, 44); }
TEST(EngineParity, LogMatchesMemTwoShards) { run_engine_parity(2, 55); }
TEST(EngineParity, LogMatchesMemEightShards) { run_engine_parity(8, 66); }

// --- durability & compaction ------------------------------------------------

TEST(LogDurability, ReopenRecoversDocumentsTombstonesAndIdCounter) {
  TempDir dir("reopen");
  util::Rng rng(77);
  std::vector<DocId> ids;
  std::size_t bytes_before = 0;
  DocId next_before = 0;
  {
    Collection col("samples", nullptr, 2, log_config(dir.path));
    for (int i = 0; i < 40; ++i) ids.push_back(col.insert_one(random_doc(rng)));
    col.update_field(ids[3], "cluster", Value(std::int64_t{42}));
    Value fresh = random_doc(rng);
    col.update_fields(ids[5], std::move(fresh.as_object()));
    ASSERT_TRUE(col.remove_one(ids[7]));
    ASSERT_TRUE(col.remove_one(ids[8]));
    bytes_before = col.approx_bytes();
    next_before = col.next_id();
  }  // destructor closes the segments

  Collection col("samples", nullptr, 2, log_config(dir.path));
  EXPECT_EQ(col.size(), ids.size() - 2);
  EXPECT_EQ(col.approx_bytes(), bytes_before);
  EXPECT_EQ(col.next_id(), next_before);
  EXPECT_FALSE(col.find_by_id(ids[7]).has_value());  // tombstones held
  EXPECT_FALSE(col.find_by_id(ids[8]).has_value());
  const auto updated = col.find_by_id(ids[3]);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(updated->at("cluster").as_int(), 42);
  // Indexes are in-memory: a reopened collection starts index-less and
  // re-creating them backfills from the replayed documents.
  EXPECT_TRUE(col.index_fields().empty());
  col.create_index("cluster");
  EXPECT_EQ(col.find_eq("cluster", Value(std::int64_t{42})),
            std::vector<DocId>{ids[3]});
}

TEST(LogDurability, ReopenNeverReissuesARemovedHighestId) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    TempDir dir("reissue_" + std::to_string(shards));
    util::Rng rng(7);
    {
      Collection col("samples", nullptr, shards, log_config(dir.path));
      for (int i = 0; i < 3; ++i) col.insert_one(random_doc(rng));
      ASSERT_TRUE(col.remove_one(3));
    }
    {
      // Reopened straight after the remove: the tombstone holds the floor.
      Collection col("samples", nullptr, shards, log_config(dir.path));
      EXPECT_EQ(col.next_id(), 4u) << shards << " shard(s)";
      EXPECT_EQ(col.insert_one(random_doc(rng)), 4u);
      ASSERT_TRUE(col.remove_one(4));
      col.compact();
    }
    // Reopened after a compaction: the rotated segment keeps the floor.
    Collection col("samples", nullptr, shards, log_config(dir.path));
    EXPECT_EQ(col.next_id(), 5u) << shards << " shard(s)";
    EXPECT_EQ(col.insert_one(random_doc(rng)), 5u);
    EXPECT_EQ(col.all_ids(), (std::vector<DocId>{1, 2, 5}));
  }
}

TEST(LogDurability, RestoredSnapshotKeepsItsIdFloorAcrossReopen) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    TempDir dir("restore_floor_" + std::to_string(shards));
    const std::string snap = dir.path + "/snap";
    util::Rng rng(8);
    {
      // Saved from a mem collection whose highest id was removed.
      store::DocStore src;
      auto& col = src.collection("samples", shards);
      for (int i = 0; i < 3; ++i) col.insert_one(random_doc(rng));
      ASSERT_TRUE(col.remove_one(3));
      ASSERT_TRUE(store::try_save_store(src, snap).ok());
    }
    store::DocStoreConfig config;
    config.shards = shards;
    config.engine = log_config(dir.path + "/data");
    {
      store::DocStore db(config);
      ASSERT_TRUE(store::try_load_store(db, snap).ok());
      EXPECT_EQ(db.collection("samples").next_id(), 4u) << shards;
    }
    {
      // Reopened from the log alone, then compacted.
      store::DocStore db(config);
      auto& col = db.collection("samples");
      EXPECT_EQ(col.next_id(), 4u) << shards << " shard(s)";
      EXPECT_EQ(col.all_ids(), (std::vector<DocId>{1, 2}));
      col.compact();
    }
    store::DocStore db(config);
    auto& col = db.collection("samples");
    EXPECT_EQ(col.next_id(), 4u) << shards << " shard(s)";
    EXPECT_EQ(col.insert_one(random_doc(rng)), 4u);
    EXPECT_EQ(col.all_ids(), (std::vector<DocId>{1, 2, 4}));
  }
}

TEST(LogDurability, CompactionShrinksSegmentsAndSurvivesReopen) {
  TempDir dir("compact");
  util::Rng rng(88);
  std::vector<DocId> ids;
  {
    Collection col("samples", nullptr, 1, log_config(dir.path));
    for (int i = 0; i < 30; ++i) ids.push_back(col.insert_one(random_doc(rng)));
    for (int round = 0; round < 5; ++round) {
      for (const DocId id : ids) {
        col.update_field(id, "cluster",
                         Value(static_cast<std::int64_t>(round)));
      }
    }
    for (int i = 20; i < 30; ++i) col.remove_one(ids[i]);

    const auto before = fs::file_size(dir.path + "/shard-0.log");
    col.compact();
    const auto after = fs::file_size(dir.path + "/shard-0.log");
    EXPECT_LT(after, before / 3);  // 6 versions + tombstones -> 1 version
    EXPECT_EQ(col.size(), 20u);
  }

  Collection col("samples", nullptr, 1, log_config(dir.path));
  EXPECT_EQ(col.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const auto doc = col.find_by_id(ids[i]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("cluster").as_int(), 4);
  }
}

TEST(LogDurability, SnapshotsRoundTripAcrossEngines) {
  TempDir dir("xengine");
  const std::string snap = dir.path + "/snap";
  // Write with a log-engine store, load into a mem store, and back.
  store::DocStoreConfig src_config;
  src_config.engine = log_config(dir.path + "/src_data");
  store::DocStore src(src_config);
  auto& col = src.collection("samples", 2);
  col.create_index("cluster");
  util::Rng rng(99);
  for (int i = 0; i < 32; ++i) col.insert_one(random_doc(rng));
  col.remove_one(3);
  ASSERT_TRUE(store::try_save_store(src, snap).ok());

  store::DocStore mem_dst;
  ASSERT_TRUE(store::try_load_store(mem_dst, snap).ok());
  auto& mem_col = mem_dst.collection("samples");
  EXPECT_STREQ(mem_col.engine_name(), "mem");
  EXPECT_EQ(mem_col.size(), col.size());
  EXPECT_EQ(mem_col.approx_bytes(), col.approx_bytes());
  EXPECT_EQ(mem_col.all_ids(), col.all_ids());
  EXPECT_EQ(mem_col.index_fields(), col.index_fields());

  store::DocStoreConfig log_dst_config;
  log_dst_config.engine = log_config(dir.path + "/dst_data");
  store::DocStore log_dst(log_dst_config);
  ASSERT_TRUE(store::try_load_store(log_dst, snap).ok());
  auto& log_col = log_dst.collection("samples");
  EXPECT_STREQ(log_col.engine_name(), "log");
  EXPECT_EQ(log_col.size(), col.size());
  EXPECT_EQ(log_col.approx_bytes(), col.approx_bytes());
  EXPECT_EQ(log_col.all_ids(), col.all_ids());
  for (const DocId id : col.all_ids()) {
    expect_same_docs(col.find_by_id(id), log_col.find_by_id(id), id);
  }
}

// --- engine-selection plumbing ----------------------------------------------

TEST(EnginePlumbing, ParseAndPrintEngineKinds) {
  EXPECT_EQ(store::parse_engine_kind("mem"), EngineKind::kMem);
  EXPECT_EQ(store::parse_engine_kind("log"), EngineKind::kLog);
  EXPECT_FALSE(store::parse_engine_kind("wiredtiger").has_value());
  EXPECT_STREQ(store::to_string(EngineKind::kMem), "mem");
  EXPECT_STREQ(store::to_string(EngineKind::kLog), "log");
}

TEST(EnginePlumbing, DocStoreAppliesEngineWithPerCollectionDirectories) {
  TempDir dir("plumb_store");
  store::DocStoreConfig config;
  config.engine = log_config(dir.path);
  store::DocStore db(config);
  EXPECT_EQ(db.engine_config().kind, EngineKind::kLog);

  auto& a = db.collection("alpha");
  auto& b = db.collection("beta");
  EXPECT_STREQ(a.engine_name(), "log");
  EXPECT_STREQ(b.engine_name(), "log");
  a.insert_one(doc_for(1));
  b.insert_one(doc_for(2));
  // The store root is shared; each collection owns a subdirectory.
  EXPECT_TRUE(fs::exists(dir.path + "/alpha/engine.meta"));
  EXPECT_TRUE(fs::exists(dir.path + "/beta/engine.meta"));

  // A per-collection override beats the store default.
  StorageEngineConfig mem_engine;
  EXPECT_STREQ(db.collection("scratch", 0, &mem_engine).engine_name(), "mem");
  // Re-getting with a different engine returns the existing collection.
  EXPECT_STREQ(db.collection("alpha", 0, &mem_engine).engine_name(), "log");
}

TEST(EnginePlumbing, FairDSStorageConfigReachesSampleCollection) {
  TempDir dir("plumb_fairds");
  store::DocStore db;
  fairds::FairDSConfig config;
  config.storage = log_config(dir.path + "/samples");
  fairds::FairDS ds(config, db);
  EXPECT_STREQ(ds.storage_engine(), "log");
  EXPECT_TRUE(fs::exists(dir.path + "/samples/engine.meta"));

  service::DataService service({.workers = 1});
  service::StreamConfig stream;
  stream.storage_engine = "log";
  // A matching declaration passes.
  EXPECT_TRUE(service.add_stream(service::kDefaultStreamName, ds, stream));
}

TEST(EnginePlumbingDeathTest, DataServiceRejectsEngineMismatch) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  store::DocStore db;
  fairds::FairDS ds(fairds::FairDSConfig{}, db);  // mem-backed samples
  service::DataService service({.workers = 1});
  service::StreamConfig stream;
  stream.storage_engine = "log";
  EXPECT_DEATH(
      (void)service.add_stream(service::kDefaultStreamName, ds, stream),
      "storage_engine");
}

TEST(EnginePlumbingDeathTest, LogDirectoryPinsShardCount) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  TempDir dir("reshard");
  { Collection col("samples", nullptr, 2, log_config(dir.path)); }
  EXPECT_DEATH(Collection("samples", nullptr, 4, log_config(dir.path)),
               "resharding");
}

}  // namespace
}  // namespace fairdms
