// Snapshot fault tolerance: persist::try_load_store must turn every
// truncated or corrupted snapshot byte stream into a structured
// PersistResult error (never an abort, never an unbounded allocation, and
// never a partially-mutated target collection), and persist::try_save_store
// must leave a loadable directory when the writing process is SIGKILLed at
// any point mid-save (tmp + fsync + rename per file, manifest last).
//
// The fault-injection tests fork() and kill the child, so they are declared
// first and keep collections small enough (< the 512-item fan-out
// threshold) that neither parent nor child ever starts thread-pool workers
// before a fork.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "store/docstore.hpp"
#include "store/persist.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

namespace fs = std::filesystem;

using store::Binary;
using store::DocId;
using store::DocStore;
using store::Object;
using store::Value;

struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(::testing::TempDir() + "fairdms_persist_fault_" + tag + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Value sample_doc(util::Rng& rng) {
  Object doc;
  doc["cluster"] = Value(static_cast<std::int64_t>(rng.uniform_index(8)));
  doc["tag"] = Value("t" + std::to_string(rng.uniform_index(100)));
  Binary blob(rng.uniform_index(40));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  doc["blob"] = Value(std::move(blob));
  return Value(std::move(doc));
}

/// Populates `db` with a deterministic two-collection store (seed selects
/// the content so crash tests can distinguish snapshot generations).
void populate(DocStore& db, std::uint64_t seed, std::size_t docs) {
  util::Rng rng(seed);
  auto& samples = db.collection("samples");
  samples.create_index("cluster");
  for (std::size_t i = 0; i < docs; ++i) samples.insert_one(sample_doc(rng));
  auto& zoo = db.collection("zoo");
  for (std::size_t i = 0; i < docs / 4; ++i) zoo.insert_one(sample_doc(rng));
}

Binary read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Binary(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Binary& bytes,
                std::size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(count));
}

// --- mid-save SIGKILL fault injection (declared first: forks) ---------------

TEST(PersistFault, KilledSaverNeverLeavesAnUnloadableDirectory) {
  TempDir dir("killsave");
  const std::string snap = dir.path + "/snap";

  // Generation 1 written safely: the directory starts loadable.
  DocStore gen1;
  populate(gen1, 1, 60);
  ASSERT_TRUE(store::try_save_store(gen1, snap).ok());

  // Repeatedly fork a child that overwrites the snapshot with generation 2
  // and kill it after a variable head start. Whatever the kill lands on —
  // tmp write, fsync, rename, or in between files — the directory must
  // load as a complete generation-1 or generation-2 store, per file.
  for (int round = 0; round < 12; ++round) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      DocStore gen2;
      populate(gen2, 2, 80);
      for (;;) {
        if (!store::try_save_store(gen2, snap).ok()) ::_exit(3);
      }
    }
    // A spread of delays lands the SIGKILL at different save phases.
    ::usleep(static_cast<useconds_t>(200 * round * round));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    DocStore loaded;
    const auto r = store::try_load_store(loaded, snap);
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.error;
    ASSERT_TRUE(loaded.has_collection("samples"));
    ASSERT_TRUE(loaded.has_collection("zoo"));
    // Atomicity is per file: each collection is a complete generation-1
    // or generation-2 snapshot, but a kill between the two .col renames
    // legitimately mixes generations across collections.
    auto& samples = loaded.collection("samples");
    const std::size_t n = samples.size();
    ASSERT_TRUE(n == 60 || n == 80)
        << "round " << round << ": torn samples snapshot, " << n << " docs";
    EXPECT_EQ(samples.index_fields(), std::vector<std::string>{"cluster"});
    const std::size_t z = loaded.collection("zoo").size();
    ASSERT_TRUE(z == 15 || z == 20)
        << "round " << round << ": torn zoo snapshot, " << z << " docs";
  }
}

// --- corruption sweeps ------------------------------------------------------

class PersistCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("sweep");
    snap_ = dir_->path + "/snap";
    populate(source_, 7, 24);
    ASSERT_TRUE(store::try_save_store(source_, snap_).ok());
    manifest_ = read_file(snap_ + "/manifest.bin");
    ASSERT_FALSE(manifest_.empty());
    for (const auto& entry : fs::directory_iterator(snap_)) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 4 && name.substr(name.size() - 4) == ".col") {
        col_names_.push_back(name);
        col_bytes_.push_back(read_file(entry.path().string()));
        ASSERT_FALSE(col_bytes_.back().empty());
      }
    }
    ASSERT_EQ(col_names_.size(), 2u);
  }

  /// try_load into a fresh store; returns the result (never aborts).
  store::PersistResult load() {
    DocStore target;
    return store::try_load_store(target, snap_);
  }

  DocStore source_;
  std::unique_ptr<TempDir> dir_;
  std::string snap_;
  Binary manifest_;
  std::vector<std::string> col_names_;
  std::vector<Binary> col_bytes_;
};

TEST_F(PersistCorruption, EveryManifestTruncationIsAStructuredError) {
  const std::string path = snap_ + "/manifest.bin";
  for (std::size_t cut = 0; cut < manifest_.size(); ++cut) {
    write_file(path, manifest_, cut);
    const auto r = load();
    EXPECT_FALSE(r.ok()) << "cut at byte " << cut;
    EXPECT_NE(r.error.find("manifest"), std::string::npos)
        << "cut " << cut << ": " << r.error;
  }
  write_file(path, manifest_, manifest_.size());
  EXPECT_TRUE(load().ok());
}

TEST_F(PersistCorruption, EveryCollectionTruncationIsAStructuredError) {
  for (std::size_t c = 0; c < col_names_.size(); ++c) {
    const std::string path = snap_ + "/" + col_names_[c];
    const Binary& original = col_bytes_[c];
    for (std::size_t cut = 0; cut < original.size(); ++cut) {
      write_file(path, original, cut);
      const auto r = load();
      EXPECT_FALSE(r.ok()) << col_names_[c] << " cut at byte " << cut;
      EXPECT_NE(r.error.find(col_names_[c]), std::string::npos)
          << "cut " << cut << ": " << r.error;
    }
    write_file(path, original, original.size());
  }
  EXPECT_TRUE(load().ok());
}

TEST_F(PersistCorruption, ByteFlipsNeverCrashAndFailuresNameTheFile) {
  // Flip each byte of the first collection file through a few patterns.
  // Some flips are semantically invisible (a blob byte); the invariant is
  // "no crash, no unbounded allocation, and any reported error names the
  // file", not that every flip is detected.
  const std::string path = snap_ + "/" + col_names_[0];
  const Binary& original = col_bytes_[0];
  Binary mutated = original;
  for (std::size_t i = 0; i < original.size(); ++i) {
    for (const std::uint8_t pattern : {0xFFu, 0x01u, 0x80u}) {
      mutated[i] = original[i] ^ pattern;
      write_file(path, mutated, mutated.size());
      const auto r = load();
      if (!r.ok()) {
        EXPECT_NE(r.error.find(col_names_[0]), std::string::npos)
            << "byte " << i << ": " << r.error;
      }
    }
    mutated[i] = original[i];
  }
}

TEST_F(PersistCorruption, MissingCollectionFileIsAStructuredError) {
  fs::remove(snap_ + "/" + col_names_[0]);
  const auto r = load();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find(col_names_[0]), std::string::npos) << r.error;
}

TEST_F(PersistCorruption, FailedLoadLeavesTargetCollectionEmpty) {
  // Truncate mid-documents: validation must reject the file before any
  // document lands in the target collection.
  const std::string path = snap_ + "/" + col_names_[0];
  write_file(path, col_bytes_[0], col_bytes_[0].size() - 5);
  DocStore target;
  const auto r = store::try_load_store(target, snap_);
  ASSERT_FALSE(r.ok());
  const std::string col_name =
      col_names_[0].substr(0, col_names_[0].size() - 4);
  if (target.has_collection(col_name)) {
    EXPECT_EQ(target.collection(col_name).size(), 0u);
  }
}

// --- structured-error surface ----------------------------------------------

TEST(PersistErrors, LoadFromMissingDirectoryReportsManifest) {
  DocStore db;
  const auto r =
      store::try_load_store(db, "/nonexistent/fairdms_fault_dir");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("manifest"), std::string::npos) << r.error;
}

TEST(PersistErrors, LoadIntoNonEmptyCollectionReportsError) {
  TempDir dir("nonempty");
  DocStore src;
  populate(src, 3, 12);
  ASSERT_TRUE(store::try_save_store(src, dir.path + "/snap").ok());

  DocStore target;
  util::Rng rng(4);
  target.collection("samples").insert_one(sample_doc(rng));
  const auto r = store::try_load_store(target, dir.path + "/snap");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("non-empty"), std::string::npos) << r.error;
}

TEST(PersistErrors, SnapshotCollectionsListsManifestEntries) {
  TempDir dir("names");
  DocStore src;
  populate(src, 5, 12);
  ASSERT_TRUE(store::try_save_store(src, dir.path + "/snap").ok());
  std::vector<std::string> names;
  const auto r = store::try_snapshot_collections(dir.path + "/snap", names);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(names, (std::vector<std::string>{"samples", "zoo"}));

  names.clear();
  const auto miss =
      store::try_snapshot_collections("/nonexistent/fairdms_fault_dir",
                                      names);
  EXPECT_FALSE(miss.ok());
  EXPECT_TRUE(names.empty());
}

TEST(PersistErrors, SaveToUnwritableDirectoryReportsError) {
  const auto r = store::try_save_store(DocStore{}, "/proc/fairdms_no_such");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
}

TEST(PersistErrors, RoundTripSurvivesSweepHarness) {
  // Sanity-pin the harness itself: an untouched snapshot round-trips.
  TempDir dir("roundtrip");
  DocStore src;
  populate(src, 9, 40);
  ASSERT_TRUE(store::try_save_store(src, dir.path + "/snap").ok());
  DocStore loaded;
  const auto r = store::try_load_store(loaded, dir.path + "/snap");
  ASSERT_TRUE(r.ok()) << r.error;
  auto& a = src.collection("samples");
  auto& b = loaded.collection("samples");
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.approx_bytes(), b.approx_bytes());
  EXPECT_EQ(a.all_ids(), b.all_ids());
  EXPECT_EQ(a.next_id(), b.next_id());
  EXPECT_EQ(a.index_fields(), b.index_fields());
  for (const DocId id : a.all_ids()) {
    const auto da = a.find_by_id(id);
    const auto db_doc = b.find_by_id(id);
    ASSERT_TRUE(da.has_value() && db_doc.has_value());
    EXPECT_EQ(da->compare(*db_doc), 0) << "id " << id;
  }
}

}  // namespace
}  // namespace fairdms
