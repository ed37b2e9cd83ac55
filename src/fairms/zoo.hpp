// fairMS model Zoo (paper §II-B, Fig. 4): every trained model is stored with
// the *cluster-PDF of its training dataset* as its index key, so the best
// foundation for fine-tuning can be found without running any inference —
// just a JSD comparison of distributions.
//
// The zoo is a *versioned* registry (the FAIR-models framing of
// arXiv:2207.00611): every record carries a revision assigned from the
// zoo's monotonic counter, bumped by publish / attach_parameters / reindex.
// Revisions key the ModelCache, so repeat foundation loads are served from
// memory — zero RemoteLink traffic — until the record actually changes.
//
// Ranking never reads the store: the zoo publishes an immutable rank index
// (the normalized training PDFs of every weight-bearing record, shelved by
// architecture and PDF width) that the mutators maintain and readers load
// with one pointer copy — the same publish-and-load design as
// fairds::Snapshot.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fairms/model_cache.hpp"
#include "store/docstore.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/published.hpp"

namespace fairdms::fairms {

struct ModelRecord {
  store::DocId id = 0;
  std::uint64_t revision = 0;  ///< bumps on every mutation of this record
  std::string architecture;   ///< model family key (e.g. "braggnn")
  std::string dataset_id;     ///< provenance of the training data
  std::vector<double> train_pdf;  ///< cluster PDF of the training dataset
  std::vector<std::uint8_t> parameters;  ///< nn::save_parameters blob
};

/// One shelf of the rank index: every weight-bearing record of one
/// architecture whose training PDF has `width` bins. Row i is model ids[i]
/// with its *normalized* PDF at pdfs[i * width, (i + 1) * width). Rows are
/// in no particular order; rank sorts by (distance, id).
struct RankShelf {
  std::size_t width = 0;
  std::vector<store::DocId> ids;
  std::vector<double> pdfs;  ///< row-major, ids.size() x width

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {pdfs.data() + i * width, width};
  }
};

/// Thread-safety: every store access maps to one synchronized collection
/// operation, the cache is internally locked, and the rank index is an
/// immutable value published through one guarded pointer, so concurrent
/// publish/fetch/reindex/rank from multiple threads is safe.
///
/// Coherence is per-ModelZoo instance. Mutations through *this* zoo keep its
/// cache (revision floors) and its rank index current. The rank index is
/// built from the store only at construction: a store changed behind the
/// zoo's back (a second writer zoo, a restored snapshot) needs a new
/// ModelZoo before rank sees the change. cache().clear() is enough for
/// fetch_cached. The index lives outside the cache budget: N x (8 + 8 x
/// width) bytes for N rankable models.
class ModelZoo {
 public:
  /// Default parameter-blob cache budget (see ModelCache).
  static constexpr std::size_t kDefaultCacheBytes = 64ull << 20;

  /// Models live in the "model_zoo" collection of `db`, indexed by
  /// architecture. `cache_bytes == 0` disables the cache (every
  /// fetch_cached goes to the store). Construction reads every record's
  /// revision, architecture, training PDF and blob size (never the blob) in
  /// one batched read, to resume the revision counter and build the rank
  /// index.
  explicit ModelZoo(store::DocStore& db,
                    std::size_t cache_bytes = kDefaultCacheBytes);

  /// Publishes a trained model; returns its zoo id. The training PDF must
  /// carry positive finite mass (aborts otherwise — a zero-mass PDF would
  /// poison every later rank). An empty parameter blob is allowed
  /// (metadata-first publish — e.g. registering a model trained elsewhere
  /// before its weights arrive); such records are fetchable but excluded
  /// from rank/recommend until attach_parameters supplies their weights.
  /// The new record is inserted into the cache, so the first foundation
  /// load after a publish is already warm, and, when it has weights, into
  /// the rank index.
  store::DocId publish(const std::string& architecture,
                       const std::string& dataset_id,
                       const std::vector<double>& train_pdf,
                       std::vector<std::uint8_t> parameters);

  /// Stores (or replaces) the parameter blob of an existing record — the
  /// second half of a metadata-first publish. A non-empty blob makes the
  /// record rankable. Returns false (and changes nothing) when `id` is
  /// absent OR `parameters` is empty: attaching an empty blob would demote
  /// a rankable record to weightless, which is never what "attach" means —
  /// there is deliberately no detach operation.
  bool attach_parameters(store::DocId id,
                         std::vector<std::uint8_t> parameters);

  /// Uncached read: always one full store fetch.
  [[nodiscard]] std::optional<ModelRecord> fetch(store::DocId id) const;

  /// Cached read: a hit costs zero store traffic (zero RemoteLink bytes
  /// and requests) — the repeat-foundation-load fast path. A miss fetches,
  /// caches, and returns the record; nullptr when `id` is absent.
  [[nodiscard]] ModelCache::RecordPtr fetch_cached(store::DocId id) const;

  /// All models of one architecture (metadata + parameters) via one index
  /// lookup plus one batched read — a single round trip however many
  /// models the architecture has.
  [[nodiscard]] std::vector<ModelRecord> models_of(
      const std::string& architecture) const;

  /// Replaces the stored training-data distribution of a model (the system
  /// plane re-indexes the zoo after the clustering model is retrained).
  /// Returns false (and changes nothing) when `id` is absent or the PDF is
  /// malformed (empty, negative/non-finite entries, or zero mass) — the
  /// same validation publish applies, so a bad re-index can never poison
  /// later rank/recommend calls. A new width moves the record to the shelf
  /// of that width.
  bool reindex(store::DocId id, const std::vector<double>& train_pdf);

  /// The rank shelf of `architecture` at PDF `width`; nullptr when no
  /// rankable model matches. One pointer copy: no store read, no cache
  /// lookup, no wait on a mutation in progress. A record whose stored PDF
  /// is malformed — possible only in a store restored from before publish
  /// validated mass — is never shelved (it is logged once, when the index
  /// meets it).
  [[nodiscard]] std::shared_ptr<const RankShelf> shelf(
      const std::string& architecture, std::size_t width) const;

  [[nodiscard]] std::size_t size() const;

  /// Monotonic mutation counter: increases on every successful
  /// publish/attach_parameters/reindex (failed mutations may consume a
  /// value — revisions are monotonic, not dense). Survives restarts: on
  /// construction the counter resumes past every stored revision.
  [[nodiscard]] std::uint64_t revision() const {
    return revision_.load(std::memory_order_acquire);
  }

  /// The parameter-blob cache (internally synchronized; mutable through a
  /// const zoo the way any cache is).
  [[nodiscard]] ModelCache& cache() const { return *cache_; }

 private:
  struct ShelfKey {
    std::string architecture;
    std::size_t width = 0;
    auto operator<=>(const ShelfKey&) const = default;
  };
  using RankIndex = std::map<ShelfKey, std::shared_ptr<const RankShelf>>;

  /// Allocates the next revision and raises `id`'s cache floor to it — the
  /// first half of every record mutation. The REQUIRES contract makes the
  /// ordering invariant below compiler-checked: a mutator cannot allocate
  /// a revision outside the mutation critical section, and the lock rank
  /// (kZooMutation < kModelCache, kStoreShard) machine-checks that the
  /// cache invalidate and the store commit both nest inside it.
  std::uint64_t allocate_revision_locked(store::DocId id)
      REQUIRES(mutation_mutex_);

  /// Shelves `id` under `architecture` with normalized PDF `pdf`, replacing
  /// its row wherever it was, and publishes the new index. Copies only the
  /// shelves it touches.
  void place_locked(store::DocId id, const std::string& architecture,
                    std::span<const double> pdf) REQUIRES(mutation_mutex_);

  /// Re-reads an unshelved record from the store and shelves it when it is
  /// rankable now (weights attached, or a malformed PDF replaced).
  void place_from_store_locked(store::DocId id) REQUIRES(mutation_mutex_);

  store::Collection* collection_;
  std::atomic<std::uint64_t> revision_{0};
  /// Orders record mutations: revision allocation, the store commit and the
  /// index swap happen atomically with respect to other mutators, so a
  /// record's stored revision can never fall behind a concurrent mutation's
  /// cache floor (which would silently pin the record uncacheable) and no
  /// mutation loses another's index swap. Reads never take this lock;
  /// mutations are the rare path.
  util::Mutex mutation_mutex_{util::LockRank::kZooMutation};
  std::unique_ptr<ModelCache> cache_;
  /// The published rank index: readers copy it, mutators copy-swap it
  /// under mutation_mutex_.
  util::Published<RankIndex> index_;
  /// Which shelf holds each shelved record — the writers' way to its row.
  std::unordered_map<store::DocId, ShelfKey> shelf_of_
      GUARDED_BY(mutation_mutex_);
};

/// Ranks zoo models by JSD between their training-data PDF and an input
/// dataset's PDF. The paper's Model Manager.
struct Ranked {
  store::DocId model_id = 0;
  double distance = 0.0;  ///< JSD in [0, 1]
};

class ModelManager {
 public:
  /// `distance_threshold`: if even the closest model is farther than this,
  /// recommend() declines and the caller trains from scratch (paper §II-C).
  explicit ModelManager(const ModelZoo& zoo, double distance_threshold = 0.5);

  /// All rankable models of `architecture` whose PDF width matches the
  /// input's, ascending by (distance, id) — the id tie-break makes the
  /// order deterministic for equal distances. Models indexed under a
  /// different clustering (stale PDF width), weightless records, and
  /// malformed stored PDFs are not on the shelf it reads. The input PDF is
  /// normalized once; stored PDFs were normalized when they were shelved,
  /// so a call makes no store read and no cache lookup. A malformed input
  /// PDF (e.g. the all-zero distribution of an empty query batch) yields an
  /// empty ranking (logged) — never an abort: this runs on serving workers.
  [[nodiscard]] std::vector<Ranked> rank(
      const std::string& architecture,
      std::span<const double> query_pdf) const;

  /// Closest model if within threshold; nullopt => train from scratch. A
  /// bound-pruned min-scan over the same shelf in the same (distance, id)
  /// order: a row reaches the JSD kernel only when its jsd_lower_bound does
  /// not exceed the threshold, or once a pick exists, the pick's distance.
  /// A pruned row cannot win or tie, so the pick and its distance bits are
  /// always rank()'s front; rank() itself still scores every row. On
  /// perfbench's 2000-row fleet 2.4–3.0% of rows reach the kernel.
  [[nodiscard]] std::optional<Ranked> recommend(
      const std::string& architecture,
      std::span<const double> query_pdf) const;

  [[nodiscard]] double distance_threshold() const { return threshold_; }
  [[nodiscard]] const ModelZoo& zoo() const { return *zoo_; }

 private:
  const ModelZoo* zoo_;
  double threshold_;
};

}  // namespace fairdms::fairms
