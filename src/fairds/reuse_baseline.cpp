#include "fairds/reuse_baseline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "fairds/field_codec.hpp"
#include "util/check.hpp"

namespace fairdms::fairds {

namespace {

std::size_t scan_label_width(const store::Collection& samples) {
  std::size_t width = 0;
  samples.scan([&](store::DocId, const store::Value& doc) {
    if (width == 0) {
      width = decode_floats(doc.at("y").as_binary()).size();
    }
  });
  FAIRDMS_CHECK(width > 0, "FairDS: no stored samples to infer label width");
  return width;
}

}  // namespace

nn::Batchset legacy_lookup_or_label(
    const FairDS& ds, store::DocStore& db, const tensor::Tensor& xs,
    double threshold,
    const std::function<tensor::Tensor(const tensor::Tensor&)>&
        fallback_labeler,
    ReuseStats* stats) {
  using tensor::Tensor;
  const auto snap = ds.snapshot();
  FAIRDMS_CHECK(snap != nullptr, "legacy_lookup_or_label before train_system");
  const FairDSConfig& config = ds.config();
  store::Collection& samples = db.collection(config.collection);
  const std::size_t n = xs.dim(0);
  const std::size_t pixels = config.image_size * config.image_size;
  const Tensor embeddings = snap->embed(xs);
  const auto assignments = snap->clusters().assign_batch(embeddings);

  // Two-level search: cluster members first, then nearest-by-embedding
  // within the cluster — one find_eq and one find_by_id *per member*.
  std::vector<std::size_t> fallback_rows;
  nn::Batchset out;
  out.xs = xs;
  out.ys = Tensor({n, scan_label_width(samples)});
  const std::size_t label_w = out.ys.dim(1);

  for (std::size_t i = 0; i < n; ++i) {
    const auto members = samples.find_eq(
        "cluster", store::Value(static_cast<std::int64_t>(assignments[i])));
    double best = std::numeric_limits<double>::infinity();
    store::DocId best_id = 0;
    std::vector<float> best_x;
    std::vector<float> best_y;
    const float* e = embeddings.data() + i * config.embedding_dim;
    for (store::DocId id : members) {
      const auto doc = samples.find_by_id(id);
      if (!doc.has_value()) continue;
      const auto emb = decode_floats(doc->at("embedding").as_binary());
      double d = 0.0;
      for (std::size_t j = 0; j < emb.size(); ++j) {
        const double diff = static_cast<double>(e[j]) - emb[j];
        d += diff * diff;
      }
      d = std::sqrt(d);
      if (d < best) {
        best = d;
        best_id = id;
        best_x = decode_floats(doc->at("x").as_binary());
        best_y = decode_floats(doc->at("y").as_binary());
      }
    }
    if (best_id != 0 && best < threshold) {
      FAIRDMS_CHECK(best_y.size() == label_w, "stored label width mismatch");
      FAIRDMS_CHECK(best_x.size() == pixels, "stored image size mismatch");
      std::copy(best_x.begin(), best_x.end(), out.xs.data() + i * pixels);
      std::copy(best_y.begin(), best_y.end(), out.ys.data() + i * label_w);
      if (stats != nullptr) ++stats->reused;
    } else {
      fallback_rows.push_back(i);
    }
  }

  if (!fallback_rows.empty()) {
    Tensor pending({fallback_rows.size(), 1, config.image_size,
                    config.image_size});
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(xs.data() + fallback_rows[j] * pixels, pixels,
                  pending.data() + j * pixels);
    }
    const Tensor computed = fallback_labeler(pending);
    FAIRDMS_CHECK(computed.rank() == 2 &&
                      computed.dim(0) == fallback_rows.size() &&
                      computed.dim(1) == label_w,
                  "fallback labeler returned wrong shape");
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(computed.data() + j * label_w, label_w,
                  out.ys.data() + fallback_rows[j] * label_w);
    }
    if (stats != nullptr) stats->computed += fallback_rows.size();
  }
  return out;
}

}  // namespace fairdms::fairds
