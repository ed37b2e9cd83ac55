#include "trace.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "fairds/field_codec.hpp"
#include "labeling/voigt_fit.hpp"
#include "net/wire.hpp"

namespace perfbench {

std::string Decomposition::dominant() const {
  const std::pair<const char*, double> stages[] = {
      {"fairds.embed", embed_s},        {"cluster.assign", assign_s},
      {"reuse_index.nearest", nearest_s}, {"store.find_many", find_many_s},
      {"labeling", labeler_s}};
  const auto* best = &stages[0];
  for (const auto& s : stages) {
    if (s.second > best->second) best = &s;
  }
  return best->first;
}

Decomposition decompose(World& world, const Inputs& inputs, double threshold,
                        std::size_t sample, Trace& trace) {
  Decomposition d;
  const auto snap = world.service->snapshot(kStream);
  const store::Collection& samples =
      world.db->collection(world.ds->config().collection);
  const auto labeler = [](const tensor::Tensor& xs) {
    return labeling::label_patches(xs);
  };
  const std::size_t pixels = kPatch * kPatch;
  for (std::size_t s = 0; s < sample; ++s) {
    const tensor::Tensor& xs = inputs.label_pools[s % inputs.label_pools.size()];
    const std::uint64_t rid = s + 1;
    ++d.requests;
    const double whole_before = d.whole_s;
    const double stages_before = d.stage_sum();

    // The root encloses the whole call and every re-run stage after it.
    const std::int64_t root =
        trace.add("label.decomposed", trace.now(), 0.0, -1, rid);
    const auto stage = [&](const char* name, double* sum, auto&& fn) {
      const double a = trace.now();
      auto result = fn();
      const double b = trace.now();
      trace.add(name, a, b, root, rid);
      *sum += b - a;
      return result;
    };
    fairds::ReuseStats reuse;
    const nn::Batchset batch = stage("lookup_or_label", &d.whole_s, [&] {
      return snap->lookup_or_label(xs, threshold, labeler, &reuse);
    });
    const tensor::Tensor emb =
        stage("fairds.embed", &d.embed_s, [&] { return snap->embed(xs); });
    const auto clusters = stage("cluster.assign", &d.assign_s, [&] {
      return snap->clusters().assign_batch(emb);
    });
    const auto neighbors = stage("reuse_index.nearest", &d.nearest_s, [&] {
      return snap->reuse_index().nearest_batch({emb.data(), emb.numel()},
                                               clusters);
    });
    // Same split as lookup_or_label: unique winning documents in one
    // projected read, the rest to the labeler.
    std::vector<store::DocId> unique_ids;
    std::unordered_map<store::DocId, bool> seen;
    std::vector<std::size_t> fallback;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const auto& nb = neighbors[i];
      if (nb.found() && std::sqrt(nb.dist2) < threshold) {
        if (seen.emplace(nb.id, true).second) unique_ids.push_back(nb.id);
      } else {
        fallback.push_back(i);
      }
    }
    if (!unique_ids.empty()) {
      const auto docs = stage("store.find_many", &d.find_many_s, [&] {
        return samples.find_many(unique_ids, fairds::kXYFields);
      });
      d.find_many_docs += docs.size();
    }
    if (!fallback.empty()) {
      tensor::Tensor pending({fallback.size(), 1, kPatch, kPatch});
      for (std::size_t j = 0; j < fallback.size(); ++j) {
        std::copy_n(xs.data() + fallback[j] * pixels, pixels,
                    pending.data() + j * pixels);
      }
      stage("labeling", &d.labeler_s, [&] { return labeler(pending); });
      d.labeled += fallback.size();
    }
    d.stage_ratio.push_back((d.stage_sum() - stages_before) /
                            (d.whole_s - whole_before));

    // Wire codec on this request's frames.
    const service::LabelRequest req{xs, threshold, nullptr, kStream};
    service::LabelResponse resp;
    resp.batch = batch;
    resp.reuse = reuse;
    resp.snapshot_version = snap->version();
    double t0 = trace.now();
    const net::Bytes req_frame = net::encode_frame(
        net::Op::kLabel, service::ServeStatus::kOk, rid,
        net::encode_label_request(req));
    const net::Bytes rep_frame = net::encode_frame(
        net::Op::kLabel, service::ServeStatus::kOk, rid,
        net::encode_label_response(resp));
    double t1 = trace.now();
    trace.add("net.encode", t0, t1, root, rid);
    d.encode_s += t1 - t0;
    d.request_bytes += static_cast<double>(req_frame.size());
    d.reply_bytes += static_cast<double>(rep_frame.size());

    t0 = trace.now();
    const auto req_header = net::decode_header(req_frame);
    const auto rep_header = net::decode_header(rep_frame);
    service::LabelRequest req_back;
    service::LabelResponse resp_back;
    const bool ok =
        req_header && rep_header &&
        net::decode_label_request(
            std::span(req_frame).subspan(net::kHeaderSize), &req_back) &&
        net::decode_label_response(
            std::span(rep_frame).subspan(net::kHeaderSize), &resp_back);
    t1 = trace.now();
    trace.add("net.decode", t0, t1, root, rid);
    d.decode_s += t1 - t0;
    d.codec_ok = d.codec_ok && ok &&
                 resp_back.batch.ys.numel() == batch.ys.numel();
    trace.finish(root, trace.now());
  }
  return d;
}

double span_overhead_us() {
  constexpr std::size_t kSpans = 20000;
  Trace probe(true);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    const double t = probe.now();
    probe.add("probe", t, probe.now(), -1, i);
  }
  return since(start) * 1e6 / static_cast<double>(kSpans);
}

}  // namespace perfbench
