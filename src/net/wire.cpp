#include "net/wire.hpp"

namespace fairdms::net {

namespace {

/// Hard ceilings the decoder enforces before allocating anything. A frame
/// that passed the transport-level payload cap can still declare absurd
/// shapes; these keep a malformed tensor from costing more than the bytes
/// the peer actually sent.
constexpr std::size_t kMaxTensorRank = 8;

/// Number of fixed-width fields in a stats stream block (after its name).
constexpr std::size_t kStreamBlockFields = 24;

void encode_stream_stats(util::ByteWriter& w,
                         const service::StreamStats& s) {
  write_string(w, s.stream);
  w.u64(s.label_requests);
  w.u64(s.lookup_requests);
  w.u64(s.recommend_requests);
  w.u64(s.label_answered);
  w.u64(s.lookup_answered);
  w.u64(s.recommend_answered);
  w.u64(s.label_shed);
  w.u64(s.lookup_shed);
  w.u64(s.recommend_shed);
  w.u64(s.queue_depth);
  w.u64(s.max_queue_depth);
  w.u64(s.max_pending);
  w.u64(s.samples_labeled);
  w.u64(s.labels_reused);
  w.u64(s.labels_computed);
  w.f64(s.busy_seconds);
  w.f64(s.max_request_seconds);
  w.u64(s.retrain_checks);
  w.u64(s.retrains);
  w.u64(s.retrains_coalesced);
  w.u64(s.retrains_capped);
  w.u64(s.policy_cooldown_skips);
  w.u64(s.snapshot_version);
  w.u64(s.store_shards);
}

[[nodiscard]] bool decode_stream_stats(util::ByteReader& r,
                                       service::StreamStats* s) {
  return read_string(r, &s->stream) && r.u64(&s->label_requests) &&
         r.u64(&s->lookup_requests) && r.u64(&s->recommend_requests) &&
         r.u64(&s->label_answered) && r.u64(&s->lookup_answered) &&
         r.u64(&s->recommend_answered) && r.u64(&s->label_shed) &&
         r.u64(&s->lookup_shed) && r.u64(&s->recommend_shed) &&
         r.u64(&s->queue_depth) && r.u64(&s->max_queue_depth) &&
         r.u64(&s->max_pending) && r.u64(&s->samples_labeled) &&
         r.u64(&s->labels_reused) && r.u64(&s->labels_computed) &&
         r.f64(&s->busy_seconds) && r.f64(&s->max_request_seconds) &&
         r.u64(&s->retrain_checks) && r.u64(&s->retrains) &&
         r.u64(&s->retrains_coalesced) && r.u64(&s->retrains_capped) &&
         r.u64(&s->policy_cooldown_skips) && r.u64(&s->snapshot_version) &&
         r.u64(&s->store_shards);
}

}  // namespace

// --- wire-only encodings ---------------------------------------------------

void write_string(util::ByteWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s);
}

bool read_string(util::ByteReader& r, std::string* s, std::size_t max_len) {
  std::uint32_t len = 0;
  return r.u32(&len) && len <= max_len && r.bytes(len, s);
}

void write_tensor(util::ByteWriter& w, const tensor::Tensor& t) {
  w.u32(static_cast<std::uint32_t>(t.rank()));
  for (const std::size_t d : t.shape()) w.u64(d);
  w.f32s(t.flat());
}

bool read_tensor(util::ByteReader& r, tensor::Tensor* t) {
  std::uint32_t rank = 0;
  if (!r.u32(&rank) || rank > kMaxTensorRank) return false;
  std::vector<std::size_t> shape(rank);
  std::size_t numel = 1;
  for (std::size_t& dim : shape) {
    std::uint64_t d = 0;
    if (!r.u64(&d)) return false;
    // Overflow-checked element count; a dim can never exceed what the
    // remaining payload could possibly back, so the product stays exact.
    if (d != 0 && numel > r.remaining() / d) return false;
    dim = static_cast<std::size_t>(d);
    numel *= dim;
  }
  if (rank == 0) {
    *t = tensor::Tensor();
    return true;
  }
  // Checked before the allocation, so a short payload costs nothing.
  if (numel > r.remaining() / sizeof(float)) return false;
  std::vector<float> values(numel);
  if (!r.f32s(values)) return false;
  *t = tensor::Tensor::from_vector(std::move(shape), std::move(values));
  return true;
}

void write_pdf(util::ByteWriter& w, const std::vector<double>& p) {
  w.u32(static_cast<std::uint32_t>(p.size()));
  w.f64s(p);
}

bool read_pdf(util::ByteReader& r, std::vector<double>* p,
              std::size_t max_len) {
  std::uint32_t len = 0;
  if (!r.u32(&len) || len > max_len || len > r.remaining() / 8) return false;
  p->resize(len);
  return r.f64s(*p);
}

// --- frames -----------------------------------------------------------------

Bytes encode_frame(Op op, service::ServeStatus status,
                   std::uint64_t correlation_id, const Bytes& payload) {
  Bytes out;
  out.reserve(kHeaderSize + payload.size());
  util::ByteWriter w(out);
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(correlation_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return out;
}

std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  util::ByteReader r(bytes.first(kHeaderSize));
  std::uint32_t magic;
  FrameHeader h;
  std::uint8_t status;
  if (!r.u32(&magic) || !r.u16(&h.version) || !r.u8(&h.op) ||
      !r.u8(&status) || !r.u64(&h.correlation_id) || !r.u32(&h.payload_len)) {
    return std::nullopt;
  }
  if (magic != kMagic) return std::nullopt;
  if (status > static_cast<std::uint8_t>(service::ServeStatus::kUnknownStream)) {
    return std::nullopt;
  }
  h.status = static_cast<service::ServeStatus>(status);
  return h;
}

// --- DTO payload codecs -----------------------------------------------------

Bytes encode_hello_ack(const HelloAck& ack) {
  Bytes out;
  util::ByteWriter w(out);
  w.u16(ack.version);
  w.u32(ack.max_payload);
  return out;
}

bool decode_hello_ack(std::span<const std::uint8_t> payload, HelloAck* ack) {
  util::ByteReader r(payload);
  return r.u16(&ack->version) && r.u32(&ack->max_payload) && r.done();
}

Bytes encode_label_request(const service::LabelRequest& req) {
  Bytes out;
  util::ByteWriter w(out);
  write_tensor(w, req.xs);
  w.f64(req.threshold);
  write_string(w, req.stream);
  return out;
}

bool decode_label_request(std::span<const std::uint8_t> payload,
                          service::LabelRequest* req) {
  util::ByteReader r(payload);
  return read_tensor(r, &req->xs) && r.f64(&req->threshold) &&
         read_string(r, &req->stream) && r.done();
}

Bytes encode_label_response(const service::LabelResponse& resp) {
  Bytes out;
  util::ByteWriter w(out);
  write_tensor(w, resp.batch.xs);
  write_tensor(w, resp.batch.ys);
  w.u64(resp.reuse.reused);
  w.u64(resp.reuse.computed);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return out;
}

bool decode_label_response(std::span<const std::uint8_t> payload,
                           service::LabelResponse* resp) {
  util::ByteReader r(payload);
  std::uint64_t reused, computed;
  if (!(read_tensor(r, &resp->batch.xs) && read_tensor(r, &resp->batch.ys) &&
        r.u64(&reused) && r.u64(&computed) && r.u64(&resp->snapshot_version) &&
        r.f64(&resp->seconds) && r.done())) {
    return false;
  }
  resp->reuse.reused = static_cast<std::size_t>(reused);
  resp->reuse.computed = static_cast<std::size_t>(computed);
  return true;
}

Bytes encode_lookup_request(const service::LookupRequest& req) {
  Bytes out;
  util::ByteWriter w(out);
  write_tensor(w, req.xs);
  w.u64(req.seed);
  write_string(w, req.stream);
  return out;
}

bool decode_lookup_request(std::span<const std::uint8_t> payload,
                           service::LookupRequest* req) {
  util::ByteReader r(payload);
  return read_tensor(r, &req->xs) && r.u64(&req->seed) && read_string(r, &req->stream) &&
         r.done();
}

Bytes encode_lookup_response(const service::LookupResponse& resp) {
  Bytes out;
  util::ByteWriter w(out);
  write_tensor(w, resp.batch.xs);
  write_tensor(w, resp.batch.ys);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return out;
}

bool decode_lookup_response(std::span<const std::uint8_t> payload,
                            service::LookupResponse* resp) {
  util::ByteReader r(payload);
  return read_tensor(r, &resp->batch.xs) && read_tensor(r, &resp->batch.ys) &&
         r.u64(&resp->snapshot_version) && r.f64(&resp->seconds) && r.done();
}

Bytes encode_recommend_request(const service::RecommendRequest& req) {
  Bytes out;
  util::ByteWriter w(out);
  write_string(w, req.architecture);
  write_tensor(w, req.xs);
  write_string(w, req.stream);
  return out;
}

bool decode_recommend_request(std::span<const std::uint8_t> payload,
                              service::RecommendRequest* req) {
  util::ByteReader r(payload);
  return read_string(r, &req->architecture) && read_tensor(r, &req->xs) &&
         read_string(r, &req->stream) && r.done();
}

Bytes encode_recommend_response(const service::RecommendResponse& resp) {
  Bytes out;
  util::ByteWriter w(out);
  w.u8(resp.pick.has_value() ? 1 : 0);
  w.u64(resp.pick ? resp.pick->model_id : 0);
  w.f64(resp.pick ? resp.pick->distance : 0.0);
  write_pdf(w, resp.pdf);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return out;
}

bool decode_recommend_response(std::span<const std::uint8_t> payload,
                               service::RecommendResponse* resp) {
  util::ByteReader r(payload);
  std::uint8_t has_pick;
  std::uint64_t model_id;
  double distance;
  if (!(r.u8(&has_pick) && r.u64(&model_id) && r.f64(&distance) &&
        read_pdf(r, &resp->pdf) && r.u64(&resp->snapshot_version) &&
        r.f64(&resp->seconds) && r.done())) {
    return false;
  }
  if (has_pick > 1) return false;
  if (has_pick == 1) {
    resp->pick = fairms::Ranked{static_cast<store::DocId>(model_id), distance};
  } else {
    resp->pick = std::nullopt;
  }
  return true;
}

Bytes encode_stats_response(const service::ServiceStats& s) {
  Bytes out;
  util::ByteWriter w(out);
  w.u64(s.queue_depth);
  w.u64(s.max_queue_depth);
  w.u64(s.max_pending);
  w.u64(s.unknown_stream_requests);
  w.u64(s.model_cache_hits);
  w.u64(s.model_cache_misses);
  w.u64(s.model_cache_evictions);
  w.u64(s.model_cache_bytes);
  w.u32(static_cast<std::uint32_t>(s.streams.size()));
  for (const service::StreamStats& stream : s.streams) {
    encode_stream_stats(w, stream);
  }
  return out;
}

bool decode_stats_response(std::span<const std::uint8_t> payload,
                           service::ServiceStats* s) {
  util::ByteReader r(payload);
  std::uint32_t n_streams;
  if (!(r.u64(&s->queue_depth) && r.u64(&s->max_queue_depth) &&
        r.u64(&s->max_pending) && r.u64(&s->unknown_stream_requests) &&
        r.u64(&s->model_cache_hits) && r.u64(&s->model_cache_misses) &&
        r.u64(&s->model_cache_evictions) && r.u64(&s->model_cache_bytes) &&
        r.u32(&n_streams))) {
    return false;
  }
  // Each block is at least a name length plus its fixed fields, so a
  // hostile count can't make the reserve allocate past what the payload
  // backs.
  if (n_streams > r.remaining() / (4 + kStreamBlockFields * 8)) return false;
  s->streams.assign(n_streams, service::StreamStats{});
  for (service::StreamStats& stream : s->streams) {
    if (!decode_stream_stats(r, &stream)) return false;
  }
  return r.done();
}

Bytes encode_retrain_request(const service::RetrainRequest& req) {
  Bytes out;
  util::ByteWriter w(out);
  write_tensor(w, req.xs);
  write_string(w, req.stream);
  return out;
}

bool decode_retrain_request(std::span<const std::uint8_t> payload,
                            service::RetrainRequest* req) {
  util::ByteReader r(payload);
  return read_tensor(r, &req->xs) && read_string(r, &req->stream) && r.done();
}

Bytes encode_retrain_response(bool accepted) {
  Bytes out;
  util::ByteWriter w(out);
  w.u8(accepted ? 1 : 0);
  return out;
}

bool decode_retrain_response(std::span<const std::uint8_t> payload,
                             bool* accepted) {
  util::ByteReader r(payload);
  std::uint8_t v;
  if (!r.u8(&v) || !r.done() || v > 1) return false;
  *accepted = v == 1;
  return true;
}

}  // namespace fairdms::net
