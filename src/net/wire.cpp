#include "net/wire.hpp"

#include <cstring>
#include <limits>

namespace fairdms::net {

namespace {

/// Hard ceilings the decoder enforces before allocating anything. A frame
/// that passed the transport-level payload cap can still declare absurd
/// shapes; these keep a malformed tensor from costing more than the bytes
/// the peer actually sent.
constexpr std::size_t kMaxTensorRank = 8;

void append_le(Bytes& out, std::uint64_t v, std::size_t n_bytes) {
  for (std::size_t i = 0; i < n_bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Number of fixed-width fields in a stats stream block (after its name).
constexpr std::size_t kStreamBlockFields = 24;

void encode_stream_stats(WireWriter& w, const service::StreamStats& s) {
  w.str(s.stream);
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

[[nodiscard]] bool decode_stream_stats(WireReader& r,
                                       service::StreamStats* s) {
  return r.str(&s->stream) && r.u64(&s->label_requests) &&
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

// --- WireWriter -------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) { append_le(out_, v, 2); }
void WireWriter::u32(std::uint32_t v) { append_le(out_, v, 4); }
void WireWriter::u64(std::uint64_t v) { append_le(out_, v, 8); }

void WireWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void WireWriter::tensor(const tensor::Tensor& t) {
  u32(static_cast<std::uint32_t>(t.rank()));
  for (const std::size_t d : t.shape()) u64(d);
  for (const float v : t.flat()) f32(v);
}

void WireWriter::pdf(const std::vector<double>& p) {
  u32(static_cast<std::uint32_t>(p.size()));
  for (const double v : p) f64(v);
}

// --- WireReader -------------------------------------------------------------

bool WireReader::u8(std::uint8_t* v) {
  if (remaining() < 1) return false;
  *v = data_[cursor_++];
  return true;
}

bool WireReader::u16(std::uint16_t* v) {
  if (remaining() < 2) return false;
  *v = static_cast<std::uint16_t>(data_[cursor_] |
                                  (data_[cursor_ + 1] << 8));
  cursor_ += 2;
  return true;
}

bool WireReader::u32(std::uint32_t* v) {
  if (remaining() < 4) return false;
  std::uint32_t out = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(data_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 4;
  *v = out;
  return true;
}

bool WireReader::u64(std::uint64_t* v) {
  if (remaining() < 8) return false;
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(data_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 8;
  *v = out;
  return true;
}

bool WireReader::f32(float* v) {
  std::uint32_t bits;
  if (!u32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::f64(double* v) {
  std::uint64_t bits;
  if (!u64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::str(std::string* s, std::size_t max_len) {
  std::uint32_t len;
  if (!u32(&len)) return false;
  if (len > max_len || len > remaining()) return false;
  s->assign(reinterpret_cast<const char*>(data_.data() + cursor_), len);
  cursor_ += len;
  return true;
}

bool WireReader::tensor(tensor::Tensor* t) {
  std::uint32_t rank;
  if (!u32(&rank)) return false;
  if (rank > kMaxTensorRank) return false;
  std::vector<std::size_t> shape(rank);
  std::size_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    std::uint64_t d;
    if (!u64(&d)) return false;
    // Overflow-checked element count; a dim can never exceed what the
    // remaining payload could possibly back, so the product stays exact.
    if (d != 0 && numel > remaining() / d) return false;
    shape[i] = static_cast<std::size_t>(d);
    numel *= shape[i];
  }
  if (rank == 0) numel = 0;
  if (remaining() < numel * sizeof(float)) return false;
  std::vector<float> values(numel);
  for (std::size_t i = 0; i < numel; ++i) {
    (void)f32(&values[i]);  // bounds pre-checked above
  }
  *t = rank == 0 ? tensor::Tensor()
                 : tensor::Tensor::from_vector(std::move(shape),
                                               std::move(values));
  return true;
}

bool WireReader::pdf(std::vector<double>* p, std::size_t max_len) {
  std::uint32_t len;
  if (!u32(&len)) return false;
  if (len > max_len || remaining() < std::size_t{len} * 8) return false;
  p->resize(len);
  for (std::uint32_t i = 0; i < len; ++i) (void)f64(&(*p)[i]);
  return true;
}

// --- frames -----------------------------------------------------------------

Bytes encode_frame(Op op, service::ServeStatus status,
                   std::uint64_t correlation_id, const Bytes& payload) {
  WireWriter w;
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(correlation_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  Bytes out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  WireReader r(bytes.subspan(0, kHeaderSize));
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
  WireWriter w;
  w.u16(ack.version);
  w.u32(ack.max_payload);
  return w.take();
}

bool decode_hello_ack(std::span<const std::uint8_t> payload, HelloAck* ack) {
  WireReader r(payload);
  return r.u16(&ack->version) && r.u32(&ack->max_payload) && r.done();
}

Bytes encode_label_request(const service::LabelRequest& req) {
  WireWriter w;
  w.tensor(req.xs);
  w.f64(req.threshold);
  w.str(req.stream);
  return w.take();
}

bool decode_label_request(std::span<const std::uint8_t> payload,
                          service::LabelRequest* req) {
  WireReader r(payload);
  return r.tensor(&req->xs) && r.f64(&req->threshold) &&
         r.str(&req->stream) && r.done();
}

Bytes encode_label_response(const service::LabelResponse& resp) {
  WireWriter w;
  w.tensor(resp.batch.xs);
  w.tensor(resp.batch.ys);
  w.u64(resp.reuse.reused);
  w.u64(resp.reuse.computed);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return w.take();
}

bool decode_label_response(std::span<const std::uint8_t> payload,
                           service::LabelResponse* resp) {
  WireReader r(payload);
  std::uint64_t reused, computed;
  if (!(r.tensor(&resp->batch.xs) && r.tensor(&resp->batch.ys) &&
        r.u64(&reused) && r.u64(&computed) && r.u64(&resp->snapshot_version) &&
        r.f64(&resp->seconds) && r.done())) {
    return false;
  }
  resp->reuse.reused = static_cast<std::size_t>(reused);
  resp->reuse.computed = static_cast<std::size_t>(computed);
  return true;
}

Bytes encode_lookup_request(const service::LookupRequest& req) {
  WireWriter w;
  w.tensor(req.xs);
  w.u64(req.seed);
  w.str(req.stream);
  return w.take();
}

bool decode_lookup_request(std::span<const std::uint8_t> payload,
                           service::LookupRequest* req) {
  WireReader r(payload);
  return r.tensor(&req->xs) && r.u64(&req->seed) && r.str(&req->stream) &&
         r.done();
}

Bytes encode_lookup_response(const service::LookupResponse& resp) {
  WireWriter w;
  w.tensor(resp.batch.xs);
  w.tensor(resp.batch.ys);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return w.take();
}

bool decode_lookup_response(std::span<const std::uint8_t> payload,
                            service::LookupResponse* resp) {
  WireReader r(payload);
  return r.tensor(&resp->batch.xs) && r.tensor(&resp->batch.ys) &&
         r.u64(&resp->snapshot_version) && r.f64(&resp->seconds) && r.done();
}

Bytes encode_recommend_request(const service::RecommendRequest& req) {
  WireWriter w;
  w.str(req.architecture);
  w.tensor(req.xs);
  w.str(req.stream);
  return w.take();
}

bool decode_recommend_request(std::span<const std::uint8_t> payload,
                              service::RecommendRequest* req) {
  WireReader r(payload);
  return r.str(&req->architecture) && r.tensor(&req->xs) &&
         r.str(&req->stream) && r.done();
}

Bytes encode_recommend_response(const service::RecommendResponse& resp) {
  WireWriter w;
  w.u8(resp.pick.has_value() ? 1 : 0);
  w.u64(resp.pick ? resp.pick->model_id : 0);
  w.f64(resp.pick ? resp.pick->distance : 0.0);
  w.pdf(resp.pdf);
  w.u64(resp.snapshot_version);
  w.f64(resp.seconds);
  return w.take();
}

bool decode_recommend_response(std::span<const std::uint8_t> payload,
                               service::RecommendResponse* resp) {
  WireReader r(payload);
  std::uint8_t has_pick;
  std::uint64_t model_id;
  double distance;
  if (!(r.u8(&has_pick) && r.u64(&model_id) && r.f64(&distance) &&
        r.pdf(&resp->pdf) && r.u64(&resp->snapshot_version) &&
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
  WireWriter w;
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
  return w.take();
}

bool decode_stats_response(std::span<const std::uint8_t> payload,
                           service::ServiceStats* s) {
  WireReader r(payload);
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
  WireWriter w;
  w.tensor(req.xs);
  w.str(req.stream);
  return w.take();
}

bool decode_retrain_request(std::span<const std::uint8_t> payload,
                            service::RetrainRequest* req) {
  WireReader r(payload);
  return r.tensor(&req->xs) && r.str(&req->stream) && r.done();
}

Bytes encode_retrain_response(bool accepted) {
  WireWriter w;
  w.u8(accepted ? 1 : 0);
  return w.take();
}

bool decode_retrain_response(std::span<const std::uint8_t> payload,
                             bool* accepted) {
  WireReader r(payload);
  std::uint8_t v;
  if (!r.u8(&v) || !r.done() || v > 1) return false;
  *accepted = v == 1;
  return true;
}

}  // namespace fairdms::net
