#include "load.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace perfbench {

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr std::size_t kNurandA = 15;  ///< TPC-C A for a 64-key space

std::size_t nurand(util::Rng& rng, std::size_t n, std::size_t c) {
  const std::size_t hot = rng.uniform_index(kNurandA + 1);
  const std::size_t base = rng.uniform_index(n);
  return ((hot | base) + c) % n;
}

/// A raw wire connection, so one thread can send while another receives:
/// net::Client is single-threaded by contract. Frames are built and parsed
/// with net's public codec.
class Connection {
 public:
  bool open(std::uint16_t port) {
    fd_.reset(net::connect_to(kHost, port));
    if (!fd_.valid()) return false;
    const net::Bytes hello = net::encode_frame(
        net::Op::kHello, service::ServeStatus::kOk, 0, {});
    net::FrameHeader header;
    net::Bytes payload;
    net::HelloAck ack;
    return send(hello) && recv(&header, &payload) &&
           header.status == service::ServeStatus::kOk &&
           net::decode_hello_ack(payload, &ack) &&
           ack.version == net::kProtocolVersion;
  }
  bool send(const net::Bytes& frame) {
    return net::write_all(fd_.get(), frame.data(), frame.size());
  }
  bool recv(net::FrameHeader* header, net::Bytes* payload) {
    std::uint8_t bytes[net::kHeaderSize];
    if (!net::read_exact(fd_.get(), bytes, net::kHeaderSize)) return false;
    const auto decoded = net::decode_header({bytes, net::kHeaderSize});
    if (!decoded || decoded->payload_len > net::kDefaultMaxPayload) {
      return false;
    }
    *header = *decoded;
    payload->resize(decoded->payload_len);
    return decoded->payload_len == 0 ||
           net::read_exact(fd_.get(), payload->data(), payload->size());
  }
  /// Unblocks the peer thread's read after a failure on this side.
  void shutdown() { ::shutdown(fd_.get(), SHUT_RDWR); }

 private:
  net::UniqueFd fd_;
};

net::Bytes encode_request(const Request& r, const WireContext& ctx) {
  const tensor::Tensor& xs = ctx.inputs->label_pools[r.pool];
  if (r.op == WireOp::kLabel) {
    return net::encode_label_request(
        service::LabelRequest{xs, ctx.threshold, nullptr, kStream});
  }
  return net::encode_recommend_request(
      service::RecommendRequest{"braggnn", xs, kStream});
}

}  // namespace

std::vector<Request> plan_requests(const Spec& spec, double seconds,
                                   std::size_t pools, std::size_t nurand_c,
                                   util::Rng& rng) {
  std::vector<Request> out;
  // Independent users: Poisson arrivals at the fixed mean rate.
  const auto add = [&](WireOp op, double per_s) {
    if (per_s <= 0.0) return;
    for (double due = -std::log(1.0 - rng.uniform()) / per_s; due < seconds;
         due += -std::log(1.0 - rng.uniform()) / per_s) {
      out.push_back({due, op, static_cast<std::uint32_t>(
                                  nurand(rng, pools, nurand_c))});
    }
  };
  add(WireOp::kLabel, spec.label_per_s);
  add(WireOp::kRecommend, spec.recommend_per_s);
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due < b.due;
                   });
  return out;
}

WireTraffic run_wire(const WireContext& ctx, std::vector<Request> plan,
                     Clock::time_point epoch) {
  WireTraffic t;
  t.epoch = epoch;
  t.plan = std::move(plan);
  t.outcomes.resize(t.plan.size());
  if (t.plan.empty()) return t;
  Connection conn;
  if (!conn.open(ctx.world->server->port())) {
    t.transport_ok = false;
    return t;
  }
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    for (std::size_t i = 0; i < t.plan.size(); ++i) {
      const Request& r = t.plan[i];
      sleep_until(epoch, r.due);
      Outcome& o = t.outcomes[i];
      o.sent = since(epoch);
      const net::Bytes frame = net::encode_frame(
          r.op == WireOp::kLabel ? net::Op::kLabel : net::Op::kRecommend,
          service::ServeStatus::kOk, i + 1, encode_request(r, ctx));
      if (!conn.send(frame)) {
        send_failed = true;
        conn.shutdown();
        return;
      }
      o.sent_end = since(epoch);
    }
  });

  std::size_t labels_seen = 0;
  for (std::size_t n = 0; n < t.plan.size(); ++n) {
    net::FrameHeader header;
    net::Bytes payload;
    if (!conn.recv(&header, &payload)) {
      t.transport_ok = false;
      conn.shutdown();
      break;
    }
    const double received = since(epoch);
    const std::size_t i = header.correlation_id - 1;
    if (header.correlation_id == 0 || i >= t.plan.size()) {
      t.transport_ok = false;
      conn.shutdown();
      break;
    }
    Outcome& o = t.outcomes[i];
    o.received = received;
    if (header.status == service::ServeStatus::kOk) {
      if (t.plan[i].op == WireOp::kLabel) {
        service::LabelResponse resp;
        o.ok = net::decode_label_response(payload, &resp);
        o.exec = resp.seconds;
        if (o.ok && labels_seen++ % kParitySampleEvery == 0) {
          auto snap = ctx.world->service->snapshot(kStream);
          if (snap && snap->version() != resp.snapshot_version) snap.reset();
          t.sampled.push_back({i, std::move(resp), std::move(snap)});
        }
      } else {
        service::RecommendResponse resp;
        o.ok = net::decode_recommend_response(payload, &resp) &&
               resp.pick.has_value();
        o.exec = resp.seconds;
      }
    }
    o.decoded = since(epoch);
  }
  sender.join();
  if (send_failed) t.transport_ok = false;
  return t;
}

IngestResult run_ingest(World& world, const Inputs& inputs, double per_s,
                        double seconds, Clock::time_point epoch) {
  IngestResult r;
  if (per_s <= 0.0) return r;
  const auto calls = static_cast<std::size_t>(per_s * seconds);
  for (std::size_t k = 0; k < calls; ++k) {
    const double due = static_cast<double>(k) / per_s;
    sleep_until(epoch, due);
    const nn::Batchset& b = inputs.ingest_batches[k % inputs.ingest_batches.size()];
    const double start = since(epoch);
    world.ds->ingest(b.xs, b.ys, "stream");
    const double end = since(epoch);
    r.latency.ok(end - due);
    r.call.ok(end - start);
    r.max_lateness = std::max(r.max_lateness, start - due);
    r.rows += b.size();
    r.payload_bytes += static_cast<double>(b.xs.numel() + b.ys.numel()) * 4.0;
  }
  return r;
}

void run_retrain(World& world, const Inputs& inputs, Samples* seconds) {
  net::Client client;
  if (!client.connect(kHost, world.server->port())) {
    seconds->fail();
    return;
  }
  const auto accepted = client.request_retrain(
      service::RetrainRequest{inputs.retrain_probe, kStream});
  const auto start = Clock::now();
  if (!accepted || !*accepted) {
    seconds->fail();
    return;
  }
  // The stream's system plane clears its in-flight flag only after the
  // retrained snapshot is published.
  while (world.service->retrain_in_flight(kStream)) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  seconds->ok(since(start));
}

SaturateResult run_saturate(World& world, const Inputs& inputs,
                            double threshold, double seconds) {
  struct Part {
    SaturateResult tally;
    std::vector<double> answered_at;  ///< seconds since the epoch
  };
  std::vector<Part> parts(kSaturateConnections);
  const auto epoch = Clock::now();
  const std::uint16_t port = world.server->port();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kSaturateConnections; ++c) {
    threads.emplace_back([&, c] {
      Part& part = parts[c];
      net::Client client;
      if (!client.connect(kHost, port)) {
        ++part.tally.failed;
        return;
      }
      std::size_t next = c;
      std::size_t outstanding = 0;
      const auto send_one = [&] {
        const auto& xs =
            inputs.label_pools[next++ % inputs.label_pools.size()];
        if (client.send_label(
                service::LabelRequest{xs, threshold, nullptr, kStream}) == 0) {
          return false;
        }
        ++part.tally.sent;
        ++outstanding;
        return true;
      };
      for (std::size_t d = 0; d < kSaturateDepth; ++d) {
        if (!send_one()) break;
      }
      while (outstanding > 0) {
        const auto reply = client.recv_reply();
        if (!reply) {
          part.tally.failed += outstanding;
          return;
        }
        --outstanding;
        if (reply->header.status == service::ServeStatus::kOk) {
          ++part.tally.answered;
          part.answered_at.push_back(since(epoch));
        } else {
          ++part.tally.failed;
        }
        if (since(epoch) < seconds && !send_one()) {
          part.tally.failed += outstanding;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  SaturateResult total;
  std::vector<double> done;
  for (const auto& p : parts) {
    total.sent += p.tally.sent;
    total.answered += p.tally.answered;
    total.failed += p.tally.failed;
    done.insert(done.end(), p.answered_at.begin(), p.answered_at.end());
  }
  // Throughput of each run of `block` consecutive completions, timed
  // exactly (no window quantization).
  std::sort(done.begin(), done.end());
  const std::size_t block = std::max<std::size_t>(1, done.size() / kSaturateBlocks);
  const double batch = static_cast<double>(inputs.label_pools.front().dim(0));
  for (std::size_t i = 0; i + block < done.size(); i += block) {
    const double span = done[i + block] - done[i];
    if (span > 0.0) {
      total.block_per_s.push_back(static_cast<double>(block) * batch / span);
    }
  }
  return total;
}

}  // namespace perfbench
