#include "store/nfs.hpp"

#include <filesystem>
#include <fstream>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"

namespace fairdms::store {

namespace fs = std::filesystem;

namespace {

std::size_t shape_elems(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

// `.meta` layout: u64 sample count, then the x and y shapes, each a u64
// rank followed by that many u64 dims.
void write_shape(util::ByteWriter& w, const std::vector<std::size_t>& shape) {
  w.u64(shape.size());
  for (const std::size_t d : shape) w.u64(d);
}

bool read_shape(util::ByteReader& r, std::vector<std::size_t>* shape) {
  std::uint64_t rank = 0;
  // Bounded by the bytes present, so a corrupt rank cannot size the vector.
  if (!r.u64(&rank) || rank > r.remaining() / 8) return false;
  shape->resize(rank);
  for (std::size_t& d : *shape) {
    std::uint64_t v = 0;
    if (!r.u64(&v)) return false;
    d = v;
  }
  return true;
}

}  // namespace

NfsStore::NfsStore(std::string root, RemoteLinkConfig link_config)
    : root_(std::move(root)), link_(link_config) {
  fs::create_directories(root_);
}

std::string NfsStore::sample_path(const std::string& name,
                                  std::size_t index) const {
  return root_ + "/" + name + "_" + std::to_string(index) + ".bin";
}

void NfsStore::write_dataset(const std::string& name,
                             const nn::Batchset& data) {
  FAIRDMS_CHECK(data.size() > 0, "write_dataset: empty batchset");
  {
    util::MutexLock lock(meta_mutex_);
    meta_cache_.erase(name);
  }
  const std::size_t n = data.size();
  std::vector<std::size_t> xs(data.xs.shape().begin() + 1,
                              data.xs.shape().end());
  std::vector<std::size_t> ys(data.ys.shape().begin() + 1,
                              data.ys.shape().end());
  const std::size_t x_elems = shape_elems(xs);
  const std::size_t y_elems = shape_elems(ys);

  {
    // tmp + fsync + rename, so a concurrent read_meta (cache just
    // invalidated above) never observes a truncated metadata file, and a
    // crash leaves the old file or the new one.
    std::vector<std::uint8_t> meta;
    util::ByteWriter w(meta);
    w.u64(n);
    write_shape(w, xs);
    write_shape(w, ys);
    std::string error;
    FAIRDMS_CHECK(
        util::write_file_atomic(root_ + "/" + name + ".meta", meta, &error),
        "cannot write NFS metadata for ", name, ": ", error);
  }

  for (std::size_t i = 0; i < n; ++i) {
    std::ofstream out(sample_path(name, i), std::ios::binary);
    FAIRDMS_CHECK(out.good(), "cannot write NFS sample ", i, " of ", name);
    out.write(reinterpret_cast<const char*>(data.xs.data() + i * x_elems),
              static_cast<std::streamsize>(x_elems * 4));
    out.write(reinterpret_cast<const char*>(data.ys.data() + i * y_elems),
              static_cast<std::streamsize>(y_elems * 4));
    FAIRDMS_CHECK(out.good(), "short write for NFS sample ", i);
  }
}

NfsStore::Meta NfsStore::read_meta(const std::string& name) const {
  util::MutexLock lock(meta_mutex_);
  auto it = meta_cache_.find(name);
  if (it != meta_cache_.end()) return it->second;
  std::vector<std::uint8_t> bytes;
  FAIRDMS_CHECK(util::read_file(root_ + "/" + name + ".meta", bytes),
                "missing NFS metadata for ", name);
  util::ByteReader r(bytes);
  Meta meta;
  std::uint64_t count = 0;
  FAIRDMS_CHECK(r.u64(&count) && read_shape(r, &meta.x_shape) &&
                    read_shape(r, &meta.y_shape),
                "corrupt NFS metadata for ", name);
  meta.count = count;
  return meta_cache_.emplace(name, std::move(meta)).first->second;
}

std::vector<std::size_t> NfsStore::x_shape(const std::string& name) const {
  return read_meta(name).x_shape;
}

std::vector<std::size_t> NfsStore::y_shape(const std::string& name) const {
  return read_meta(name).y_shape;
}

std::size_t NfsStore::sample_count(const std::string& name) const {
  return read_meta(name).count;
}

void NfsStore::read_sample(const std::string& name, std::size_t index,
                           std::vector<float>& x, std::vector<float>& y) const {
  const Meta meta = read_meta(name);
  FAIRDMS_CHECK(index < meta.count, "NFS read: index ", index,
                " out of range for ", name);
  const std::size_t x_elems = shape_elems(meta.x_shape);
  const std::size_t y_elems = shape_elems(meta.y_shape);
  x.resize(x_elems);
  y.resize(y_elems);
  std::ifstream in(sample_path(name, index), std::ios::binary);
  FAIRDMS_CHECK(in.good(), "missing NFS sample ", index, " of ", name);
  in.read(reinterpret_cast<char*>(x.data()),
          static_cast<std::streamsize>(x_elems * 4));
  in.read(reinterpret_cast<char*>(y.data()),
          static_cast<std::streamsize>(y_elems * 4));
  FAIRDMS_CHECK(in.good(), "short read for NFS sample ", index);
  link_.charge((x_elems + y_elems) * 4 + 128);
}

}  // namespace fairdms::store
