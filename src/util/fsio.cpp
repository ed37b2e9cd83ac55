#include "util/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace fairdms::util {

namespace {

void set_error(std::string* error, const std::string& what,
               const std::string& path) {
  if (error == nullptr) return;
  *error = what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out,
               std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_error(error, "cannot open", path);
    return false;
  }
  struct stat st{};
  bool ok = ::fstat(fd, &st) == 0;
  if (!ok) set_error(error, "cannot stat", path);
  if (ok) out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (ok && done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      set_error(error, "read failed for", path);
      ok = false;
    } else if (n == 0) {
      if (error != nullptr) *error = "short read on " + path;
      ok = false;
    }
    if (ok) done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return ok;
}

bool fsync_path(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_error(error, "cannot open for fsync", path);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok) set_error(error, "fsync failed for", path);
  ::close(fd);
  return ok;
}

bool fsync_parent_dir(const std::string& path, std::string* error) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    set_error(error, "cannot open directory for fsync", dir);
    return false;
  }
  // Some filesystems (and some container overlays) reject fsync on a
  // directory fd with EINVAL; the rename is still ordered after the file
  // fsync there, so treat that one errno as best-effort success.
  const bool ok = ::fsync(fd) == 0 || errno == EINVAL;
  if (!ok) set_error(error, "directory fsync failed for", dir);
  ::close(fd);
  return ok;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_error(error, "cannot create", tmp);
    return false;
  }
  bool ok = write_all(fd, bytes.data(), bytes.size());
  if (!ok) set_error(error, "write failed for", tmp);
  if (ok && ::fsync(fd) != 0) {
    set_error(error, "fsync failed for", tmp);
    ok = false;
  }
  ::close(fd);
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename failed for", tmp);
    ok = false;
  }
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path, error);
}

}  // namespace fairdms::util
