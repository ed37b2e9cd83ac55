// Crash-consistent file I/O primitives.
//
// Durability on POSIX requires more than ofstream: a file's bytes must be
// fsync'd before its directory entry is swapped, and the rename itself must
// be flushed by fsync'ing the parent directory, or a crash can leave a torn
// file (or no file) where the previous good one used to be. These helpers
// centralize the write-tmp + fsync + rename + dir-fsync dance used by the
// snapshot path (store/persist.cpp), the NFS metadata path (store/nfs.cpp),
// engine.meta, model parameter files, and the log engine's segment
// rotation, plus the whole-file read those formats parse from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fairdms::util {

/// write(2)s all of `data` to `fd`, retrying short writes and EINTR.
/// Returns false (errno set) on the first real error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size);

/// Reads the whole file at `path` into `out`. Returns false with `error`
/// (naming the file) set when given on open, stat or read failure, or
/// when the file shrinks while it is read.
[[nodiscard]] bool read_file(const std::string& path,
                             std::vector<std::uint8_t>& out,
                             std::string* error = nullptr);

/// fsync(2) the file at `path`. Returns false (with `error` set when given)
/// when the file cannot be opened or synced.
bool fsync_path(const std::string& path, std::string* error = nullptr);

/// fsync(2) the directory containing `path`, making a completed rename of
/// `path` durable. Best effort on filesystems that reject directory fsync;
/// real open/IO failures return false.
bool fsync_parent_dir(const std::string& path, std::string* error = nullptr);

/// Writes `bytes` to `path` atomically and durably: the data lands in
/// `<path>.tmp`, is fsync'd, and is renamed over `path`, then the parent
/// directory is fsync'd. A crash at any byte offset leaves either the old
/// complete file or the new complete file — never a truncated mix, and
/// never a destroyed previous version. Returns false with `error` set on
/// any I/O failure (the tmp file is removed on failure when possible).
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::span<const std::uint8_t> bytes,
                                     std::string* error = nullptr);

}  // namespace fairdms::util
