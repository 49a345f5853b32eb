//===- support/FileIo.h - Minimal POSIX file helpers -----------*- C++ -*-===//
//
// Part of the CEAL reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small RAII wrapper over a POSIX file descriptor with full-length
/// positional reads and writes, for the snapshot save/load paths
/// (runtime/Snapshot). Offsets are explicit (pread/pwrite) so the writer
/// can lay out sections in any order and the loader never depends on a
/// shared file cursor; every short transfer is retried until the full
/// length moved or a real error occurred. The writer only ever creates a
/// fresh file (it renames it over its target when done), so there is no
/// open-for-overwrite.
///
//===----------------------------------------------------------------------===//

#ifndef CEAL_SUPPORT_FILEIO_H
#define CEAL_SUPPORT_FILEIO_H

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <fcntl.h>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

namespace ceal {
namespace io {

class File {
public:
  File() = default;
  File(const File &) = delete;
  File &operator=(const File &) = delete;
  File(File &&O) : Fd(O.Fd) { O.Fd = -1; }
  File &operator=(File &&O) {
    if (this != &O) {
      close();
      Fd = O.Fd;
      O.Fd = -1;
    }
    return *this;
  }
  ~File() { close(); }

  static File openRead(const std::string &Path) {
    File F;
    F.Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    return F;
  }
  /// Creates \p Path for writing; fails (errno EEXIST) if anything,
  /// even a dangling symlink, already has that name.
  static File createExclusive(const std::string &Path) {
    File F;
    F.Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0644);
    return F;
  }

  bool ok() const { return Fd >= 0; }
  explicit operator bool() const { return ok(); }
  int fd() const { return Fd; }

  /// Closes the descriptor; false if close() reported an error (a
  /// deferred write failure on some file systems).
  bool close() {
    bool Ok = Fd < 0 || ::close(Fd) == 0;
    Fd = -1;
    return Ok;
  }

  /// File size in bytes, or -1 on error.
  int64_t size() const {
    struct stat St;
    if (::fstat(Fd, &St) != 0)
      return -1;
    return static_cast<int64_t>(St.st_size);
  }

  /// Reads exactly \p Len bytes at \p Off; false on error or short file.
  bool preadAll(void *Buf, size_t Len, uint64_t Off) const {
    auto *P = static_cast<char *>(Buf);
    while (Len > 0) {
      ssize_t N = ::pread(Fd, P, Len, static_cast<off_t>(Off));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      if (N == 0)
        return false; // Unexpected EOF.
      P += N;
      Off += static_cast<uint64_t>(N);
      Len -= static_cast<size_t>(N);
    }
    return true;
  }

  /// Writes exactly \p Len bytes at \p Off; false on error.
  bool pwriteAll(const void *Buf, size_t Len, uint64_t Off) const {
    const auto *P = static_cast<const char *>(Buf);
    while (Len > 0) {
      ssize_t N = ::pwrite(Fd, P, Len, static_cast<off_t>(Off));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += N;
      Off += static_cast<uint64_t>(N);
      Len -= static_cast<size_t>(N);
    }
    return true;
  }

private:
  int Fd = -1;
};

} // namespace io
} // namespace ceal

#endif // CEAL_SUPPORT_FILEIO_H
