#include "core/file_publish.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/fault_inject.h"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace oisa::core {

namespace {

/// Writes `bytes` to `path` and fsyncs it.
Status writeFileSynced(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ioError("open '" + path + "': " + std::strerror(errno));
  }
  Status status;
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    status = Status::ioError("write '" + path + "': " + std::strerror(errno));
  }
  if (status.isOk() && std::fflush(f) != 0) {
    status = Status::ioError("flush '" + path + "': " + std::strerror(errno));
  }
#ifndef _WIN32
  if (status.isOk() && ::fsync(::fileno(f)) != 0) {
    status = Status::ioError("fsync '" + path + "': " + std::strerror(errno));
  }
#endif
  if (std::fclose(f) != 0 && status.isOk()) {
    status = Status::ioError("close '" + path + "': " + std::strerror(errno));
  }
  return status;
}

#ifndef _WIN32
/// Fsyncs the directory containing `path` so the rename itself is
/// durable (best effort: some filesystems refuse directory fds).
void syncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}
#endif

}  // namespace

Status publishFile(const std::string& path, std::string_view bytes) {
  if (fault_inject::shouldFail(fault_inject::kFileOpen)) {
    return Status::ioError("open '" + path + "': fault injected");
  }
  const std::string tmp = path + ".tmp";
  if (Status s = writeFileSynced(tmp, bytes); !s.isOk()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = Status::ioError("rename '" + tmp + "' -> '" + path +
                                     "': " + std::strerror(errno));
    (void)std::remove(tmp.c_str());
    return s;
  }
#ifndef _WIN32
  syncParentDir(path);
#endif
  return Status::ok();
}

}  // namespace oisa::core
