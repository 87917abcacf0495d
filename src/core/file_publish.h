// oisa_core: the one file-publish path.
//
// Every file a reader may hold open while it is rewritten — a campaign
// checkpoint, a model bank another process has mmapped — is published by
// writing `path + ".tmp"`, fsyncing it, renaming it over `path` and
// fsyncing the directory. A reader keeps the old inode and keeps reading
// the old bytes; a crash leaves either the old or the new file at `path`,
// never a truncated one.
//
// Outputs nobody reads while they are written — a figure CSV, a bench
// JSON — go through writeFile instead: it writes in place, so a target
// like /dev/stdout stays a stream, and it still fails loudly.
#pragma once

#include <string>
#include <string_view>

#include "core/status.h"

namespace oisa::core {

/// Publishes `bytes` at `path` atomically, as above. Returns IoError
/// naming the failing step and path; the "file.open" fault-injection
/// site fails the publish before the filesystem is touched.
[[nodiscard]] Status publishFile(const std::string& path,
                                 std::string_view bytes);

/// Writes `bytes` to `path` in place (truncating it). Returns IoError
/// naming the failing step (open, write, flush or close) and the path.
[[nodiscard]] Status writeFile(const std::string& path,
                               std::string_view bytes);

}  // namespace oisa::core
