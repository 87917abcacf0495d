// oisa_experiments: tiny `--key=value` command-line parser for the bench
// and example binaries (no external dependencies).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace oisa::experiments {

/// Parses `--key=value` and boolean `--flag` arguments; anything else is
/// rejected with an exception listing the offending token. Every getter
/// marks its flag read, so rejectUnread() can tell a typo from a flag.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] std::uint64_t getU64(const std::string& key,
                                     std::uint64_t fallback) const;
  /// getU64 that additionally rejects 0 — for flags where zero is a
  /// nonsense value the code would otherwise clamp or loop on
  /// (--checkpoint-every, --trace-buffer). The diagnostic names the flag.
  [[nodiscard]] std::uint64_t getPositiveU64(const std::string& key,
                                             std::uint64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string getString(const std::string& key,
                                      std::string fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// Throws InvalidInput naming each given flag no getter has read. Call
  /// it after reading every flag and before any work: from then on every
  /// getter throws std::logic_error naming its flag, so a read placed
  /// after the check fails on every run, not only when the flag is given.
  void rejectUnread() const;

 private:
  struct Flag {
    std::string text;
    mutable bool read = false;
  };
  const std::string* find(const std::string& key) const;  ///< marks read
  std::map<std::string, Flag> values_;
  mutable bool checked_ = false;  ///< rejectUnread() has run
};

}  // namespace oisa::experiments
