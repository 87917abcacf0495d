// oisa_experiments: tiny `--key=value` command-line parser and the error
// boundary of the bench and example binaries (no external dependencies).
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
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
  /// getU64 for a flag held in the integer type T: a value outside
  /// [min, max] (by default every non-negative T) is InvalidInput naming
  /// the flag, where a plain cast would wrap it (--block=4294967304 read
  /// into an int would be 8). min = 1 rejects zero where the code would
  /// otherwise clamp or loop on it (--checkpoint-every, --trace-buffer).
  /// Requires 0 <= min <= max.
  template <std::integral T>
  [[nodiscard]] T getBounded(const std::string& key, T fallback, T min = 0,
                             T max = std::numeric_limits<T>::max()) const {
    return static_cast<T>(boundedU64(key, static_cast<std::uint64_t>(fallback),
                                     static_cast<std::uint64_t>(min),
                                     static_cast<std::uint64_t>(max)));
  }
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
  std::uint64_t boundedU64(const std::string& key, std::uint64_t fallback,
                           std::uint64_t min, std::uint64_t max) const;
  std::map<std::string, Flag> values_;
  mutable bool checked_ = false;  ///< rejectUnread() has run
};

/// Reads `text` as a whole finite number, the rule getDouble applies to
/// the value of `--key`: anything else (empty, "nan", "inf", "1e-3x", out
/// of double range) is InvalidInput naming the flag. A flag whose value is
/// a list reads each item through it.
[[nodiscard]] double parseFiniteDouble(const std::string& key,
                                       const std::string& text);

/// The error boundary of every bench and example main: returns `body()`,
/// or EXIT_FAILURE after an `error:` line on stderr when it throws, so a
/// bad flag or design parameter exits 1 with its message instead of
/// aborting. A GridError adds one line per failed cell (index, cause,
/// attempts).
int runGuarded(const std::function<int()>& body);

}  // namespace oisa::experiments
