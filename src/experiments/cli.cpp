#include "experiments/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/status.h"

namespace oisa::experiments {

namespace {

using core::Status;
using core::StatusError;

/// `--key=garbage` used to surface as a bare std::stoull exception
/// ("stoull") with no hint of which flag was wrong; every conversion
/// failure is now an InvalidInput Status naming the flag, the expected
/// type and the offending text.
[[noreturn]] void failValue(const std::string& key, const char* expected,
                            const std::string& text) {
  throw StatusError(Status::invalidInput("--" + key + ": expected " +
                                         expected + ", got '" + text + "'"));
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw StatusError(
          Status::invalidInput("ArgParser: unexpected argument '" + token +
                               "' (expected --key=value)"));
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";  // boolean flag
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

std::uint64_t ArgParser::getU64(const std::string& key,
                                std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  // strtoull accepts leading whitespace, "0x" and a minus sign (wrapping
  // huge); none of those are sane flag values, so pre-reject anything
  // that is not plain digits.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    failValue(key, "an unsigned integer", text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    failValue(key, "an unsigned integer", text);
  }
  return value;
}

std::uint64_t ArgParser::getPositiveU64(const std::string& key,
                                        std::uint64_t fallback) const {
  const std::uint64_t value = getU64(key, fallback);
  if (value == 0) failValue(key, "a positive integer", getString(key, "0"));
  return value;
}

double ArgParser::getDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod also parses "nan" and "inf"; no flag means either, and a NaN
  // slips past every range check (`nan > 0.0` is false).
  if (text.empty() || errno == ERANGE ||
      end != text.c_str() + text.size() || !std::isfinite(value)) {
    failValue(key, "a finite number", text);
  }
  return value;
}

std::string ArgParser::getString(const std::string& key,
                                 std::string fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool ArgParser::getBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  failValue(key, "a boolean (true/false/1/0/yes/no)", text);
}

bool ArgParser::has(const std::string& key) const {
  return values_.count(key) != 0;
}

}  // namespace oisa::experiments
