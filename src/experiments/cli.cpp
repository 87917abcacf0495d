#include "experiments/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/status.h"
#include "experiments/grid_scheduler.h"

namespace oisa::experiments {

namespace {

using core::Status;
using core::StatusError;

/// `--key=garbage` used to surface as a bare std::stoull exception
/// ("stoull") with no hint of which flag was wrong; every conversion
/// failure is now an InvalidInput Status naming the flag, the expected
/// type and the offending text.
[[noreturn]] void failValue(const std::string& key,
                            const std::string& expected,
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
      values_[body].text = "true";  // boolean flag
    } else {
      values_[body.substr(0, eq)].text = body.substr(eq + 1);
    }
  }
}

const std::string* ArgParser::find(const std::string& key) const {
  if (checked_) {
    throw std::logic_error("ArgParser: --" + key +
                           " read after rejectUnread()");
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  it->second.read = true;
  return &it->second.text;
}

void ArgParser::rejectUnread() const {
  checked_ = true;
  std::string unread;
  for (const auto& [key, flag] : values_) {
    if (!flag.read) unread += (unread.empty() ? "--" : ", --") + key;
  }
  if (!unread.empty()) {
    throw StatusError(Status::invalidInput("unrecognized flag(s): " + unread));
  }
}

std::uint64_t ArgParser::getU64(const std::string& key,
                                std::uint64_t fallback) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  // strtoull accepts leading whitespace, "0x" and a minus sign (wrapping
  // huge); none of those are sane flag values, so pre-reject anything
  // that is not plain digits.
  if (text->empty() ||
      text->find_first_not_of("0123456789") != std::string::npos) {
    failValue(key, "an unsigned integer", *text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text->c_str(), &end, 10);
  if (errno == ERANGE || end != text->c_str() + text->size()) {
    failValue(key, "an unsigned integer", *text);
  }
  return value;
}

std::uint64_t ArgParser::boundedU64(const std::string& key,
                                    std::uint64_t fallback, std::uint64_t min,
                                    std::uint64_t max) const {
  const std::uint64_t value = getU64(key, fallback);
  if (value < min || value > max) {
    const std::string range =
        max == std::numeric_limits<std::uint64_t>::max()
            ? "an integer >= " + std::to_string(min)
            : "an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "]";
    failValue(key, range, getString(key, std::to_string(value)));
  }
  return value;
}

double parseFiniteDouble(const std::string& key, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod also parses "nan" and "inf"; no flag means either, and a NaN
  // slips past every range check (`nan > 0.0` is false).
  if (text.empty() || errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    failValue(key, "a finite number", text);
  }
  return value;
}

double ArgParser::getDouble(const std::string& key, double fallback) const {
  const std::string* text = find(key);
  return text == nullptr ? fallback : parseFiniteDouble(key, *text);
}

std::string ArgParser::getString(const std::string& key,
                                 std::string fallback) const {
  const std::string* found = find(key);
  return found == nullptr ? fallback : *found;
}

bool ArgParser::getBool(const std::string& key, bool fallback) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  if (*text == "true" || *text == "1" || *text == "yes") return true;
  if (*text == "false" || *text == "0" || *text == "no") return false;
  failValue(key, "a boolean (true/false/1/0/yes/no)", *text);
}

int runGuarded(const std::function<int()>& body) {
  try {
    return body();
  } catch (const GridError& e) {
    std::cerr << "error: " << e.what() << '\n';
    for (const CellFailure& f : e.failures()) {
      std::cerr << "  cell " << f.cell << ": " << f.status.toString()
                << " (after " << f.attempts << " attempt"
                << (f.attempts == 1 ? "" : "s") << ")\n";
    }
    std::cerr << "(completed cells are in the checkpoint when --checkpoint "
                 "was given; rerun with --resume)\n";
  } catch (const std::exception& e) {
    // A StatusError's what() is its Status::toString().
    std::cerr << "error: " << e.what() << '\n';
  }
  return EXIT_FAILURE;
}

}  // namespace oisa::experiments
