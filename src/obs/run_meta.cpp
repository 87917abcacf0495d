#include "obs/run_meta.h"

#include <unistd.h>

#include <cstdlib>
#include <thread>

namespace oisa::obs {

std::string gitSha() {
  for (const char* var : {"OISA_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* sha = std::getenv(var); sha != nullptr && sha[0] != '\0') {
      return sha;
    }
  }
  return "unknown";
}

std::string hostName() {
  char buf[256];
  if (::gethostname(buf, sizeof buf) != 0) return "unknown";
  buf[sizeof buf - 1] = '\0';
  return buf;
}

std::map<std::string, std::string> runMetadata() {
  std::map<std::string, std::string> meta;
  meta.emplace("git_sha", gitSha());
  meta.emplace("hostname", hostName());
  meta.emplace("pid", std::to_string(::getpid()));
  meta.emplace("hw_threads",
               std::to_string(std::thread::hardware_concurrency()));
  return meta;
}

}  // namespace oisa::obs
