#include "experiments/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <utility>

#include "core/crc32.h"
#include "core/fault_inject.h"
#include "core/file_publish.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace oisa::experiments {

namespace {

constexpr char kMagic[8] = {'O', 'I', 'S', 'A', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 1;

void appendU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void appendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t readU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t readU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

// --- PayloadWriter / PayloadReader ------------------------------------

void PayloadWriter::u64(std::uint64_t v) { appendU64(bytes_, v); }
void PayloadWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  appendU64(bytes_, bits);
}
void PayloadWriter::str(std::string_view v) {
  appendU64(bytes_, v.size());
  bytes_.append(v);
}

bool PayloadReader::take(std::size_t n, const char** out) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint64_t PayloadReader::u64() {
  const char* p = nullptr;
  return take(8, &p) ? readU64(p) : 0;
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return ok_ ? v : 0.0;
}

std::string PayloadReader::str() {
  const std::uint64_t n = u64();
  const char* p = nullptr;
  if (!take(static_cast<std::size_t>(n), &p)) return {};
  return std::string(p, static_cast<std::size_t>(n));
}

// --- CampaignFingerprint ----------------------------------------------

CampaignFingerprint& CampaignFingerprint::mix(std::string_view text) {
  // Length first so ("ab","c") and ("a","bc") hash apart.
  mix(static_cast<std::uint64_t>(text.size()));
  for (const char ch : text) {
    hash_ ^= static_cast<unsigned char>(ch);
    hash_ *= 0x100000001b3ull;  // FNV prime
  }
  return *this;
}

CampaignFingerprint& CampaignFingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xFFu;
    hash_ *= 0x100000001b3ull;
  }
  return *this;
}

CampaignFingerprint& CampaignFingerprint::mix(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix(bits);
}

// --- GridCheckpoint ----------------------------------------------------

const std::string* GridCheckpoint::payload(std::uint64_t cell) const {
  const auto it = cells_.find(cell);
  return it == cells_.end() ? nullptr : &it->second;
}

void GridCheckpoint::record(std::uint64_t cell, std::string payload) {
  cells_[cell] = std::move(payload);
}

core::Status GridCheckpoint::saveTo(const std::string& path) const {
  static obs::Counter& saves = obs::counter("ckpt.saves");
  const obs::ObsSpan span("ckpt.save", "ckpt", "cells", cells_.size());
  saves.add();
  std::string bytes;
  bytes.append(kMagic, sizeof kMagic);
  appendU32(bytes, kVersion);
  appendU64(bytes, fingerprint_);
  appendU64(bytes, cellCount_);
  appendU64(bytes, cells_.size());
  for (const auto& [cell, payload] : cells_) {
    appendU64(bytes, cell);
    appendU64(bytes, payload.size());
    bytes.append(payload);
  }
  appendU32(bytes, core::crc32(bytes));

  if (core::fault_inject::shouldFail(core::fault_inject::kCheckpointWrite)) {
    // Torn-write simulation: half the snapshot is published at the *final*
    // path, as a crash on a filesystem without atomic rename leaves it. The
    // next load must detect this via CRC and recompute. The save itself
    // reports failure — an incomplete snapshot is not a successful save.
    (void)core::publishFile(
        path, std::string_view(bytes).substr(0, bytes.size() / 2));
    return core::Status::ioError("write '" + path +
                                 "': fault injected (torn write)");
  }

  static obs::Histogram& publishLatency = obs::histogram("ckpt.publish_us");
  static obs::Counter& bytesWritten = obs::counter("ckpt.bytes_written");
  const auto publishStart = std::chrono::steady_clock::now();
  const core::Status status = core::publishFile(path, bytes);
  publishLatency.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - publishStart)
          .count()));
  if (status.isOk()) bytesWritten.add(bytes.size());
  return status;
}

core::StatusOr<GridCheckpoint> GridCheckpoint::loadFrom(
    const std::string& path) {
  if (core::fault_inject::shouldFail(core::fault_inject::kFileOpen)) {
    return core::Status::ioError("open '" + path + "': fault injected");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return core::Status::ioError("open '" + path +
                                 "': " + std::strerror(errno));
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    bytes.append(buffer, n);
  }
  const bool readError = std::ferror(f) != 0;
  (void)std::fclose(f);
  if (readError) {
    return core::Status::ioError("read '" + path + "' failed");
  }
  static obs::Counter& loads = obs::counter("ckpt.loads");
  static obs::Counter& bytesRead = obs::counter("ckpt.bytes_read");
  loads.add();
  bytesRead.add(bytes.size());
  if (core::fault_inject::shouldFail(core::fault_inject::kCheckpointRead)) {
    return core::Status::corruption("read '" + path + "': fault injected");
  }

  const auto corrupt = [&](const std::string& why) {
    return core::Status::corruption("checkpoint '" + path + "': " + why);
  };
  constexpr std::size_t kHeader = sizeof kMagic + 4 + 8 + 8 + 8;
  if (bytes.size() < kHeader + 4) return corrupt("file too short");
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return corrupt("bad magic");
  }
  const std::uint32_t storedCrc = readU32(bytes.data() + bytes.size() - 4);
  const std::uint32_t actualCrc =
      core::crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  if (storedCrc != actualCrc) return corrupt("crc mismatch");
  const std::uint32_t version = readU32(bytes.data() + sizeof kMagic);
  if (version != kVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }

  GridCheckpoint ckpt;
  ckpt.fingerprint_ = readU64(bytes.data() + sizeof kMagic + 4);
  ckpt.cellCount_ = readU64(bytes.data() + sizeof kMagic + 12);
  const std::uint64_t records = readU64(bytes.data() + sizeof kMagic + 20);
  std::size_t pos = kHeader;
  const std::size_t end = bytes.size() - 4;
  for (std::uint64_t r = 0; r < records; ++r) {
    if (end - pos < 16) return corrupt("truncated record table");
    const std::uint64_t cell = readU64(bytes.data() + pos);
    const std::uint64_t size = readU64(bytes.data() + pos + 8);
    pos += 16;
    if (size > end - pos) return corrupt("record overruns file");
    if (cell >= ckpt.cellCount_) return corrupt("cell index out of range");
    ckpt.cells_[cell] = bytes.substr(pos, static_cast<std::size_t>(size));
    pos += static_cast<std::size_t>(size);
  }
  if (pos != end) return corrupt("trailing bytes after records");
  return ckpt;
}

// --- CampaignCheckpoint ------------------------------------------------

CampaignCheckpoint::CampaignCheckpoint(const CheckpointOptions& options,
                                       std::uint64_t fingerprint,
                                       std::uint64_t cellCount)
    : options_(options), snapshot_(fingerprint, cellCount) {
  if (!enabled() || !options_.resume) return;
  core::StatusOr<GridCheckpoint> loaded =
      GridCheckpoint::loadFrom(options_.path);
  if (!loaded.isOk()) {
    // Missing file = first run of a crash-restart loop: silent fresh
    // start. Anything else is worth a warning before recomputing.
    if (loaded.status().code() != core::StatusCode::IoError) {
      std::cerr << "warning: ignoring checkpoint: "
                << loaded.status().toString() << " (recomputing)\n";
    }
    return;
  }
  const GridCheckpoint& ckpt = loaded.value();
  if (ckpt.fingerprint() != fingerprint || ckpt.cellCount() != cellCount) {
    std::cerr << "warning: checkpoint '" << options_.path
              << "' belongs to a different campaign "
                 "(fingerprint/shape mismatch); recomputing\n";
    return;
  }
  snapshot_ = std::move(loaded).value();
  resumed_ = snapshot_.completedCells();
}

std::optional<std::string> CampaignCheckpoint::tryLoad(
    std::uint64_t cell) const {
  if (!enabled()) return std::nullopt;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string* payload = snapshot_.payload(cell);
  if (payload == nullptr) return std::nullopt;
  static obs::Counter& served = obs::counter("ckpt.cells_served");
  served.add();
  return *payload;
}

void CampaignCheckpoint::commit(std::uint64_t cell, std::string payload) {
  if (!enabled()) return;
  static obs::Counter& commits = obs::counter("ckpt.cells_committed");
  commits.add();
  const std::lock_guard<std::mutex> lock(mutex_);
  snapshot_.record(cell, std::move(payload));
  if (++sinceSave_ < std::max<std::uint64_t>(options_.everyCells, 1)) return;
  sinceSave_ = 0;
  if (const core::Status s = snapshot_.saveTo(options_.path); !s.isOk()) {
    std::cerr << "warning: checkpoint save failed: " << s.toString() << "\n";
  }
}

core::Status CampaignCheckpoint::finish() {
  if (!enabled()) return core::Status::ok();
  const std::lock_guard<std::mutex> lock(mutex_);
  const core::Status s = snapshot_.saveTo(options_.path);
  if (!s.isOk()) {
    std::cerr << "warning: checkpoint save failed: " << s.toString() << "\n";
  }
  sinceSave_ = 0;
  return s;
}

}  // namespace oisa::experiments
