// oisa_experiments: crash-safe, resumable campaign checkpoints.
//
// A characterization campaign is a grid of cells, each a *pure function*
// of (inputs, seed) — that is runCampaignGrid's determinism contract.
// Purity makes resumption trivial in principle: persist each completed
// cell's result, and a restarted campaign replays the missing cells and
// copies the rest, producing byte-identical output (doubles are stored
// as raw bit patterns, so not even a ULP moves).
//
// The file format is a single versioned binary snapshot:
//
//   "OISACKPT"  8-byte magic
//   u32 version (currently 1)
//   u64 campaign fingerprint  — hash of everything the cells depend on
//   u64 cellCount             — grid size (shape check on resume)
//   u64 recordCount
//   recordCount × { u64 cell, u64 payloadSize, payload bytes }
//   u32 CRC-32 of every preceding byte
//
// all little-endian. Writes are atomic: serialize to memory and publish
// through core::publishFile (write `path + ".tmp"`, fsync, rename over
// `path`, fsync the directory) — a SIGKILL at any instant leaves either
// the previous snapshot or the new one, never a torn file. The CRC
// catches the remaining ways a snapshot can rot (partial copies, bit rot,
// truncation); loaders report StatusCode::Corruption and campaigns fall
// back to recomputing.
//
// Fault-injection sites (core/fault_inject.h): "checkpoint.write"
// simulates a torn write (half the bytes are published at the final
// path), "checkpoint.read" a failing disk read, "file.open" a failing
// open — the robustness tests drive every recovery path through them.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/status.h"

namespace oisa::experiments {

// --- cell payload codec ----------------------------------------------

/// Appends little-endian fields to a byte string. Doubles are stored as
/// their IEEE-754 bit pattern so round-trips are byte-exact.
class PayloadWriter {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view v);  ///< length-prefixed

  /// Appends `fields` in order, each by its type: a string through str(),
  /// a double through f64(), a std::uint64_t through u64().
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (put(fields), ...);
  }

  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  void put(std::string_view v) { str(v); }
  void put(double v) { f64(v); }
  void put(std::uint64_t v) { u64(v); }

  std::string bytes_;
};

/// Mirror reader with a sticky error: any out-of-bounds or malformed
/// read trips it, reads after that return zeros, and the caller checks
/// `ok() && atEnd()` once at the end — a truncated or oversized payload
/// can never silently produce a half-decoded row.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  /// Reads `fields` in order, each by its type: the mirror of
  /// PayloadWriter's operator().
  template <typename... Fields>
  void operator()(Fields&... fields) {
    (get(fields), ...);
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == bytes_.size(); }

 private:
  void get(std::string& v) { v = str(); }
  void get(double& v) { v = f64(); }
  void get(std::uint64_t& v) { v = u64(); }
  bool take(std::size_t n, const char** out);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- campaign fingerprint --------------------------------------------

/// FNV-1a accumulator over everything a campaign's cells are a function
/// of: pipeline name, design identities, grid axes, seeds, workload and
/// model options. Two campaigns with the same fingerprint compute the
/// same cells, so their checkpoints are interchangeable; anything else
/// must not resume (the loader rejects mismatches).
class CampaignFingerprint {
 public:
  explicit CampaignFingerprint(std::string_view pipeline) { mix(pipeline); }

  CampaignFingerprint& mix(std::string_view text);
  CampaignFingerprint& mix(std::uint64_t v);
  CampaignFingerprint& mix(double v);  ///< bit pattern, not value rounding

  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

// --- snapshot file ----------------------------------------------------

/// In-memory image of one checkpoint file: completed cell index →
/// serialized row payload, plus the campaign identity it belongs to.
class GridCheckpoint {
 public:
  GridCheckpoint() = default;
  GridCheckpoint(std::uint64_t fingerprint, std::uint64_t cellCount)
      : fingerprint_(fingerprint), cellCount_(cellCount) {}

  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint64_t cellCount() const noexcept {
    return cellCount_;
  }
  [[nodiscard]] std::size_t completedCells() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] const std::string* payload(std::uint64_t cell) const;

  /// Records (or replaces) a completed cell's payload.
  void record(std::uint64_t cell, std::string payload);

  /// Atomically writes the snapshot (tmp + fsync + rename).
  [[nodiscard]] core::Status saveTo(const std::string& path) const;

  /// Loads and integrity-checks a snapshot. IoError when the file cannot
  /// be opened/read, Corruption when magic/version/CRC/structure checks
  /// fail.
  [[nodiscard]] static core::StatusOr<GridCheckpoint> loadFrom(
      const std::string& path);

 private:
  std::uint64_t fingerprint_ = 0;
  std::uint64_t cellCount_ = 0;
  std::map<std::uint64_t, std::string> cells_;  ///< ordered for stable files
};

// --- campaign-facing wrapper ------------------------------------------

/// CLI-facing checkpoint controls (`--checkpoint=path --resume
/// --checkpoint-every=N`).
struct CheckpointOptions {
  std::string path;  ///< empty = checkpointing disabled
  /// Adopt an existing snapshot at `path` before running. A missing file
  /// starts fresh (so crash-restart loops can always pass --resume); a
  /// corrupt, foreign or wrong-shape snapshot is *ignored* with a stderr
  /// warning and every cell recomputes — resuming it would break the
  /// byte-identity guarantee.
  bool resume = false;
  std::uint64_t everyCells = 8;  ///< autosave after this many new cells
};

/// Thread-safe campaign adapter: resume-loads on construction, streams
/// completed cells in, autosaves every N new cells, and persists partial
/// results when the grid dies (runCheckpointedGrid in runner.h calls
/// finish() on the error path too).
class CampaignCheckpoint {
 public:
  CampaignCheckpoint(const CheckpointOptions& options,
                     std::uint64_t fingerprint, std::uint64_t cellCount);

  [[nodiscard]] bool enabled() const noexcept { return !options_.path.empty(); }
  /// Cells adopted from the resumed snapshot.
  [[nodiscard]] std::size_t resumedCells() const noexcept { return resumed_; }

  /// The resumed payload for `cell`, when present.
  [[nodiscard]] std::optional<std::string> tryLoad(std::uint64_t cell) const;

  /// Records a freshly computed cell; autosaves per CheckpointOptions.
  /// Save failures warn on stderr but never kill the campaign — losing
  /// checkpoint coverage is strictly better than losing the run.
  void commit(std::uint64_t cell, std::string payload);

  /// Final save (call on success *and* on the error path so partial
  /// results survive). Returns the save status; also warns on stderr.
  core::Status finish();

 private:
  CheckpointOptions options_;
  mutable std::mutex mutex_;
  GridCheckpoint snapshot_;
  std::size_t resumed_ = 0;
  std::uint64_t sinceSave_ = 0;
};

}  // namespace oisa::experiments
