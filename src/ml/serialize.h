// oisa_ml: serialization of trained flat forest banks.
//
// Binary envelope v2 is the one persisted format: a 64-byte
// little-endian header (magic "OISAFB2\n", version, featureCount, two
// application meta words, section counts, total file size, whole-file
// CRC-32) followed by the six 8-byte-aligned structure-of-arrays sections
// exactly as FlatForestBank holds them in memory. Loading is mmap (or one
// read) + header/CRC check + validateFlatBank — zero per-node parsing; the
// spans of the returned view point straight into the file bytes. Flipping
// any byte of a saved bank or truncating it anywhere makes loading fail
// with StatusCode::Corruption.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/status.h"
#include "ml/flat_forest.h"

namespace oisa::ml {

/// The complete v2 file image for `bank` as a byte string: header
/// (CRC-32 over every byte of the file with the checksum field zeroed)
/// plus the aligned node-array sections. `meta0`/`meta1` are two opaque
/// application words stored in the header (the bit-level predictor keeps
/// its operand width and feature-config bits there), returned verbatim
/// by the loader.
[[nodiscard]] std::string serializeFlatBank(const FlatBankView& bank,
                                            std::uint32_t meta0 = 0,
                                            std::uint32_t meta1 = 0);

void writeFlatBank(std::ostream& os, const FlatBankView& bank,
                   std::uint32_t meta0 = 0, std::uint32_t meta1 = 0);

/// Writes the v2 image to `path` (IoError on any filesystem failure).
[[nodiscard]] core::Status writeFlatBankFile(const std::string& path,
                                             const FlatBankView& bank,
                                             std::uint32_t meta0 = 0,
                                             std::uint32_t meta1 = 0);

/// A loaded v2 bank: owns (or maps) the raw file bytes and exposes a
/// FlatBankView whose spans point straight into them. Movable and
/// cheaply copyable (shared storage); the view stays valid for the
/// lifetime of any copy.
class MappedForestBank {
 public:
  MappedForestBank() = default;

  /// Opens `path` by mmap when available, falling back to one read into
  /// a heap buffer. IoError when the file can't be opened or read;
  /// Corruption when the bytes fail any header, size, CRC, or
  /// structural check — a single flipped byte or truncation anywhere in
  /// the file is detected before a node is ever walked.
  [[nodiscard]] static core::StatusOr<MappedForestBank> open(
      const std::string& path);

  /// Same validation over an in-memory image (the corruption tests flip
  /// bytes of serializeFlatBank output and feed it here).
  [[nodiscard]] static core::StatusOr<MappedForestBank> fromBuffer(
      std::string bytes);

  [[nodiscard]] const FlatBankView& view() const noexcept { return view_; }
  [[nodiscard]] std::uint32_t meta0() const noexcept { return meta0_; }
  [[nodiscard]] std::uint32_t meta1() const noexcept { return meta1_; }
  /// True when the storage is an mmap of the file rather than a copy.
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }
  [[nodiscard]] bool empty() const noexcept { return storage_ == nullptr; }

 private:
  [[nodiscard]] static core::StatusOr<MappedForestBank> parse(
      std::shared_ptr<const char> storage, std::size_t size, bool mapped);

  std::shared_ptr<const char> storage_;
  FlatBankView view_;
  std::uint32_t meta0_ = 0;
  std::uint32_t meta1_ = 0;
  bool mapped_ = false;
};

}  // namespace oisa::ml
