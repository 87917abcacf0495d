#include "ml/serialize.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define OISA_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "core/crc32.h"

namespace oisa::ml {

namespace {

using core::Status;

// The sections are memcpy'd straight between memory and file, so the
// on-disk little-endian layout is only correct on a little-endian host.
// Every platform this repo targets qualifies; a big-endian port would
// add byte-swapping here rather than silently writing the wrong format.
static_assert(std::endian::native == std::endian::little,
              "flat bank envelope v2 requires a little-endian host");

constexpr char kBankMagic[8] = {'O', 'I', 'S', 'A', 'F', 'B', '2', '\n'};
constexpr std::uint32_t kBankVersion = 2;
constexpr std::size_t kBankHeaderBytes = 64;
constexpr std::size_t kBankCrcOffset = 56;

[[nodiscard]] constexpr std::size_t alignUp8(std::size_t x) noexcept {
  return (x + 7u) & ~std::size_t{7};
}

/// Byte offsets of the six sections (and the exact total file size) for
/// the given counts. Callers cap the counts first (node count fits
/// uint32, trees <= nodes, forests <= trees), which bounds every product
/// far below 2^64 — no overflow checks needed per term.
struct BankLayout {
  std::size_t forestBegin = 0;
  std::size_t roots = 0;
  std::size_t feature = 0;
  std::size_t left = 0;
  std::size_t right = 0;
  std::size_t prob = 0;
  std::size_t total = 0;
};

[[nodiscard]] BankLayout bankLayout(std::uint64_t forestCount,
                                    std::uint64_t treeCount,
                                    std::uint64_t nodeCount) noexcept {
  BankLayout l;
  std::size_t at = kBankHeaderBytes;
  l.forestBegin = at;
  at = alignUp8(at + (forestCount + 1) * sizeof(std::uint32_t));
  l.roots = at;
  at = alignUp8(at + treeCount * sizeof(std::uint32_t));
  l.feature = at;
  at = alignUp8(at + nodeCount * sizeof(std::int16_t));
  l.left = at;
  at = alignUp8(at + nodeCount * sizeof(std::uint32_t));
  l.right = at;
  at = alignUp8(at + nodeCount * sizeof(std::uint32_t));
  l.prob = at;
  at = alignUp8(at + nodeCount * sizeof(float));
  l.total = at;
  return l;
}

void put32(std::string& out, std::size_t at, std::uint32_t v) {
  std::memcpy(out.data() + at, &v, sizeof v);
}
void put64(std::string& out, std::size_t at, std::uint64_t v) {
  std::memcpy(out.data() + at, &v, sizeof v);
}
[[nodiscard]] std::uint32_t get32(const char* data, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, data + at, sizeof v);
  return v;
}
[[nodiscard]] std::uint64_t get64(const char* data, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, data + at, sizeof v);
  return v;
}

/// CRC-32 of the file image with the 4 checksum bytes treated as zero,
/// so the stored checksum guards every other byte — header fields,
/// section data, and the alignment padding (written as zeros) alike.
[[nodiscard]] std::uint32_t bankCrc(const char* data, std::size_t size) {
  static constexpr char kZeros[4] = {0, 0, 0, 0};
  std::uint32_t crc = core::crc32Init();
  crc = core::crc32Update(crc, std::string_view(data, kBankCrcOffset));
  crc = core::crc32Update(crc, std::string_view(kZeros, sizeof kZeros));
  crc = core::crc32Update(
      crc, std::string_view(data + kBankCrcOffset + 4,
                            size - kBankCrcOffset - 4));
  return core::crc32Final(crc);
}

template <typename T>
void putSection(std::string& out, std::size_t at, std::span<const T> data) {
  if (!data.empty()) {
    std::memcpy(out.data() + at, data.data(), data.size_bytes());
  }
}

}  // namespace

std::string serializeFlatBank(const FlatBankView& bank, std::uint32_t meta0,
                              std::uint32_t meta1) {
  core::throwIfError(validateFlatBank(bank));
  const std::uint64_t forestCount = bank.forestCount();
  const std::uint64_t treeCount = bank.roots.size();
  const std::uint64_t nodeCount = bank.nodeCount();
  const BankLayout l = bankLayout(forestCount, treeCount, nodeCount);
  std::string out(l.total, '\0');
  std::memcpy(out.data(), kBankMagic, sizeof kBankMagic);
  put32(out, 8, kBankVersion);
  put32(out, 12, bank.featureCount);
  put32(out, 16, meta0);
  put32(out, 20, meta1);
  put64(out, 24, forestCount);
  put64(out, 32, treeCount);
  put64(out, 40, nodeCount);
  put64(out, 48, l.total);
  // bytes [56,60) = crc (patched below), [60,64) = zero padding.
  putSection(out, l.forestBegin, bank.forestBegin);
  putSection(out, l.roots, bank.roots);
  putSection(out, l.feature, bank.feature);
  putSection(out, l.left, bank.left);
  putSection(out, l.right, bank.right);
  putSection(out, l.prob, bank.prob);
  put32(out, kBankCrcOffset, bankCrc(out.data(), out.size()));
  return out;
}

void writeFlatBank(std::ostream& os, const FlatBankView& bank,
                   std::uint32_t meta0, std::uint32_t meta1) {
  const std::string image = serializeFlatBank(bank, meta0, meta1);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
}

core::Status writeFlatBankFile(const std::string& path,
                               const FlatBankView& bank, std::uint32_t meta0,
                               std::uint32_t meta1) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return Status::ioError("flat bank: cannot open '" + path +
                           "' for writing");
  }
  writeFlatBank(os, bank, meta0, meta1);
  os.flush();
  if (!os) {
    return Status::ioError("flat bank: write to '" + path + "' failed");
  }
  return Status::ok();
}

core::StatusOr<MappedForestBank> MappedForestBank::parse(
    std::shared_ptr<const char> storage, std::size_t size, bool mapped) {
  const auto corrupt = [](std::string what) {
    return Status::corruption("flat bank envelope: " + std::move(what));
  };
  const char* data = storage.get();
  if (size < kBankHeaderBytes) {
    return corrupt("file smaller than the header (" + std::to_string(size) +
                   " bytes)");
  }
  if (std::memcmp(data, kBankMagic, sizeof kBankMagic) != 0) {
    return corrupt("bad magic");
  }
  const std::uint32_t version = get32(data, 8);
  if (version != kBankVersion) {
    return corrupt("unsupported version " + std::to_string(version));
  }
  const std::uint32_t featureCount = get32(data, 12);
  const std::uint32_t meta0 = get32(data, 16);
  const std::uint32_t meta1 = get32(data, 20);
  const std::uint64_t forestCount = get64(data, 24);
  const std::uint64_t treeCount = get64(data, 32);
  const std::uint64_t nodeCount = get64(data, 40);
  const std::uint64_t fileBytes = get64(data, 48);
  if (fileBytes != size) {
    return corrupt("size mismatch: header says " + std::to_string(fileBytes) +
                   " bytes, file has " + std::to_string(size));
  }
  if (bankCrc(data, size) != get32(data, kBankCrcOffset)) {
    return corrupt("checksum mismatch");
  }
  // The CRC already vouches for writer-produced files; these caps reject
  // hand-crafted images whose counts would overflow the layout
  // arithmetic or break the inference invariants.
  if (nodeCount > std::numeric_limits<std::uint32_t>::max() ||
      treeCount > nodeCount || forestCount > treeCount + 1) {
    return corrupt("implausible section counts");
  }
  if (featureCount == 0 ||
      featureCount > static_cast<std::uint32_t>(
                         std::numeric_limits<std::int16_t>::max()) +
                         1u) {
    return corrupt("feature count " + std::to_string(featureCount) +
                   " outside the int16 node format");
  }
  const BankLayout l = bankLayout(forestCount, treeCount, nodeCount);
  if (l.total != size) {
    return corrupt("section counts disagree with file size");
  }
  MappedForestBank out;
  // Sections start 8-byte aligned relative to an mmap page / operator-new
  // base, so the reinterpret casts below are aligned loads.
  out.view_.forestBegin = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(data + l.forestBegin),
      forestCount + 1);
  out.view_.roots = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(data + l.roots), treeCount);
  out.view_.feature = std::span<const std::int16_t>(
      reinterpret_cast<const std::int16_t*>(data + l.feature), nodeCount);
  out.view_.left = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(data + l.left), nodeCount);
  out.view_.right = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(data + l.right), nodeCount);
  out.view_.prob = std::span<const float>(
      reinterpret_cast<const float*>(data + l.prob), nodeCount);
  out.view_.featureCount = featureCount;
  if (Status s = validateFlatBank(out.view_); !s.isOk()) return s;
  out.storage_ = std::move(storage);
  out.meta0_ = meta0;
  out.meta1_ = meta1;
  out.mapped_ = mapped;
  return out;
}

core::StatusOr<MappedForestBank> MappedForestBank::fromBuffer(
    std::string bytes) {
  // The buffer must outlive the view; park it in shared storage and
  // alias the character data. Any image large enough to pass the header
  // check is heap-allocated (no SSO), so the data is operator-new
  // aligned as parse() requires.
  auto owner = std::make_shared<const std::string>(std::move(bytes));
  const std::size_t size = owner->size();
  std::shared_ptr<const char> storage(owner, owner->data());
  return parse(std::move(storage), size, /*mapped=*/false);
}

core::StatusOr<MappedForestBank> MappedForestBank::open(
    const std::string& path) {
#if OISA_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && st.st_size >= 0 &&
        static_cast<std::uint64_t>(st.st_size) >= kBankHeaderBytes) {
      const auto size = static_cast<std::size_t>(st.st_size);
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        std::shared_ptr<const char> storage(
            static_cast<const char*>(map),
            [size](const char* p) { ::munmap(const_cast<char*>(p), size); });
        return parse(std::move(storage), size, /*mapped=*/true);
      }
      // mmap refused (unusual filesystem?): fall through to the read
      // path below, which reopens the file.
    } else {
      ::close(fd);
      // Tiny or stat-less file: let the read path produce the right
      // Corruption/IoError diagnostic.
    }
  }
#endif
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::ioError("flat bank: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) {
    return Status::ioError("flat bank: read from '" + path + "' failed");
  }
  return fromBuffer(std::move(buffer).str());
}

}  // namespace oisa::ml
