#include "predict/features.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "netlist/bitops.h"
#include "obs/metrics.h"

namespace oisa::predict {

FeatureExtractor::FeatureExtractor(int width, bool includeOutputBits)
    : width_(width), includeOutputBits_(includeOutputBits) {
  if (width < 1 || width > 63) {
    throw std::invalid_argument("FeatureExtractor: width must be 1..63");
  }
  const std::size_t perCycle = 2 * static_cast<std::size_t>(width) + 1;
  featureCount_ = 2 * perCycle + (includeOutputBits ? 2 : 0);
}

void FeatureExtractor::extract(const TraceRecord& previous,
                               const TraceRecord& current, int bit,
                               std::span<std::uint8_t> out) const {
  extractShared(previous, current, out);
  patchBitFeatures(previous, current, bit, out);
}

void FeatureExtractor::extractShared(const TraceRecord& previous,
                                     const TraceRecord& current,
                                     std::span<std::uint8_t> out) const {
  if (out.size() != featureCount_) {
    throw std::invalid_argument("FeatureExtractor: bad output span size");
  }
  const auto w = static_cast<std::size_t>(width_);
  std::size_t k = 0;
  auto emitCycle = [&](const TraceRecord& rec) {
    for (std::size_t i = 0; i < w; ++i) {
      out[k++] = static_cast<std::uint8_t>((rec.a >> i) & 1u);
    }
    for (std::size_t i = 0; i < w; ++i) {
      out[k++] = static_cast<std::uint8_t>((rec.b >> i) & 1u);
    }
    out[k++] = rec.carryIn ? 1 : 0;
  };
  emitCycle(current);
  emitCycle(previous);
}

void FeatureExtractor::patchBitFeatures(const TraceRecord& previous,
                                        const TraceRecord& current, int bit,
                                        std::span<std::uint8_t> out) const {
  if (!includeOutputBits_) return;
  if (out.size() != featureCount_) {
    throw std::invalid_argument("FeatureExtractor: bad output span size");
  }
  const std::size_t k = sharedFeatureCount();
  out[k] = goldBit(previous, bit, width_) ? 1 : 0;
  out[k + 1] = goldBit(current, bit, width_) ? 1 : 0;
}

void FeatureExtractor::packBlock(
    std::span<const TraceRecord> records, std::span<std::uint64_t> sharedOut,
    std::span<std::uint64_t> goldPrevOut,
    std::span<std::uint64_t> goldCurOut) const {
  if (records.size() < 2 || records.size() > 65) {
    throw std::invalid_argument(
        "FeatureExtractor::packBlock: need 2..65 records");
  }
  const std::size_t lanes = records.size() - 1;
  const std::size_t sharedCount = sharedFeatureCount();
  const auto bits = static_cast<std::size_t>(outputBitCount());
  if (sharedOut.size() < sharedCount ||
      (includeOutputBits_ &&
       (goldPrevOut.size() < bits || goldCurOut.size() < bits))) {
    throw std::invalid_argument(
        "FeatureExtractor::packBlock: output spans too small");
  }
  // A row's shared feature vector is just the concatenated operand words
  // {cur.a, cur.b, cur.cin, prev.a, prev.b, prev.cin} read as a (4W+2)-bit
  // little-endian integer, and its gold vectors are (width+1)-bit words —
  // so packing a block is a handful of shifts per row plus one 64x64 bit
  // transpose per 64 columns (the BatchEvaluator lane idiom), not a
  // per-(row, column) scatter. Sum bits are masked to the width so the
  // composed words match goldBit()/timingErroneous() exactly even on
  // records carrying stray high bits.
  const auto w = static_cast<std::size_t>(width_);
  const std::uint64_t coutBit = std::uint64_t{1} << width_;
  const std::uint64_t sumMask = coutBit - 1;
  const std::size_t chunks = (sharedCount + 63) / 64;
  std::array<std::array<std::uint64_t, 64>, kMaxSharedChunks> rowChunks;
  for (std::size_t c = 0; c < chunks; ++c) rowChunks[c].fill(0);
  std::array<std::uint64_t, 64> goldPrevRows{};
  std::array<std::uint64_t, 64> goldCurRows{};
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const TraceRecord& prev = records[lane];
    const TraceRecord& cur = records[lane + 1];
    std::size_t p = 0;
    auto append = [&](std::uint64_t value, std::size_t nbits) {
      const std::size_t chunk = p / 64;
      const std::size_t off = p % 64;
      rowChunks[chunk][lane] |= value << off;
      if (off != 0 && off + nbits > 64) {
        rowChunks[chunk + 1][lane] |= value >> (64 - off);
      }
      p += nbits;
    };
    append(cur.a & sumMask, w);
    append(cur.b & sumMask, w);
    append(cur.carryIn ? 1 : 0, 1);
    append(prev.a & sumMask, w);
    append(prev.b & sumMask, w);
    append(prev.carryIn ? 1 : 0, 1);
    goldPrevRows[lane] = (prev.gold & sumMask) | (prev.goldCout ? coutBit : 0);
    goldCurRows[lane] = (cur.gold & sumMask) | (cur.goldCout ? coutBit : 0);
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    netlist::transpose64(rowChunks[c]);
    const std::size_t columns = std::min<std::size_t>(64, sharedCount - c * 64);
    for (std::size_t j = 0; j < columns; ++j) {
      sharedOut[c * 64 + j] = rowChunks[c][j];
    }
  }
  if (includeOutputBits_) {
    netlist::transpose64(goldPrevRows);
    netlist::transpose64(goldCurRows);
    for (std::size_t b = 0; b < bits; ++b) {
      goldPrevOut[b] = goldPrevRows[b];
      goldCurOut[b] = goldCurRows[b];
    }
  }
}

PackedTraceFeatures FeatureExtractor::packTrace(const Trace& trace) const {
  PackedTraceFeatures out;
  out.rowCount = trace.size() < 2 ? 0 : trace.size() - 1;
  out.wordCount = (out.rowCount + 63) / 64;
  out.sharedCount = sharedFeatureCount();
  const std::size_t words = out.wordCount;
  const auto bits = static_cast<std::size_t>(outputBitCount());
  out.shared.assign(out.sharedCount * words, 0);
  if (includeOutputBits_) {
    out.goldPrev.assign(bits * words, 0);
    out.goldCur.assign(bits * words, 0);
  }
  out.labels.assign(bits * words, 0);

  // Per 64-row block: packBlock composes the shared and gold columns (the
  // same code the inference hot path runs), then the label columns — which
  // need the silver outputs packBlock deliberately ignores — are composed
  // and transposed here.
  std::array<std::uint64_t, kMaxFeatureCount> sharedCols;
  std::array<std::uint64_t, 64> goldPrevCols;
  std::array<std::uint64_t, 64> goldCurCols;
  std::array<std::uint64_t, 64> labelRows{};

  for (std::size_t block = 0; block < words; ++block) {
    const std::size_t base = block * 64;
    const std::size_t lanes = std::min<std::size_t>(64, out.rowCount - base);
    packBlock(std::span(trace).subspan(base, lanes + 1),
              std::span(sharedCols).first(out.sharedCount), goldPrevCols,
              goldCurCols);
    labelRows.fill(0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      labelRows[lane] = labelWord(trace[base + lane + 1]);
    }
    for (std::size_t f = 0; f < out.sharedCount; ++f) {
      out.shared[f * words + block] = sharedCols[f];
    }
    if (includeOutputBits_) {
      for (std::size_t b = 0; b < bits; ++b) {
        out.goldPrev[b * words + block] = goldPrevCols[b];
        out.goldCur[b * words + block] = goldCurCols[b];
      }
    }
    netlist::transpose64(labelRows);
    for (std::size_t b = 0; b < bits; ++b) {
      out.labels[b * words + block] = labelRows[b];
    }
  }
  // One add per packed trace, outside the block loop.
  static obs::Counter& packRows = obs::counter("predict.pack_rows");
  packRows.add(out.rowCount);
  return out;
}

ml::PackedView FeatureExtractor::bitView(const PackedTraceFeatures& packed,
                                         int bit) const {
  if (bit < 0 || bit > width_) {
    throw std::invalid_argument("FeatureExtractor::bitView: bad bit");
  }
  ml::PackedView view;
  view.rowCount = packed.rowCount;
  view.wordCount = packed.wordCount;
  view.columns.reserve(featureCount_);
  for (std::size_t f = 0; f < packed.sharedCount; ++f) {
    view.columns.push_back(packed.sharedColumn(f));
  }
  if (includeOutputBits_) {
    const auto b = static_cast<std::size_t>(bit);
    view.columns.push_back(packed.goldPrev.data() + b * packed.wordCount);
    view.columns.push_back(packed.goldCur.data() + b * packed.wordCount);
  }
  view.labels = packed.labelColumn(bit);
  return view;
}

std::string FeatureExtractor::featureName(std::size_t index) const {
  if (index >= featureCount_) {
    throw std::invalid_argument("FeatureExtractor::featureName: bad index");
  }
  const auto w = static_cast<std::size_t>(width_);
  const std::size_t perCycle = 2 * w + 1;
  const char* suffix = index < perCycle ? "[t]" : "[t-1]";
  std::size_t k = index % perCycle;
  if (index >= 2 * perCycle) {
    return index == 2 * perCycle ? "yRTL_n[t-1]" : "yRTL_n[t]";
  }
  if (k < w) return std::string("a").append(std::to_string(k)).append(suffix);
  if (k < 2 * w) {
    return std::string("b").append(std::to_string(k - w)).append(suffix);
  }
  return std::string("cin") + suffix;
}

bool FeatureExtractor::goldBit(const TraceRecord& rec, int bit,
                               int width) noexcept {
  if (bit == width) return rec.goldCout;
  return ((rec.gold >> bit) & 1u) != 0;
}

bool FeatureExtractor::silverBit(const TraceRecord& rec, int bit,
                                 int width) noexcept {
  if (bit == width) return rec.silverCout;
  return ((rec.silver >> bit) & 1u) != 0;
}

}  // namespace oisa::predict
