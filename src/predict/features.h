// oisa_predict: feature extraction for bit-level timing-error prediction.
//
// Per the paper (Sec. III-A), the feature vector of output bit n at cycle t
// is { x[t], x[t-1], yRTL_n[t-1], yRTL_n[t] }: the output is jointly
// determined by the current and preceding input vectors, and a latched
// timing error requires the two consecutive RTL output bits to differ.
// Layout (width = W):
//   [0,W)      a[t] bits       [W,2W)     b[t] bits      [2W]    cin[t]
//   [2W+1,3W+1) a[t-1] bits    [3W+1,4W+1) b[t-1] bits   [4W+1]  cin[t-1]
//   [4W+2]     yRTL_n[t-1]     [4W+3]     yRTL_n[t]
//
// The operand/transition block [0, 4W+2) is *shared* by all output bits —
// only the trailing two yRTL_n entries depend on the bit. packBlock()
// exploits that: it extracts the shared block once per 64 record pairs
// into packed bit-columns (the ml::PackedView layout) and the gold
// columns once per bit, so training (packTrace()) and batched prediction
// never touch a per-(bit, row) byte matrix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "predict/trace.h"

namespace oisa::predict {

/// Column-major packed features of a whole trace. Row r is the consecutive
/// record pair (trace[r], trace[r+1]), r = 0 .. trace.size()-2; bit (r %
/// 64) of word (r / 64) holds the row's value, tail bits are zero.
struct PackedTraceFeatures {
  std::size_t rowCount = 0;
  std::size_t wordCount = 0;    ///< ceil(rowCount / 64)
  std::size_t sharedCount = 0;  ///< operand/transition column count (4W+2)
  std::vector<std::uint64_t> shared;    ///< sharedCount x wordCount
  std::vector<std::uint64_t> goldPrev;  ///< bits x wordCount (empty when
                                        ///< output-bit features are ablated)
  std::vector<std::uint64_t> goldCur;   ///< bits x wordCount (ditto)
  std::vector<std::uint64_t> labels;    ///< bits x wordCount: timing errors

  [[nodiscard]] const std::uint64_t* sharedColumn(std::size_t f) const {
    return shared.data() + f * wordCount;
  }
  [[nodiscard]] const std::uint64_t* labelColumn(int bit) const {
    return labels.data() + static_cast<std::size_t>(bit) * wordCount;
  }
};

/// Extracts per-bit feature vectors from consecutive trace records.
class FeatureExtractor {
 public:
  /// Largest featureCount() any valid width yields (W = 63): a stack
  /// buffer of this size fits every extracted row.
  static constexpr std::size_t kMaxFeatureCount = 2 * (2 * 63 + 1) + 2;
  /// 64-row transpose chunks covering the widest shared block — sizes the
  /// allocation-free packBlock scratch.
  static constexpr std::size_t kMaxSharedChunks = (2 * (2 * 63 + 1) + 63) / 64;

  /// `width` — adder width W; output bits 0..W-1 are sum bits, bit W is the
  /// carry-out. `includeOutputBits` — ablation switch for the
  /// {yRTL[t-1], yRTL[t]} features.
  explicit FeatureExtractor(int width, bool includeOutputBits = true);

  [[nodiscard]] std::size_t featureCount() const noexcept {
    return featureCount_;
  }
  /// Features independent of the output bit (the leading block).
  [[nodiscard]] std::size_t sharedFeatureCount() const noexcept {
    return 2 * (2 * static_cast<std::size_t>(width_) + 1);
  }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int outputBitCount() const noexcept { return width_ + 1; }

  /// Fills `out` (featureCount() entries) for output bit `bit` at the cycle
  /// described by `current`, with `previous` the preceding cycle's record.
  void extract(const TraceRecord& previous, const TraceRecord& current,
               int bit, std::span<std::uint8_t> out) const;

  /// Fills only the shared operand/transition block of `out` (featureCount()
  /// entries); pair with patchBitFeatures to reuse one extraction across
  /// all output bits of a cycle.
  void extractShared(const TraceRecord& previous, const TraceRecord& current,
                     std::span<std::uint8_t> out) const;

  /// Overwrites the two per-bit yRTL_n entries of `out` (no-op when the
  /// output-bit features are ablated).
  void patchBitFeatures(const TraceRecord& previous,
                        const TraceRecord& current, int bit,
                        std::span<std::uint8_t> out) const;

  /// Packs one block of up to 64 consecutive record pairs
  /// (records[r], records[r+1]), r = 0 .. records.size()-2, into
  /// caller-owned single-word bit columns: sharedOut[f] = shared feature
  /// f (bit r = row r's value), goldPrevOut[b] / goldCurOut[b] = output
  /// bit b's yRTL[t-1] / yRTL[t] columns (untouched when the output-bit
  /// features are ablated). Tail bits past the row count are zero.
  /// Allocation-free — this is the per-block body of packTrace(), shared
  /// with BitLevelPredictor's block step (predictFlipsBlock, evaluate) so
  /// training and prediction pack bit-identically by construction.
  /// Requires 2..65 records, sharedOut.size() >= sharedFeatureCount(),
  /// and (unless ablated) gold spans of >= outputBitCount() words.
  void packBlock(std::span<const TraceRecord> records,
                 std::span<std::uint64_t> sharedOut,
                 std::span<std::uint64_t> goldPrevOut,
                 std::span<std::uint64_t> goldCurOut) const;

  /// Packs a whole trace into bit-columns: the shared block is extracted
  /// once per *trace*, the gold/label columns once per *bit* — the 33x
  /// redundant per-bit re-extraction of the seed pipeline collapses into
  /// this one pass.
  [[nodiscard]] PackedTraceFeatures packTrace(const Trace& trace) const;

  /// Assembles output bit `bit`'s training view over `packed`: column
  /// pointers into the shared matrix plus the bit's gold and label columns.
  /// No copies; the view lives as long as `packed`.
  [[nodiscard]] ml::PackedView bitView(const PackedTraceFeatures& packed,
                                       int bit) const;

  /// Human-readable name of feature `index` ("a3[t]", "cin[t-1]",
  /// "yRTL_n[t]", ...), for importance reports.
  [[nodiscard]] std::string featureName(std::size_t index) const;

  /// The golden (RTL) value of output bit `bit` in `rec` (sum or carry).
  [[nodiscard]] static bool goldBit(const TraceRecord& rec, int bit,
                                    int width) noexcept;
  /// The silver (overclocked) value of output bit `bit`.
  [[nodiscard]] static bool silverBit(const TraceRecord& rec, int bit,
                                      int width) noexcept;
  /// Timing class of output bit `bit`: true = timing-erroneous.
  [[nodiscard]] static bool timingErroneous(const TraceRecord& rec, int bit,
                                            int width) noexcept {
    return goldBit(rec, bit, width) != silverBit(rec, bit, width);
  }
  /// Every output bit's timing class of `rec` in one word: bit b is
  /// timingErroneous(rec, b, width()), the carry-out at bit width(). The
  /// one label definition, shared by training (packTrace) and evaluate.
  [[nodiscard]] std::uint64_t labelWord(const TraceRecord& rec) const noexcept {
    const std::uint64_t coutBit = std::uint64_t{1} << width_;
    return ((rec.gold ^ rec.silver) & (coutBit - 1)) |
           (rec.goldCout != rec.silverCout ? coutBit : 0);
  }

 private:
  int width_;
  bool includeOutputBits_;
  std::size_t featureCount_;
};

}  // namespace oisa::predict
