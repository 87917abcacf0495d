#include "predict/bit_predictor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "ml/importance.h"
#include "ml/serialize.h"
#include "netlist/bitops.h"
#include "obs/metrics.h"

namespace oisa::predict {

using core::Status;
using core::StatusOr;

BitLevelPredictor::BitLevelPredictor(int width,
                                     const PredictorParams& params)
    : params_(params), extractor_(width, params.includeOutputBits) {}

void BitLevelPredictor::fit(const Trace& trainTrace) {
  if (trainTrace.size() < 2) {
    throw std::invalid_argument(
        "BitLevelPredictor::fit: need at least two records");
  }
  // One packed pass over the trace; the per-bit datasets are views sharing
  // the operand/transition columns (only the two yRTL_n columns and the
  // labels differ per bit).
  fit(extractor_.packTrace(trainTrace));
}

void BitLevelPredictor::fit(const PackedTraceFeatures& packed) {
  validatePacked(packed);
  if (packed.rowCount < 1) {
    throw std::invalid_argument(
        "BitLevelPredictor::fit: need at least one packed row");
  }
  const int bits = extractor_.outputBitCount();
  ml::FlatForestBank bank(
      static_cast<std::uint32_t>(extractor_.featureCount()));
  std::vector<std::uint32_t> allRows(packed.rowCount);
  std::iota(allRows.begin(), allRows.end(), 0u);
  for (int bit = 0; bit < bits; ++bit) {
    const ml::PackedView view = extractor_.bitView(packed, bit);
    const std::uint64_t seed =
        params_.seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(bit + 1);
    if (params_.model == ModelKind::RandomForest) {
      bank.addForest(view, params_.forest, seed);
      continue;
    }
    // The ablation kinds grow one tree on every row: plain CART, or a
    // single leaf (maxDepth 0) for the majority baseline.
    std::mt19937_64 rng(seed);
    bank.addTree(view, allRows,
                 params_.model == ModelKind::DecisionTree
                     ? ml::TreeParams{}
                     : ml::TreeParams{.maxDepth = 0},
                 rng);
  }
  // One add per fit, never per node: oisa_ml itself stays free of obs.
  static obs::Counter& nodesGrown = obs::counter("ml.nodes_grown");
  nodesGrown.add(bank.view().nodeCount());
  flatBank_ = std::move(bank);
  mappedBank_ = ml::MappedForestBank{};  // re-fit drops any mapped file
  trained_ = true;
}

std::vector<double> BitLevelPredictor::featureImportance() const {
  std::vector<double> total(extractor_.featureCount(), 0.0);
  if (!trained_) return total;
  const ml::FlatBankView flat = flatView();
  for (std::size_t forest = 0; forest < flat.forestCount(); ++forest) {
    const std::vector<double> one = ml::featureImportance(flat, forest);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += one[i];
  }
  double sum = 0.0;
  for (const double v : total) sum += v;
  if (sum > 0.0) {
    for (double& v : total) v /= sum;
  }
  return total;
}

core::Status BitLevelPredictor::saveFlat(const std::string& path) const {
  if (!trained_) {
    return Status::invalidInput(
        "BitLevelPredictor::saveFlat: only trained banks persist");
  }
  return ml::writeFlatBankFile(
      path, flatView(), static_cast<std::uint32_t>(extractor_.width()),
      params_.includeOutputBits ? 1u : 0u);
}

core::StatusOr<BitLevelPredictor> BitLevelPredictor::loadFlat(
    const std::string& path) {
  StatusOr<ml::MappedForestBank> bank = ml::MappedForestBank::open(path);
  if (!bank.isOk()) return bank.status();
  const std::uint32_t width = bank.value().meta0();
  if (width < 1 || width > 63) {
    return Status::corruption("BitLevelPredictor::loadFlat: width " +
                              std::to_string(width) + " out of range");
  }
  PredictorParams params;
  params.includeOutputBits = (bank.value().meta1() & 1u) != 0;
  BitLevelPredictor predictor(static_cast<int>(width), params);
  const ml::FlatBankView& view = bank.value().view();
  if (view.forestCount() != static_cast<std::size_t>(width) + 1) {
    return Status::corruption(
        "BitLevelPredictor::loadFlat: bank count mismatch (" +
        std::to_string(view.forestCount()) + " forests for width " +
        std::to_string(width) + ")");
  }
  if (view.featureCount != predictor.extractor_.featureCount()) {
    return Status::corruption(
        "BitLevelPredictor::loadFlat: feature count mismatch");
  }
  predictor.mappedBank_ = std::move(bank).value();
  predictor.trained_ = true;
  return predictor;
}

void BitLevelPredictor::predictBlock(
    std::span<const TraceRecord> records,
    std::array<std::uint64_t, 64>& flips) const {
  const std::size_t shared = extractor_.sharedFeatureCount();
  // Everything below lives on the stack: kMaxFeatureCount caps the
  // feature columns (width <= 63) and output bits fit one 64-word block.
  std::array<std::uint64_t, FeatureExtractor::kMaxFeatureCount> featureWords;
  std::array<std::uint64_t, 64> goldPrevCols;
  std::array<std::uint64_t, 64> goldCurCols;
  extractor_.packBlock(records, std::span(featureWords).first(shared),
                       goldPrevCols, goldCurCols);
  const ml::FlatBankView flat = flatView();
  std::array<double, 64> probabilities;
  const std::span<const std::uint64_t> features(featureWords.data(),
                                                extractor_.featureCount());
  const auto bits = static_cast<std::size_t>(extractor_.outputBitCount());
  flips.fill(0);
  for (std::size_t b = 0; b < bits; ++b) {
    if (params_.includeOutputBits) {
      featureWords[shared] = goldPrevCols[b];
      featureWords[shared + 1] = goldCurCols[b];
    }
    probabilities.fill(0.0);
    flips[b] = ml::FlatForest(flat, b).predictWord(features,
                                                   probabilities.data());
  }
  netlist::transpose64(flips);
}

void BitLevelPredictor::predictFlipsBlock(
    std::span<const TraceRecord> records,
    std::span<PredictedFlips> out) const {
  if (!trained_) {
    throw std::logic_error("BitLevelPredictor: predict before fit");
  }
  // packBlock rejects any record count outside 2..65.
  if (out.size() != records.size() - 1) {
    throw std::invalid_argument(
        "BitLevelPredictor::predictFlipsBlock: out must hold one entry per "
        "record pair");
  }
  std::array<std::uint64_t, 64> flips;
  predictBlock(records, flips);
  const std::uint64_t coutBit = std::uint64_t{1} << extractor_.width();
  for (std::size_t lane = 0; lane < out.size(); ++lane) {
    out[lane].sumFlips = flips[lane] & (coutBit - 1);
    out[lane].coutFlip = (flips[lane] & coutBit) != 0;
  }
  // Serving telemetry: three adds per <=64-record block, never per lane.
  // Occupancy tracks how full the batch-64 blocks arrive — the request
  // coalescing headroom the future serving layer cares about.
  static obs::Counter& blocksServed = obs::counter("predict.blocks_served");
  static obs::Counter& recordsServed = obs::counter("predict.records_served");
  static obs::Histogram& occupancy = obs::histogram("predict.block_occupancy");
  blocksServed.add();
  recordsServed.add(out.size());
  occupancy.record(out.size());
}

PredictedFlips BitLevelPredictor::predictFlipsReference(
    const TraceRecord& previous, const TraceRecord& current) const {
  if (!trained_) {
    throw std::logic_error("BitLevelPredictor: predict before fit");
  }
  PredictedFlips flips;
  // Stack row buffer (width <= 63 caps featureCount); the shared operand
  // block is extracted once, only the two yRTL_n bytes change per bit.
  std::array<std::uint8_t, FeatureExtractor::kMaxFeatureCount> buffer;
  const std::span<std::uint8_t> row{buffer.data(),
                                    extractor_.featureCount()};
  extractor_.extractShared(previous, current, row);
  const ml::FlatBankView flat = flatView();
  const int width = extractor_.width();
  for (int bit = 0; bit <= width; ++bit) {
    extractor_.patchBitFeatures(previous, current, bit, row);
    if (!ml::FlatForest(flat, static_cast<std::size_t>(bit)).predict(row)) {
      continue;
    }
    if (bit == width) {
      flips.coutFlip = true;
    } else {
      flips.sumFlips |= std::uint64_t{1} << bit;
    }
  }
  return flips;
}

void BitLevelPredictor::validatePacked(
    const PackedTraceFeatures& packed) const {
  const auto bits = static_cast<std::size_t>(extractor_.outputBitCount());
  const std::size_t expected = bits * packed.wordCount;
  if (packed.sharedCount != extractor_.sharedFeatureCount() ||
      packed.labels.size() != expected ||
      (params_.includeOutputBits &&
       (packed.goldPrev.size() != expected ||
        packed.goldCur.size() != expected))) {
    throw std::invalid_argument(
        "BitLevelPredictor: packed columns do not match the extractor "
        "configuration (width / output-bit ablation)");
  }
}

PredictorEvaluation BitLevelPredictor::evaluate(
    const Trace& testTrace, const PackedTraceFeatures& packed) const {
  validatePacked(packed);
  if (testTrace.size() < 2 || packed.rowCount != testTrace.size() - 1) {
    throw std::invalid_argument(
        "BitLevelPredictor::evaluate: packed rows must be the trace's "
        "consecutive record pairs");
  }
  return evaluate(testTrace);
}

PredictorEvaluation BitLevelPredictor::evaluate(const Trace& testTrace) const {
  if (!trained_) {
    throw std::logic_error("BitLevelPredictor: evaluate before fit");
  }
  if (testTrace.size() < 2) {
    throw std::invalid_argument(
        "BitLevelPredictor::evaluate: need at least two records");
  }
  const int width = extractor_.width();
  const auto bits = static_cast<std::size_t>(extractor_.outputBitCount());
  const std::uint64_t coutBit = std::uint64_t{1} << width;
  const std::uint64_t sumMask = coutBit - 1;
  PredictorEvaluation eval;
  std::array<std::uint64_t, 64> wrong{};
  std::array<std::uint64_t, 64> flips;
  std::array<std::uint64_t, 64> wrongRows;
  double avpeSum = 0.0;
  const std::size_t rows = testTrace.size() - 1;
  for (std::size_t base = 0; base < rows; base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, rows - base);
    predictBlock(std::span(testTrace).subspan(base, lanes + 1), flips);
    wrongRows.fill(0);
    // Value-level accuracy (AVPE): deduce predicted y_silver from y_gold,
    // over full composed output values (sum plus carry-out), in cycle
    // order.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const TraceRecord& cur = testTrace[base + lane + 1];
      wrongRows[lane] = flips[lane] ^ extractor_.labelWord(cur);
      const bool predictedCout = cur.goldCout != ((flips[lane] & coutBit) != 0);
      const std::uint64_t predictedSilver =
          (cur.gold ^ (flips[lane] & sumMask)) |
          (static_cast<std::uint64_t>(predictedCout ? 1 : 0) << width);
      const std::uint64_t realSilver = cur.silverValue(width);
      if (realSilver == 0) {
        ++eval.avpeSkipped;
      } else {
        // Magnitude in integer arithmetic: |a - b| on 64-bit values loses
        // precision past 2^53 when computed on doubles.
        const std::uint64_t diff = predictedSilver >= realSilver
                                       ? predictedSilver - realSilver
                                       : realSilver - predictedSilver;
        avpeSum +=
            static_cast<double>(diff) / static_cast<double>(realSilver);
      }
    }
    eval.cycles += lanes;
    // Bit-level accuracy (ABPER numerator): back to per-bit words, one
    // popcount per bit per block.
    netlist::transpose64(wrongRows);
    for (std::size_t b = 0; b < bits; ++b) {
      wrong[b] += static_cast<std::uint64_t>(std::popcount(wrongRows[b]));
    }
  }

  eval.perBitErrorRate.resize(bits);
  double abperSum = 0.0;
  for (std::size_t b = 0; b < bits; ++b) {
    const double rate =
        static_cast<double>(wrong[b]) / static_cast<double>(eval.cycles);
    eval.perBitErrorRate[b] = rate;
    abperSum += rate;
  }
  eval.abper = abperSum / static_cast<double>(bits);
  const std::uint64_t avpeCycles = eval.cycles - eval.avpeSkipped;
  eval.avpe = avpeCycles ? avpeSum / static_cast<double>(avpeCycles) : 0.0;
  // Two adds per evaluation, outside the block loop.
  static obs::Counter& evaluations = obs::counter("predict.evaluations");
  static obs::Counter& evalRows = obs::counter("predict.eval_rows");
  evaluations.add();
  evalRows.add(eval.cycles);
  return eval;
}

}  // namespace oisa::predict
