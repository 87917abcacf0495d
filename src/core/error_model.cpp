#include "core/error_model.h"

namespace oisa::core {

namespace {

/// a - b wrapped, read as two's complement (see ErrorSample).
constexpr std::int64_t wrappedError(std::uint64_t a,
                                    std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a - b);
}

/// Folds the contribution `t.*To - t.*From` of every triple into
/// `arithOut` and, for y_diamond != 0, its relative form into `relOut`:
/// non-zero terms in order, zero terms (+0.0 as integers and as
/// +0.0 / y_diamond) as counts. The fold runs on local copies, which the
/// compiler keeps in registers (the two outputs might alias).
template <std::uint64_t OutputTriple::*To, std::uint64_t OutputTriple::*From>
void foldContribution(std::span<const OutputTriple> triples,
                      ErrorStats& arithOut, ErrorStats& relOut) noexcept {
  ErrorStats arith = arithOut;
  ErrorStats rel = relOut;
  std::uint64_t zeros = 0;
  std::uint64_t relZeros = 0;
  for (const OutputTriple& t : triples) {
    const std::int64_t e = wrappedError(t.*To, t.*From);
    if (e == 0) {
      ++zeros;
      relZeros += t.diamond != 0 ? 1 : 0;
      continue;
    }
    const auto v = static_cast<double>(e);
    arith.add(v);
    if (t.diamond != 0) rel.add(v / static_cast<double>(t.diamond));
  }
  arith.addZeros(zeros);
  rel.addZeros(relZeros);
  arithOut = arith;
  relOut = rel;
}

}  // namespace

ErrorSample decomposeErrors(const OutputTriple& t) noexcept {
  ErrorSample s;
  s.eStruct = wrappedError(t.gold, t.diamond);
  s.eTiming = wrappedError(t.silver, t.gold);
  s.eJoint = wrappedError(t.silver, t.diamond);
  if (t.diamond != 0) {
    const double d = static_cast<double>(t.diamond);
    s.reStruct = static_cast<double>(s.eStruct) / d;
    s.reTiming = static_cast<double>(s.eTiming) / d;
    s.reJoint = static_cast<double>(s.eJoint) / d;
  }
  return s;
}

void ErrorCombination::add(const OutputTriple& t) noexcept {
  const ErrorSample s = decomposeErrors(t);
  ++cycles_;
  eStruct_.add(static_cast<double>(s.eStruct));
  eTiming_.add(static_cast<double>(s.eTiming));
  eJoint_.add(static_cast<double>(s.eJoint));
  if (s.reStruct) {
    reStruct_.add(*s.reStruct);
    reTiming_.add(*s.reTiming);
    reJoint_.add(*s.reJoint);
  } else {
    ++skipped_;
  }
}

void ErrorCombination::add(std::span<const OutputTriple> triples) noexcept {
  cycles_ += triples.size();
  for (const OutputTriple& t : triples) skipped_ += t.diamond == 0 ? 1 : 0;
  foldContribution<&OutputTriple::gold, &OutputTriple::diamond>(
      triples, eStruct_, reStruct_);
  foldContribution<&OutputTriple::silver, &OutputTriple::gold>(
      triples, eTiming_, reTiming_);
  foldContribution<&OutputTriple::silver, &OutputTriple::diamond>(
      triples, eJoint_, reJoint_);
}

}  // namespace oisa::core
