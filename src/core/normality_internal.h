#ifndef CHARLES_CORE_NORMALITY_INTERNAL_H_
#define CHARLES_CORE_NORMALITY_INTERNAL_H_

/// \file
/// The power-of-ten table behind NumberNormality and SnapCandidates
/// (core/normality.h). Not part of the public API; declared here so tests
/// can check the table and its index range.

namespace charles {
namespace normality_internal {

/// Exponent range of the table. Finite |value| > 1e-300 has a decimal
/// exponent in [-300, 308]; SnapCandidates reads one power above and three
/// below it.
inline constexpr int kMinPowerOfTen = -303;
inline constexpr int kMaxPowerOfTen = 309;

/// floor(log10(|value|)) as an int; `value` must be finite and non-zero.
int DecimalExponent(double value);

/// The table's 10^k (bit-equal to std::pow(10.0, k)); k must lie in
/// [kMinPowerOfTen, kMaxPowerOfTen].
double PowerOfTen(int k);

}  // namespace normality_internal
}  // namespace charles

#endif  // CHARLES_CORE_NORMALITY_INTERNAL_H_
