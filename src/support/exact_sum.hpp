// Exact double sums of integer nanosecond values.
//
// Controller models and admission sum integer ns costs in double (the
// coexistence margin divides such a sum by an action count). Integers
// below 2^53 are exact in double, so while every partial sum stays below
// that bound the sum is exact in any order, and a total computed once can
// stand in for any re-summation of a subset (total − part is exact too).
// checked_exact_sum is the gate that makes that assumption hold.
#pragma once

#include <vector>

#include "support/contract.hpp"
#include "support/time.hpp"

namespace speedqm {

/// Sums of integer ns values are exact in double below this bound.
inline constexpr TimeNs kExactDoubleSumLimit = TimeNs{1} << 53;

/// Σ `values`, checked in every build: throws contract_error on a negative
/// value or when the sum reaches kExactDoubleSumLimit, so every partial
/// sum of the values, in any order, is exact in double.
inline TimeNs checked_exact_sum(const std::vector<TimeNs>& values) {
  TimeNs total = 0;
  for (const TimeNs v : values) {
    if (v < 0 || v >= kExactDoubleSumLimit - total) {
      throw contract_error(
          "checked_exact_sum: values must be >= 0 and sum below 2^53 ns");
    }
    total += v;
  }
  return total;
}

}  // namespace speedqm
