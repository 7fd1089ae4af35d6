// Deterministic digest of a serving result: the admission log (price
// included), every shard's membership and RunSummary, total_ops and the
// bits of mean_quality, plus the front-end counters. Host-measured fields
// (wall time, queue rejects, hang alarms) are left out, so two runs of the
// same inputs digest equal exactly when their deterministic results are
// bit-identical.
#pragma once

#include <cstdint>

#include "serve/serving_summary.hpp"

namespace perfbench {

std::uint64_t digest(const speedqm::ServingSummary& summary);

}  // namespace perfbench
