// Unit tests for the fixed-bucket log-scale SLO histogram
// (serve/slo_histogram.hpp):
//   * exact bucket boundaries: the log-linear index function is contiguous
//     and its lower bounds invert it exactly at every boundary;
//   * quantiles are monotone in q, clamp to the recorded extremes, and an
//     empty histogram reports 0 everywhere;
//   * merge is associative and commutative across shard folds, with the
//     default-constructed histogram as the identity;
//   * values past 2^40 saturate into the overflow bucket (counted, exact
//     max preserved) and u64 counters saturate instead of wrapping;
//   * record(v, c) equals c repeated record(v) calls, saturation included.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serve/slo_histogram.hpp"

namespace speedqm {
namespace {

TEST(SloHistogram, BucketIndexIsContiguousAndLowerBoundInvertsIt) {
  // Small values get exact unit buckets.
  for (std::uint64_t v = 0; v < SloHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(SloHistogram::bucket_index(v), v);
    EXPECT_EQ(SloHistogram::bucket_lower_bound(v), v);
  }
  // Indices never decrease and never skip as values sweep upward.
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (1u << 14); ++v) {
    const std::size_t bucket = SloHistogram::bucket_index(v);
    EXPECT_GE(bucket, prev);
    EXPECT_LE(bucket, prev + 1);
    prev = bucket;
  }
  // Every regular bucket's lower bound maps back to that bucket, and the
  // value just below it maps to the previous bucket (exact boundaries).
  for (std::size_t b = 1; b < SloHistogram::kRegularBuckets; ++b) {
    const std::uint64_t lo = SloHistogram::bucket_lower_bound(b);
    EXPECT_EQ(SloHistogram::bucket_index(lo), b) << "bucket " << b;
    EXPECT_EQ(SloHistogram::bucket_index(lo - 1), b - 1) << "bucket " << b;
    EXPECT_GT(lo, SloHistogram::bucket_lower_bound(b - 1));
  }
  // Power-of-two boundaries land exactly on a fresh bucket.
  for (std::uint64_t exp = 2; exp < SloHistogram::kMaxExponent; ++exp) {
    const std::uint64_t v = std::uint64_t{1} << exp;
    EXPECT_NE(SloHistogram::bucket_index(v), SloHistogram::bucket_index(v - 1));
  }
}

TEST(SloHistogram, EmptyHistogramReportsZeroes) {
  const SloHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.mean(), 0u);
}

TEST(SloHistogram, QuantilesAreMonotoneAndClampToRecordedExtremes) {
  SloHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 13 + 7);
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.001) {
    const std::uint64_t value = h.quantile(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
  EXPECT_GE(h.quantile(0.0), h.min_value());
  EXPECT_LE(h.quantile(1.0), h.max_value());
  EXPECT_EQ(h.min_value(), 20u);
  EXPECT_EQ(h.max_value(), 13007u);
  // The median of a bucketized uniform ramp sits near the true median,
  // within one sub-bucket's relative width (25%).
  const std::uint64_t p50 = h.p50();
  EXPECT_GE(p50, 6507u * 3 / 4);
  EXPECT_LE(p50, 6507u);
}

TEST(SloHistogram, SingleValueQuantilesAreExact) {
  SloHistogram h;
  h.record(4096);
  EXPECT_EQ(h.p50(), 4096u);
  EXPECT_EQ(h.p99(), 4096u);
  EXPECT_EQ(h.p999(), 4096u);
}

TEST(SloHistogram, MergeIsAssociativeAndCommutativeWithIdentity) {
  SloHistogram a;
  SloHistogram b;
  SloHistogram c;
  for (std::uint64_t v = 0; v < 500; ++v) a.record(v * v + 3);
  for (std::uint64_t v = 0; v < 300; ++v) b.record(v * 17 + 1);
  for (std::uint64_t v = 0; v < 100; ++v) c.record(v << (v % 30));

  // (a + b) + c == a + (b + c)
  SloHistogram left = a;
  left.merge(b);
  left.merge(c);
  SloHistogram bc = b;
  bc.merge(c);
  SloHistogram right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);

  // a + b == b + a
  SloHistogram ab = a;
  ab.merge(b);
  SloHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  // The empty histogram is the identity on both sides.
  SloHistogram with_empty = a;
  with_empty.merge(SloHistogram{});
  EXPECT_EQ(with_empty, a);
  SloHistogram from_empty;
  from_empty.merge(a);
  EXPECT_EQ(from_empty, a);
}

TEST(SloHistogram, MergeMatchesDirectRecording) {
  // Shard-fold equivalence: recording a stream split across shards and
  // merging equals recording the whole stream into one histogram.
  SloHistogram whole;
  SloHistogram shard0;
  SloHistogram shard1;
  for (std::uint64_t v = 0; v < 2000; ++v) {
    const std::uint64_t value = (v * 2654435761u) % 1000000;
    whole.record(value);
    (v % 2 == 0 ? shard0 : shard1).record(value);
  }
  SloHistogram folded = shard0;
  folded.merge(shard1);
  EXPECT_EQ(folded, whole);
}

TEST(SloHistogram, OverflowBucketSaturatesValuesButKeepsExactMax) {
  SloHistogram h;
  const std::uint64_t huge = std::uint64_t{1} << SloHistogram::kMaxExponent;
  const std::uint64_t below = huge - 1;
  h.record(below);
  EXPECT_EQ(h.overflow_count(), 0u);
  h.record(huge);
  h.record(huge + 12345);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.overflow_count(), 3u);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_EQ(h.max_value(), std::numeric_limits<std::uint64_t>::max());
  // Tail quantiles inside the overflow bucket report the exact max.
  EXPECT_EQ(h.quantile(1.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(SloHistogram, CountersSaturateInsteadOfWrapping) {
  SloHistogram h;
  const std::uint64_t half = std::numeric_limits<std::uint64_t>::max() / 2 + 1;
  h.record(7, half);
  h.record(7, half);
  EXPECT_EQ(h.total_count(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.count_at(SloHistogram::bucket_index(7)),
            std::numeric_limits<std::uint64_t>::max());
  // Merging saturated histograms stays saturated (and keeps merge
  // associative: saturating unsigned addition is order-insensitive).
  SloHistogram other;
  other.record(7, 10);
  h.merge(other);
  EXPECT_EQ(h.total_count(), std::numeric_limits<std::uint64_t>::max());
}

TEST(SloHistogram, CountedRecordEqualsRepeatedRecords) {
  // record(v, c) must equal c calls of record(v) in every observable:
  // the summary fold coalesces runs of equal latencies into one call.
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t values[] = {0, 1, 3, 4, 7, 200, 12345,
                                  (std::uint64_t{1} << 40) - 1,
                                  std::uint64_t{1} << 40, kMax / 2 + 1, kMax};
  for (const std::uint64_t v : values) {
    for (const std::uint64_t c : {1u, 2u, 3u, 17u, 1000u}) {
      SloHistogram counted;
      SloHistogram repeated;
      counted.record(5);  // a prior value, so min/max/sum are not fresh
      repeated.record(5);
      counted.record(v, c);
      for (std::uint64_t k = 0; k < c; ++k) repeated.record(v);
      SCOPED_TRACE("value " + std::to_string(v) + " count " +
                   std::to_string(c));
      EXPECT_EQ(counted.total_count(), repeated.total_count());
      EXPECT_EQ(counted.sum(), repeated.sum());
      EXPECT_EQ(counted.min_value(), repeated.min_value());
      EXPECT_EQ(counted.max_value(), repeated.max_value());
      for (std::size_t b = 0; b < SloHistogram::kNumBuckets; ++b) {
        EXPECT_EQ(counted.count_at(b), repeated.count_at(b)) << "bucket " << b;
      }
      EXPECT_EQ(counted, repeated);
    }
  }
  // A sum that saturates at 2^64 - 1 saturates the same way both ways.
  SloHistogram counted;
  SloHistogram repeated;
  counted.record(kMax / 2 + 1, 2);
  repeated.record(kMax / 2 + 1);
  repeated.record(kMax / 2 + 1);
  EXPECT_EQ(counted.sum(), kMax);
  EXPECT_EQ(repeated.sum(), kMax);
  EXPECT_EQ(counted, repeated);
  // A zero count records nothing.
  SloHistogram none;
  none.record(42, 0);
  EXPECT_EQ(none, SloHistogram{});
}

TEST(SloHistogram, MemoryFootprintIsFixed) {
  SloHistogram h;
  const std::size_t before = SloHistogram::memory_bytes();
  for (std::uint64_t v = 0; v < 100000; ++v) h.record(v * 31);
  EXPECT_EQ(SloHistogram::memory_bytes(), before);
}

}  // namespace
}  // namespace speedqm
