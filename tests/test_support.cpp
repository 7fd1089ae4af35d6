// Unit tests for src/support: time formatting, RNG determinism and
// distribution sanity, statistics, CSV quoting, table rendering,
// cache-line placement.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/batch_engine.hpp"
#include "sim/metrics.hpp"
#include "support/cache_line.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/time.hpp"

namespace speedqm {
namespace {

TEST(CacheLineTest, VectorsAndHotClassesOwnTheirLines) {
  // Two shards' small per-task arrays, allocated back to back, must not
  // share a line: each buffer starts on a line boundary, and a one-element
  // buffer still takes the whole line.
  CacheLineVector<std::uint8_t> a(1), b(1);
  const auto addr = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  EXPECT_EQ(addr(a.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(addr(b.data()) % kCacheLineBytes, 0u);
  EXPECT_NE(addr(a.data()) / kCacheLineBytes, addr(b.data()) / kCacheLineBytes);
  a.assign(200, 7);
  EXPECT_EQ(addr(a.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(a[199], 7);
  static_assert(alignof(RunSummaryAccumulator) == kCacheLineBytes);
  static_assert(sizeof(RunSummaryAccumulator) % kCacheLineBytes == 0);
  static_assert(alignof(MultiTaskEpochManager) == kCacheLineBytes);
}

TEST(TimeTest, UnitConstructors) {
  EXPECT_EQ(ns(1), 1);
  EXPECT_EQ(us(1), 1'000);
  EXPECT_EQ(ms(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_sec(sec(30)), 30.0);
  EXPECT_DOUBLE_EQ(to_ms(ms(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_us(us(7)), 7.0);
  EXPECT_EQ(from_sec(1.5), sec(1) + ms(500));
  EXPECT_EQ(from_ms(0.001), us(1));
  EXPECT_EQ(from_us(2.0), us(2));
}

TEST(TimeTest, FormatSelectsUnits) {
  EXPECT_EQ(format_time(ns(123)), "123 ns");
  EXPECT_EQ(format_time(us(12)), "12.000 us");
  EXPECT_EQ(format_time(ms(3)), "3.000 ms");
  EXPECT_EQ(format_time(sec(2)), "2.000 s");
  EXPECT_EQ(format_time(kTimePlusInf), "+inf");
  EXPECT_EQ(format_time(kTimeMinusInf), "-inf");
}

TEST(RngTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Xoshiro256 rng(11);
  int counts[6] = {0};
  for (int i = 0; i < 60'000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_GT(c, 9'000);
    EXPECT_LT(c, 11'000);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Xoshiro256 rng(13);
  RunningStats st;
  for (int i = 0; i < 50'000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(RngTest, ClampedNormalRespectsBounds) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.clamped_normal(1.0, 0.5, 0.8, 1.2);
    ASSERT_GE(x, 0.8);
    ASSERT_LE(x, 1.2);
  }
}

TEST(RngTest, TriangularStaysInSupportAndPeaksAtMode) {
  Xoshiro256 rng(19);
  RunningStats st;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.triangular(0.0, 1.0, 4.0);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 4.0);
    st.add(x);
  }
  EXPECT_NEAR(st.mean(), (0.0 + 1.0 + 4.0) / 3.0, 0.05);
}

TEST(RngTest, UniformRejectsInvertedRange) {
  Xoshiro256 rng(23);
  EXPECT_THROW(rng.uniform(2.0, 1.0), contract_error);
  EXPECT_THROW(rng.uniform_int(5, 4), contract_error);
}

TEST(Ar1Test, StationaryMeanIsRespected) {
  Ar1Process p(10.0, 0.9, 0.5, 31);
  RunningStats st;
  for (int i = 0; i < 50'000; ++i) st.add(p.next());
  EXPECT_NEAR(st.mean(), 10.0, 0.2);
}

TEST(Ar1Test, CorrelationIsPositive) {
  Ar1Process p(0.0, 0.9, 1.0, 37);
  double prev = p.next();
  double cov = 0, var = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = p.next();
    cov += prev * x;
    var += prev * prev;
    prev = x;
  }
  EXPECT_NEAR(cov / var, 0.9, 0.03);
}

TEST(Ar1Test, RejectsBadParameters) {
  EXPECT_THROW(Ar1Process(0.0, 1.0, 1.0, 1), contract_error);
  EXPECT_THROW(Ar1Process(0.0, -0.1, 1.0, 1), contract_error);
  EXPECT_THROW(Ar1Process(0.0, 0.5, -1.0, 1), contract_error);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_NEAR(st.stddev(), 2.1380899, 1e-6);  // sample stddev
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  Xoshiro256 rng(41);
  RunningStats all, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 12.5), 1.5);
}

TEST(StatsTest, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), contract_error);
  EXPECT_THROW(percentile({1.0}, 101), contract_error);
}

TEST(StatsTest, HistogramBinsAndClamps) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);  // clamps to bin 0
  h.add(15.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(CsvTest, WritesQuotedFields) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter w(path);
    w.row({"a", "b,with,commas", "c\"quoted\""});
    w.begin_row().col(1).col(2.5).col("plain").end_row();
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,with,commas\",\"c\"\"quoted\"\"\"");
  EXPECT_EQ(line2, "1,2.5,plain");
  std::remove(path.c_str());
}

TEST(CsvTest, EnforcesRowProtocol) {
  const std::string path = "test_csv_proto.csv";
  {
    CsvWriter w(path);
    EXPECT_THROW(w.col("x"), contract_error);
    w.begin_row();
    EXPECT_THROW(w.begin_row(), contract_error);
    w.col("x");
    w.end_row();
    EXPECT_THROW(w.end_row(), contract_error);
  }
  std::remove(path.c_str());
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.begin_row().cell("alpha").cell(1.5).end_row();
  t.begin_row().cell("b").cell(std::int64_t{42}).end_row();
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, RejectsMalformedRows) {
  TextTable t({"a", "b"});
  t.begin_row().cell("only-one");
  EXPECT_THROW(t.end_row(), contract_error);
}

}  // namespace
}  // namespace speedqm
