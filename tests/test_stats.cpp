// Unit tests for statistics utilities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"
#include "common/stats.hpp"

namespace gnoc {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).Add(v);
    whole.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);

  RunningStats target;
  target.Merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(10.0, 5);  // [0,50) + overflow
  h.Add(0.0);
  h.Add(9.99);
  h.Add(10.0);
  h.Add(49.0);
  h.Add(50.0);
  h.Add(1000.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(HistogramTest, NegativeSamplesClampToFirstBucket) {
  Histogram h(1.0, 4);
  h.Add(-3.0);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(HistogramTest, PercentileIsMonotone) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i));
  const double p25 = h.Percentile(25);
  const double p50 = h.Percentile(50);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(p50, 50.0, 2.0);
}

TEST(HistogramTest, PercentileEmptyIsZero) {
  Histogram h(1.0, 10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, SummaryPercentilesMatchPercentile) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i) + 0.5);
  const Histogram::Percentiles p = h.SummaryPercentiles();
  EXPECT_DOUBLE_EQ(p.p50, h.Percentile(50));
  EXPECT_DOUBLE_EQ(p.p95, h.Percentile(95));
  EXPECT_DOUBLE_EQ(p.p99, h.Percentile(99));
  // One sample per unit bucket: the p-th percentile sits at ~p.
  EXPECT_NEAR(p.p50, 50.0, 1.0);
  EXPECT_NEAR(p.p95, 95.0, 1.0);
  EXPECT_NEAR(p.p99, 99.0, 1.0);
  EXPECT_LE(p.p50, p.p95);
  EXPECT_LE(p.p95, p.p99);
}

TEST(HistogramTest, SummaryPercentilesEmptyIsZero) {
  Histogram h(1.0, 10);
  const Histogram::Percentiles p = h.SummaryPercentiles();
  EXPECT_DOUBLE_EQ(p.p50, 0.0);
  EXPECT_DOUBLE_EQ(p.p95, 0.0);
  EXPECT_DOUBLE_EQ(p.p99, 0.0);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a(10.0, 4);
  Histogram b(10.0, 4);
  a.Add(5.0);
  a.Add(15.0);
  b.Add(5.0);
  b.Add(100.0);  // overflow
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bucket(0), 2u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram a(1.0, 8);
  a.Add(3.0);
  Histogram empty(1.0, 8);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.bucket(3), 1u);
}

TEST(HistogramTest, MergeMismatchedGeometryThrows) {
  // Defined behavior for shape mismatches: throw, never silently widen —
  // telemetry windows rely on every histogram in a series sharing geometry.
  Histogram a(10.0, 4);
  a.Add(5.0);
  Histogram narrower(5.0, 4);
  Histogram shorter(10.0, 2);
  EXPECT_THROW(a.Merge(narrower), std::invalid_argument);
  EXPECT_THROW(a.Merge(shorter), std::invalid_argument);
  // The failed merges left `a` untouched.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.bucket(0), 1u);
}

TEST(GeometricMeanTest, KnownValues) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({4.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(GeometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_NEAR(GeometricMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(GeometricMeanTest, NonPositiveValuesYieldZeroNotNaN) {
  // Degenerate sweeps (deadlocked cells, zero-IPC baselines) feed zeros
  // and worse into the geomean; the summary must stay finite.
  EXPECT_DOUBLE_EQ(GeometricMean({0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GeometricMean({2.0, 0.0, 8.0}), 0.0);
  EXPECT_DOUBLE_EQ(GeometricMean({-1.0, 4.0}), 0.0);
  EXPECT_TRUE(std::isfinite(GeometricMean({0.0, 0.0})));
}

TEST(ArithmeticMeanTest, KnownValues) {
  EXPECT_DOUBLE_EQ(ArithmeticMean({}), 0.0);
  EXPECT_DOUBLE_EQ(ArithmeticMean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatSetTest, SetGetIncrement) {
  StatSet s;
  s.Set("a", 1.0);
  s.Increment("a", 2.0);
  s.Increment("b");
  EXPECT_DOUBLE_EQ(s.Get("a"), 3.0);
  EXPECT_DOUBLE_EQ(s.Get("b"), 1.0);
  EXPECT_DOUBLE_EQ(s.Get("missing", -1.0), -1.0);
  EXPECT_TRUE(s.Contains("a"));
  EXPECT_FALSE(s.Contains("missing"));
}

TEST(StatSetTest, PreservesInsertionOrder) {
  StatSet s;
  s.Set("z", 1.0);
  s.Set("a", 2.0);
  s.Set("m", 3.0);
  s.Set("z", 4.0);  // overwrite must not duplicate
  ASSERT_EQ(s.names().size(), 3u);
  EXPECT_EQ(s.names()[0], "z");
  EXPECT_EQ(s.names()[1], "a");
  EXPECT_EQ(s.names()[2], "m");
}

/// `bytes` with the u64 at `offset` set to `value` (little-endian).
std::string Patched(std::string bytes, std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

// Load refuses the geometry the constructor refuses: Add divides by the
// bucket width, casts the quotient to an index and counts past the last
// regular bucket into counts_.back(). Each case patches one field of a
// saved histogram laid out as: double width @0, u64 count @8, counts @16.
TEST(HistogramTest, LoadRefusesGeometryTheConstructorRefuses) {
  Histogram h(10.0, 4);
  h.Add(5.0);
  h.Add(55.0);
  Serializer s;
  h.Save(s);
  const std::string clean = s.bytes();
  const auto load = [](const std::string& bytes) {
    Histogram out(1.0, 1);
    Deserializer d(bytes);
    out.Load(d);
    return out;
  };
  EXPECT_EQ(load(clean).count(), 2u);
  EXPECT_EQ(load(clean).overflow(), 1u);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double width : {0.0, -10.0, inf, std::nan("")}) {
    EXPECT_THROW(load(Patched(clean, 0, std::bit_cast<std::uint64_t>(width))),
                 SerializeError)
        << width;
  }
  for (const std::uint64_t counts : {0u, 1u}) {
    EXPECT_THROW(load(Patched(clean, 8, counts)), SerializeError) << counts;
  }
  // A count the payload cannot hold is refused before anything is sized.
  EXPECT_THROW(load(Patched(clean, 8, std::uint64_t{1} << 60)),
               SerializeError);
}

}  // namespace
}  // namespace gnoc
