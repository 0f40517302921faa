// Unit tests for the bounded-memory time-series containers that back the
// telemetry subsystem: fixed-width windowing, exact pairwise downsampling,
// and the histogram-per-window variant.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/serialize.hpp"
#include "common/timeseries.hpp"

namespace gnoc {
namespace {

TEST(TimeSeriesTest, AccumulatesIntoContainingWindow) {
  TimeSeries ts(100);
  ts.Accumulate(0, 1.0);
  ts.Accumulate(99, 2.0);   // same window as cycle 0
  ts.Accumulate(100, 4.0);  // next window
  ts.Accumulate(350, 8.0);  // skips window 2, lands in window 3
  ASSERT_EQ(ts.num_windows(), 4u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.Sum(1), 4.0);
  EXPECT_DOUBLE_EQ(ts.Sum(2), 0.0);  // skipped windows exist and hold zero
  EXPECT_DOUBLE_EQ(ts.Sum(3), 8.0);
  EXPECT_EQ(ts.WindowStart(3), 300u);
  EXPECT_DOUBLE_EQ(ts.Total(), 15.0);
}

TEST(TimeSeriesTest, UnboundedNeverMerges) {
  TimeSeries ts(10, /*max_windows=*/0);
  ts.Accumulate(10000, 1.0);
  EXPECT_EQ(ts.window_width(), 10u);
  EXPECT_EQ(ts.num_windows(), 1001u);
}

TEST(TimeSeriesTest, DownsamplingPreservesSums) {
  TimeSeries ts(10, /*max_windows=*/4);
  // Fill four windows with distinct values, then force one downsample.
  for (Cycle c = 0; c < 40; c += 10) {
    ts.Accumulate(c, static_cast<double>(c + 1));  // 1, 11, 21, 31
  }
  const double before = ts.Total();
  ts.Accumulate(45, 5.0);  // index 4 >= cap -> pairwise merge, width 20
  EXPECT_EQ(ts.window_width(), 20u);
  ASSERT_EQ(ts.num_windows(), 3u);
  EXPECT_DOUBLE_EQ(ts.Sum(0), 1.0 + 11.0);   // old windows 0+1
  EXPECT_DOUBLE_EQ(ts.Sum(1), 21.0 + 31.0);  // old windows 2+3
  EXPECT_DOUBLE_EQ(ts.Sum(2), 5.0);          // the new sample, cycle 45
  EXPECT_DOUBLE_EQ(ts.Total(), before + 5.0);
}

TEST(TimeSeriesTest, RepeatedDownsamplingKeepsTotalExact) {
  TimeSeries ts(1, /*max_windows=*/8);
  double expected = 0.0;
  for (Cycle c = 0; c < 1000; ++c) {
    ts.Accumulate(c, static_cast<double>(c));
    expected += static_cast<double>(c);
  }
  EXPECT_LE(ts.num_windows(), 8u);
  // Width grew by powers of two only.
  const Cycle w = ts.window_width();
  EXPECT_EQ(w & (w - 1), 0u);
  EXPECT_DOUBLE_EQ(ts.Total(), expected);
}

TEST(TimeSeriesTest, CapOfOneIsPromotedToTwo) {
  TimeSeries ts(10, /*max_windows=*/1);
  EXPECT_EQ(ts.max_windows(), 2u);
  ts.Accumulate(0, 1.0);
  ts.Accumulate(15, 2.0);
  EXPECT_EQ(ts.num_windows(), 2u);
  EXPECT_DOUBLE_EQ(ts.Total(), 3.0);
}

TEST(HistogramSeriesTest, PerWindowHistograms) {
  HistogramSeries hs(100, /*max_windows=*/0, /*bucket_width=*/10.0,
                     /*num_buckets=*/8);
  hs.Add(50, 5.0);
  hs.Add(60, 15.0);
  hs.Add(150, 25.0);
  ASSERT_EQ(hs.num_windows(), 2u);
  EXPECT_EQ(hs.Window(0).count(), 2u);
  EXPECT_EQ(hs.Window(0).bucket(0), 1u);
  EXPECT_EQ(hs.Window(0).bucket(1), 1u);
  EXPECT_EQ(hs.Window(1).count(), 1u);
  EXPECT_EQ(hs.Window(1).bucket(2), 1u);
}

TEST(HistogramSeriesTest, DownsamplingMergesBucketCountsExactly) {
  HistogramSeries hs(10, /*max_windows=*/4, /*bucket_width=*/1.0,
                     /*num_buckets=*/16);
  for (Cycle c = 0; c < 40; c += 10) {
    hs.Add(c, static_cast<double>(c) / 10.0);  // samples 0, 1, 2, 3
  }
  hs.Add(41, 9.0);  // forces one downsample pass
  EXPECT_EQ(hs.window_width(), 20u);
  ASSERT_EQ(hs.num_windows(), 3u);
  // Old windows {0,1} and {2,3} merged bucket-wise; totals preserved.
  EXPECT_EQ(hs.Window(0).count(), 2u);
  EXPECT_EQ(hs.Window(0).bucket(0), 1u);
  EXPECT_EQ(hs.Window(0).bucket(1), 1u);
  EXPECT_EQ(hs.Window(1).count(), 2u);
  EXPECT_EQ(hs.Window(1).bucket(2), 1u);
  EXPECT_EQ(hs.Window(1).bucket(3), 1u);
  EXPECT_EQ(hs.Window(2).count(), 1u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < hs.num_windows(); ++i) {
    total += hs.Window(i).count();
  }
  EXPECT_EQ(total, 5u);
}

/// `bytes` with the u64 at `offset` set to `value` (little-endian).
std::string Patched(std::string bytes, std::size_t offset, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

/// Loads `bytes` into a placeholder `T` (Load + Finish).
template <class T>
void LoadInto(T& out, const std::string& bytes) {
  Deserializer d(bytes);
  out.Load(d);
  d.Finish();
}

// Accumulate divides by the window width, so Load refuses width 0. Layout:
// u64 width @0, u64 max_windows @8, u64 count @16, sums @24.
TEST(TimeSeriesTest, LoadRefusesWidthZero) {
  TimeSeries ts(10, 8);
  ts.Accumulate(3, 1.0);
  Serializer s;
  ts.Save(s);
  TimeSeries out;
  LoadInto(out, s.bytes());
  EXPECT_EQ(out.window_width(), 10u);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 0, 0)), SerializeError);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 16, std::uint64_t{1} << 40)),
               SerializeError);
}

// Layout: u64 width @0, u64 max_windows @8, double bucket_width @16,
// u64 num_buckets @24, u64 window count @32, windows @40. Load refuses
// width 0 (Add divides by it), sizes nothing from the file's num_buckets
// (a window of that geometry would be allocated up front) and refuses
// windows whose geometry differs from the series' (Downsample merges
// them with windows Add builds).
TEST(HistogramSeriesTest, LoadRefusesWidthZeroAndForeignGeometry) {
  HistogramSeries hs(10, 4, 1.0, 4);
  hs.Add(3, 2.0);
  Serializer s;
  hs.Save(s);
  HistogramSeries out(1, 0, 1.0, 1);
  LoadInto(out, s.bytes());
  ASSERT_EQ(out.num_windows(), 1u);
  EXPECT_EQ(out.Window(0).bucket(2), 1u);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 0, 0)), SerializeError);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 24, std::uint64_t{1} << 60)),
               SerializeError);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 24, 0)), SerializeError);
  EXPECT_THROW(LoadInto(out, Patched(s.bytes(), 32, std::uint64_t{1} << 60)),
               SerializeError);
}

}  // namespace
}  // namespace gnoc
