// Bounded-memory time series: fixed-width windows of accumulated samples.
//
// The telemetry subsystem (noc/telemetry.hpp) records one value per metric
// per sampling window. Runs of unknown length must not grow memory without
// bound, so both containers here cap the number of stored windows: when a
// sample lands past the cap, adjacent windows are pairwise merged and the
// window width doubles (repeatedly, until the sample fits). Because windows
// store *sums*, downsampling is exact — no information is lost beyond time
// resolution, and totals are preserved (tested in test_timeseries.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gnoc {

/// One scalar metric over time: consecutive windows of `window_width()`
/// cycles, each holding the sum of the samples accumulated into it.
/// Rate-like exports divide by the window width; gauge-like metrics
/// accumulate value x cycles and divide back the same way.
class TimeSeries {
 public:
  /// `window_width` is the initial window size in cycles; `max_windows`
  /// bounds memory (0 = unbounded, windows never merge).
  explicit TimeSeries(Cycle window_width, std::size_t max_windows = 0);

  /// Default: 1-cycle windows, unbounded (placeholder; reassign before use).
  TimeSeries() : TimeSeries(1) {}

  /// Adds `value` into the window containing cycle `now`, creating empty
  /// windows (and downsampling, when capped) as needed.
  void Accumulate(Cycle now, double value);

  /// Current window width: the initial width times 2^(downsample passes).
  Cycle window_width() const { return width_; }
  std::size_t max_windows() const { return max_windows_; }

  std::size_t num_windows() const { return sums_.size(); }
  bool empty() const { return sums_.empty(); }

  /// First cycle covered by window `i` (the window spans
  /// [WindowStart(i), WindowStart(i) + window_width())).
  Cycle WindowStart(std::size_t i) const { return static_cast<Cycle>(i) * width_; }

  /// Sum accumulated into window `i`.
  double Sum(std::size_t i) const { return sums_.at(i); }

  /// Sum over all windows (invariant under downsampling).
  double Total() const;

  /// Snapshot support: persists the current width (it doubles on
  /// downsampling), not the construction-time width. Load refuses width 0.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.width_);
    Io(ar, self.max_windows_);
    IoSeq(ar, self.sums_);
  }

  /// Merges adjacent window pairs and doubles the width.
  void Downsample();

  Cycle width_;
  std::size_t max_windows_;
  std::vector<double> sums_;
};

/// A histogram per time window, with the same fixed-width / pairwise-merge
/// memory bound as TimeSeries (histogram merges use Histogram::Merge, so
/// bucket counts — and therefore window percentiles — stay exact).
class HistogramSeries {
 public:
  HistogramSeries(Cycle window_width, std::size_t max_windows,
                  double bucket_width, std::size_t num_buckets);

  /// Adds `sample` to the histogram of the window containing cycle `now`.
  void Add(Cycle now, double sample);

  Cycle window_width() const { return width_; }
  std::size_t num_windows() const { return windows_.size(); }
  bool empty() const { return windows_.empty(); }
  Cycle WindowStart(std::size_t i) const { return static_cast<Cycle>(i) * width_; }
  const Histogram& Window(std::size_t i) const { return windows_.at(i); }

  /// Snapshot support. Load refuses width 0, a bucket geometry Histogram
  /// refuses and windows whose geometry differs from the series'.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.width_);
    Io(ar, self.max_windows_);
    Io(ar, self.bucket_width_);
    Io(ar, self.num_buckets_);
    // Each window loads its own (checked) geometry into the placeholder.
    IoSeq(ar, self.windows_, Histogram(1.0, 1));
  }

  void Downsample();

  Cycle width_;
  std::size_t max_windows_;
  double bucket_width_;
  std::size_t num_buckets_;
  std::vector<Histogram> windows_;
};

}  // namespace gnoc
