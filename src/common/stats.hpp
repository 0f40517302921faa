// Statistics utilities used throughout the simulator: counters, running
// means, histograms, and the geometric-mean helper the paper's evaluation
// (Figs. 7-10) reports speedups with.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace gnoc {

class Serializer;
class Deserializer;

/// Accumulates samples and reports count / mean / min / max / variance.
/// Stores only O(1) state (Welford's online algorithm), so it is safe to use
/// for per-cycle statistics.
class RunningStats {
 public:
  void Add(double sample);

  /// Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

  void Reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const;
  double max() const;
  /// Population variance. Zero when fewer than two samples.
  double variance() const;
  double stddev() const;

  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.count_);
    Io(ar, self.mean_);
    Io(ar, self.m2_);
    Io(ar, self.sum_);
    Io(ar, self.min_);
    Io(ar, self.max_);
  }

  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width bucket histogram over [0, bucket_width * num_buckets), with an
/// overflow bucket. Used for packet-latency distributions.
class Histogram {
 public:
  Histogram(double bucket_width, std::size_t num_buckets);

  void Add(double sample);
  void Reset();

  /// Merges a histogram with identical geometry (bucket-wise addition).
  /// Throws std::invalid_argument when the geometries differ — silently
  /// widening would misattribute samples to the wrong latency range.
  void Merge(const Histogram& other);

  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }

  /// Number of regular buckets (excluding overflow).
  std::size_t num_buckets() const { return counts_.size() - 1; }
  double bucket_width() const { return bucket_width_; }

  /// Count in bucket `i`; `i == num_buckets()` addresses the overflow bucket.
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t overflow() const { return counts_.back(); }

  /// Approximate p-th percentile (0 < p <= 100) assuming uniform density
  /// inside each bucket. An empty histogram has no quantiles; it returns 0
  /// for every p (tested behaviour, not an accident).
  double Percentile(double p) const;

  /// The three percentiles dashboards and search objectives care about,
  /// extracted in one pass-friendly call (see Percentile for semantics).
  struct Percentiles {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Percentiles SummaryPercentiles() const;

  /// Snapshot support: geometry and counts. Load refuses a geometry the
  /// constructor would (a width that is not finite and > 0, < 2 counts).
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.bucket_width_);
    IoSeq(ar, self.counts_);
    Io(ar, self.stats_);
  }

  double bucket_width_;
  std::vector<std::uint64_t> counts_;  // last entry = overflow
  RunningStats stats_;
};

/// Geometric mean of a set of values. Returns 0 for an empty input or when
/// any value is <= 0 (the product's continuous limit), so summaries over
/// degenerate sweeps (zero-IPC baselines, deadlocked cells) never produce
/// NaN or -inf.
double GeometricMean(const std::vector<double>& values);

/// Arithmetic mean; 0 for empty input.
double ArithmeticMean(const std::vector<double>& values);

/// A named bag of scalar statistics, useful for printing and for structured
/// comparison in tests. Insertion order is preserved for printing.
class StatSet {
 public:
  /// Sets (or overwrites) a scalar statistic.
  void Set(const std::string& name, double value);

  /// Adds `delta` to a statistic, creating it at zero first if absent.
  void Increment(const std::string& name, double delta = 1.0);

  /// Returns the value, or `fallback` if the statistic does not exist.
  double Get(const std::string& name, double fallback = 0.0) const;

  bool Contains(const std::string& name) const;

  /// Names in insertion order.
  const std::vector<std::string>& names() const { return order_; }

  /// Renders "name = value" lines.
  std::string ToString() const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> order_;
};

}  // namespace gnoc
