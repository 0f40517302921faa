#include "common/timeseries.hpp"

#include <cassert>
#include <cmath>

#include "common/serialize.hpp"

namespace gnoc {

TimeSeries::TimeSeries(Cycle window_width, std::size_t max_windows)
    : width_(window_width < 1 ? 1 : window_width), max_windows_(max_windows) {
  // A one-window cap cannot halve below itself; two is the useful minimum.
  if (max_windows_ == 1) max_windows_ = 2;
}

void TimeSeries::Accumulate(Cycle now, double value) {
  std::size_t idx = static_cast<std::size_t>(now / width_);
  while (max_windows_ != 0 && idx >= max_windows_) {
    Downsample();
    idx = static_cast<std::size_t>(now / width_);
  }
  if (idx >= sums_.size()) sums_.resize(idx + 1, 0.0);
  sums_[idx] += value;
}

double TimeSeries::Total() const {
  double total = 0.0;
  for (double s : sums_) total += s;
  return total;
}

void TimeSeries::Downsample() {
  const std::size_t merged = (sums_.size() + 1) / 2;
  for (std::size_t i = 0; i < merged; ++i) {
    double sum = sums_[2 * i];
    if (2 * i + 1 < sums_.size()) sum += sums_[2 * i + 1];
    sums_[i] = sum;
  }
  sums_.resize(merged);
  width_ *= 2;
}

HistogramSeries::HistogramSeries(Cycle window_width, std::size_t max_windows,
                                 double bucket_width, std::size_t num_buckets)
    : width_(window_width < 1 ? 1 : window_width),
      max_windows_(max_windows),
      bucket_width_(bucket_width),
      num_buckets_(num_buckets) {
  if (max_windows_ == 1) max_windows_ = 2;
}

void HistogramSeries::Add(Cycle now, double sample) {
  std::size_t idx = static_cast<std::size_t>(now / width_);
  while (max_windows_ != 0 && idx >= max_windows_) {
    Downsample();
    idx = static_cast<std::size_t>(now / width_);
  }
  while (idx >= windows_.size()) {
    windows_.emplace_back(bucket_width_, num_buckets_);
  }
  windows_[idx].Add(sample);
}

void HistogramSeries::Downsample() {
  const std::size_t merged = (windows_.size() + 1) / 2;
  for (std::size_t i = 0; i < merged; ++i) {
    if (2 * i + 1 < windows_.size()) {
      windows_[2 * i].Merge(windows_[2 * i + 1]);
    }
    if (i != 2 * i) windows_[i] = std::move(windows_[2 * i]);
  }
  windows_.resize(merged, Histogram(bucket_width_, num_buckets_));
  width_ *= 2;
}


void TimeSeries::Save(Serializer& s) const { Fields(*this, s); }

void TimeSeries::Load(Deserializer& d) {
  Fields(*this, d);
  if (width_ < 1) throw SerializeError("snapshot time series has width 0");
}

void HistogramSeries::Save(Serializer& s) const { Fields(*this, s); }

void HistogramSeries::Load(Deserializer& d) {
  Fields(*this, d);
  // Add divides by the width and builds windows of the series' geometry,
  // which Downsample merges with the loaded ones.
  bool valid = width_ >= 1 && num_buckets_ >= 1 &&
               std::isfinite(bucket_width_) && bucket_width_ > 0.0;
  for (const Histogram& h : windows_) {
    valid = valid && h.num_buckets() == num_buckets_ &&
            h.bucket_width() == bucket_width_;
  }
  if (!valid) {
    throw SerializeError("snapshot histogram series has width 0, a bucket "
                         "geometry Histogram refuses, or a window of "
                         "another geometry");
  }
}

}  // namespace gnoc
