#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/serialize.hpp"

namespace gnoc {

void RunningStats::Add(double sample) {
  ++count_;
  sum_ += sample;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
  min_ = std::min(min_, sample);
  max_ = std::max(max_, sample);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }
double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : bucket_width_(bucket_width), counts_(num_buckets + 1, 0) {
  assert(bucket_width > 0.0);
  assert(num_buckets > 0);
}

void Histogram::Add(double sample) {
  stats_.Add(sample);
  if (sample < 0.0) sample = 0.0;
  const auto idx = static_cast<std::size_t>(sample / bucket_width_);
  if (idx >= num_buckets()) {
    ++counts_.back();
  } else {
    ++counts_[idx];
  }
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  stats_.Reset();
}

void Histogram::Merge(const Histogram& other) {
  if (bucket_width_ != other.bucket_width_ ||
      counts_.size() != other.counts_.size()) {
    std::ostringstream oss;
    oss << "Histogram::Merge: mismatched geometry (" << num_buckets() << " x "
        << bucket_width_ << " vs " << other.num_buckets() << " x "
        << other.bucket_width_ << ")";
    throw std::invalid_argument(oss.str());
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  stats_.Merge(other.stats_);
}

double Histogram::Percentile(double p) const {
  assert(p > 0.0 && p <= 100.0);
  const std::uint64_t total = stats_.count();
  if (total == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      if (i == num_buckets()) return stats_.max();  // inside overflow
      const double frac =
          counts_[i] == 0
              ? 0.0
              : (target - cumulative) / static_cast<double>(counts_[i]);
      return (static_cast<double>(i) + frac) * bucket_width_;
    }
    cumulative = next;
  }
  return stats_.max();
}

Histogram::Percentiles Histogram::SummaryPercentiles() const {
  return {Percentile(50), Percentile(95), Percentile(99)};
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    // A non-positive factor (e.g. a speedup over a zero-IPC or deadlocked
    // baseline) drives the product to zero (or makes it meaningless); the
    // continuous limit is 0, so return that instead of emitting NaN/-inf
    // into summaries and JSON output.
    if (v <= 0.0) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ArithmeticMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void StatSet::Set(const std::string& name, double value) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = value;
}

void StatSet::Increment(const std::string& name, double delta) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    order_.push_back(name);
    values_[name] = delta;
  } else {
    it->second += delta;
  }
}

double StatSet::Get(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

bool StatSet::Contains(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string StatSet::ToString() const {
  std::ostringstream oss;
  for (const auto& name : order_) {
    oss << name << " = " << values_.at(name) << '\n';
  }
  return oss.str();
}


void RunningStats::Save(Serializer& s) const { Fields(*this, s); }
void RunningStats::Load(Deserializer& d) { Fields(*this, d); }

void Histogram::Save(Serializer& s) const { Fields(*this, s); }

void Histogram::Load(Deserializer& d) {
  Fields(*this, d);
  // The constructor's geometry: Add divides by the width and casts the
  // quotient to an index, and counts_.back() is the overflow bucket.
  if (!std::isfinite(bucket_width_) || bucket_width_ <= 0.0 ||
      counts_.size() < 2) {
    throw SerializeError("snapshot histogram geometry (" +
                         std::to_string(counts_.size()) + " counts of width " +
                         std::to_string(bucket_width_) +
                         ") is not a positive finite width over >= 2 counts");
  }
}

}  // namespace gnoc
