// Span recorder for the benchmark's traced run.
//
// The benchmark times its own calls into each simulator layer (the
// simulator itself is not instrumented). Every span updates per-layer
// totals — duration, time covered by child spans, call count — on every
// cycle; a sampled subset of spans (name, start, end, parent) is also kept
// in memory and written out at the end as a Chrome-trace file.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

/// Host-time layers, named after the simulator's modules.
enum class Layer : std::uint8_t {
  kSetup,    ///< system / network construction        (sim.setup)
  kCollect,  ///< result collection after the run      (sim.collect)
  kSm,       ///< the 56 StreamingMultiprocessor::Tick (gpgpu.sm)
  kMc,       ///< the 8 MemoryController::Tick         (gpgpu.mc)
  kSource,   ///< the benchmark's open-loop source     (bench.source)
  kInject,   ///< Fabric::Inject/CanInject, Network::Inject (noc.inject)
  kFabric,   ///< Fabric::Tick / Network::Tick         (noc.fabric)
};
inline constexpr std::size_t kNumLayers = 7;

const char* LayerName(Layer layer);

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Unlike wall time it leaves out time the
/// thread was preempted or its virtual CPU was descheduled by the host.
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Per-layer accumulators; subtract two snapshots to get a window.
struct LayerTotals {
  std::array<std::int64_t, kNumLayers> total_ns{};
  std::array<std::int64_t, kNumLayers> child_ns{};
  std::array<std::uint64_t, kNumLayers> calls{};
  /// noc.inject calls answered "no" (Inject false or CanInject false).
  std::uint64_t inject_refused = 0;

  std::int64_t total(Layer l) const {
    return total_ns[static_cast<std::size_t>(l)];
  }
  /// Span time minus the part its child spans cover.
  std::int64_t self(Layer l) const {
    return total(l) - child_ns[static_cast<std::size_t>(l)];
  }
  std::uint64_t count(Layer l) const {
    return calls[static_cast<std::size_t>(l)];
  }
  LayerTotals& operator+=(const LayerTotals& other);
  LayerTotals operator-(const LayerTotals& other) const;
};

/// One recorded span; `parent` indexes the enclosing span (-1 = none).
struct Span {
  Layer layer = Layer::kSetup;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

class Tracer {
 public:
  /// Upper bound on recorded spans; totals keep accumulating past it.
  static constexpr std::size_t kMaxSpans = 200000;

  void Begin(Layer layer) {
    Open open{layer, NowNs(), 0, -1};
    if (recording_ && spans_.size() < kMaxSpans) {
      open.span = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(
          Span{layer, open.start, 0, stack_.empty() ? -1 : stack_.back().span});
    }
    stack_.push_back(open);
  }

  /// Closes the innermost open span and returns its duration.
  std::int64_t End() {
    const std::int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - open.start;
    const auto i = static_cast<std::size_t>(open.layer);
    totals_.total_ns[i] += duration;
    totals_.child_ns[i] += open.child;
    ++totals_.calls[i];
    if (!stack_.empty()) stack_.back().child += duration;
    if (open.span >= 0) {
      spans_[static_cast<std::size_t>(open.span)].end_ns = end;
    }
    return duration;
  }

  void CountRefusal() { ++totals_.inject_refused; }

  /// Turns span recording on or off; totals accumulate either way. Toggle
  /// only between cycles, with no span open.
  void SetRecording(bool on) { recording_ = on; }

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the recorded spans as Chrome-trace JSON (chrome://tracing,
  /// Perfetto): complete events with microsecond timestamps relative to
  /// the first span, each carrying its own id and its parent's.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  struct Open {
    Layer layer;
    std::int64_t start;
    std::int64_t child;  ///< time covered by closed child spans
    std::int32_t span;   ///< index in spans_, -1 when not recorded
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  LayerTotals totals_;
  bool recording_ = false;
};

}  // namespace perfbench
