#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSetup:
      return "sim.setup";
    case Layer::kCollect:
      return "sim.collect";
    case Layer::kSm:
      return "gpgpu.sm";
    case Layer::kMc:
      return "gpgpu.mc";
    case Layer::kSource:
      return "bench.source";
    case Layer::kInject:
      return "noc.inject";
    case Layer::kFabric:
      return "noc.fabric";
  }
  return "?";
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& other) {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    total_ns[i] += other.total_ns[i];
    child_ns[i] += other.child_ns[i];
    calls[i] += other.calls[i];
  }
  inject_refused += other.inject_refused;
  return *this;
}

LayerTotals LayerTotals::operator-(const LayerTotals& other) const {
  LayerTotals out = *this;
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    out.total_ns[i] -= other.total_ns[i];
    out.child_ns[i] -= other.child_ns[i];
    out.calls[i] -= other.calls[i];
  }
  out.inject_refused -= other.inject_refused;
  return out;
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", LayerName(s.layer),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<int>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
