#include "noc/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>

#include "common/json.hpp"
#include "common/serialize.hpp"
#include "noc/network.hpp"

namespace gnoc {

namespace {

/// Effective cycles of window `i`: its nominal width, clipped by how far
/// the sampler actually got (the last window is usually partial).
Cycle EffectiveCycles(Cycle start, Cycle width, Cycle sampled_until) {
  if (sampled_until <= start) return 0;
  const Cycle end = start + width;
  return (sampled_until < end ? sampled_until : end) - start;
}

}  // namespace

SloSummary ComputeSloSummary(const TelemetryLatency& latency,
                             Cycle sampled_until) {
  SloSummary slo;
  if (latency.p99_target <= 0.0) return slo;
  for (std::size_t i = 0; i < latency.windows.num_windows(); ++i) {
    const Histogram& h = latency.windows.Window(i);
    if (h.count() == 0) continue;  // no deliveries => nothing to judge
    ++slo.windows;
    if (h.Percentile(99) > latency.p99_target) {
      ++slo.violation_windows;
      slo.time_in_violation +=
          EffectiveCycles(latency.windows.WindowStart(i),
                          latency.windows.window_width(), sampled_until);
    }
  }
  return slo;
}

// ---------------------------------------------------------------------------
// TelemetryReport

void TelemetryReport::Merge(const TelemetryReport& other,
                            const std::string& prefix) {
  if (!other.enabled) return;
  enabled = true;
  if (interval == 0) interval = other.interval;
  sampled_until = std::max(sampled_until, other.sampled_until);
  for (const TelemetryTrack& t : other.tracks) {
    tracks.push_back(t);
    tracks.back().entity = prefix + t.entity;
  }
  for (const TelemetryLatency& l : other.latency) {
    latency.push_back(l);
    latency.back().label = prefix + l.label;
  }
}

const TelemetryTrack* TelemetryReport::FindLink(const std::string& metric,
                                                NodeId node, Port port) const {
  for (const TelemetryTrack& t : tracks) {
    if (t.metric == metric && t.node == node && t.port == port) return &t;
  }
  return nullptr;
}

void TelemetryReport::WriteCsv(std::ostream& out) const {
  out << "window_start,window_cycles,metric,entity,value\n";
  // max_digits10 so value * window_cycles reconstructs the exact window
  // sums (the counter-conservation check in test_telemetry relies on it).
  out << std::setprecision(17);
  for (const TelemetryTrack& t : tracks) {
    for (std::size_t i = 0; i < t.series.num_windows(); ++i) {
      const Cycle start = t.series.WindowStart(i);
      const Cycle cycles =
          EffectiveCycles(start, t.series.window_width(), sampled_until);
      if (cycles == 0) continue;
      out << start << ',' << cycles << ',' << t.metric << ',' << t.entity
          << ',' << t.series.Sum(i) / static_cast<double>(cycles) << '\n';
    }
  }
  for (const TelemetryLatency& l : latency) {
    for (std::size_t i = 0; i < l.windows.num_windows(); ++i) {
      const Histogram& h = l.windows.Window(i);
      if (h.count() == 0) continue;
      const Cycle start = l.windows.WindowStart(i);
      const Cycle cycles =
          EffectiveCycles(start, l.windows.window_width(), sampled_until);
      const std::string lead = std::to_string(start) + ',' +
                               std::to_string(cycles) + ',';
      out << lead << "latency_mean," << l.label << ',' << h.mean() << '\n';
      out << lead << "latency_p50," << l.label << ',' << h.Percentile(50)
          << '\n';
      out << lead << "latency_p95," << l.label << ',' << h.Percentile(95)
          << '\n';
      out << lead << "latency_p99," << l.label << ',' << h.Percentile(99)
          << '\n';
      out << lead << "latency_count," << l.label << ','
          << static_cast<double>(h.count()) << '\n';
    }
  }
}

void TelemetryReport::WriteChromeTrace(std::ostream& out) const {
  // Process ids group the counter tracks in the trace viewer's sidebar.
  constexpr int kPidLinks = 1;
  constexpr int kPidVcs = 2;
  constexpr int kPidNodes = 3;
  constexpr int kPidLatency = 4;

  JsonWriter w(out, 0);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();

  const auto metadata = [&](int pid, const char* name) {
    w.BeginObject();
    w.Key("ph").Value("M");
    w.Key("pid").Value(pid);
    w.Key("name").Value("process_name");
    w.Key("args").BeginObject().Key("name").Value(name).EndObject();
    w.EndObject();
  };
  metadata(kPidLinks, "links");
  metadata(kPidVcs, "vcs");
  metadata(kPidNodes, "nodes");
  metadata(kPidLatency, "latency");

  const auto counter = [&](int pid, const std::string& name, Cycle ts,
                           const std::string& key, double value) {
    w.BeginObject();
    w.Key("ph").Value("C");
    w.Key("pid").Value(pid);
    w.Key("tid").Value(0);
    w.Key("name").Value(name);
    w.Key("ts").Value(static_cast<std::uint64_t>(ts));  // 1 cycle = 1 us
    w.Key("args").BeginObject().Key(key).Value(value).EndObject();
    w.EndObject();
  };

  for (const TelemetryTrack& t : tracks) {
    int pid = kPidNodes;
    if (t.metric == "link_busy") pid = kPidLinks;
    if (t.metric == "vc_occupancy" || t.metric == "credit_stall") pid = kPidVcs;
    const std::string name = t.entity + " " + t.metric;
    for (std::size_t i = 0; i < t.series.num_windows(); ++i) {
      const Cycle start = t.series.WindowStart(i);
      const Cycle cycles =
          EffectiveCycles(start, t.series.window_width(), sampled_until);
      if (cycles == 0) continue;
      counter(pid, name, start, t.metric,
              t.series.Sum(i) / static_cast<double>(cycles));
    }
  }
  for (const TelemetryLatency& l : latency) {
    const std::string name = l.label + " latency";
    for (std::size_t i = 0; i < l.windows.num_windows(); ++i) {
      const Histogram& h = l.windows.Window(i);
      if (h.count() == 0) continue;
      const Cycle start = l.windows.WindowStart(i);
      w.BeginObject();
      w.Key("ph").Value("C");
      w.Key("pid").Value(kPidLatency);
      w.Key("tid").Value(0);
      w.Key("name").Value(name);
      w.Key("ts").Value(static_cast<std::uint64_t>(start));
      w.Key("args")
          .BeginObject()
          .Key("mean")
          .Value(h.mean())
          .Key("p95")
          .Value(h.Percentile(95))
          .EndObject();
      w.EndObject();
    }
  }

  w.EndArray();
  w.EndObject();
  out << '\n';
}

void TelemetryReport::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("enabled").Value(enabled);
  if (enabled) {
    w.Key("interval").Value(static_cast<std::uint64_t>(interval));
    w.Key("sampled_until").Value(static_cast<std::uint64_t>(sampled_until));
    w.Key("num_tracks").Value(static_cast<std::uint64_t>(tracks.size()));
    Cycle width = 0;
    std::size_t windows = 0;
    for (const TelemetryTrack& t : tracks) {
      if (t.series.num_windows() > windows) {
        windows = t.series.num_windows();
        width = t.series.window_width();
      }
    }
    w.Key("window_cycles").Value(static_cast<std::uint64_t>(width));
    w.Key("num_windows").Value(static_cast<std::uint64_t>(windows));
    w.Key("delivered").BeginObject();
    for (const TelemetryLatency& l : latency) {
      std::uint64_t count = 0;
      for (std::size_t i = 0; i < l.windows.num_windows(); ++i) {
        count += l.windows.Window(i).count();
      }
      w.Key(l.label).Value(count);
    }
    w.EndObject();
    // Per-class SLO accounting, present only for classes with a target.
    bool any_slo = false;
    for (const TelemetryLatency& l : latency) any_slo |= l.p99_target > 0.0;
    if (any_slo) {
      w.Key("slo").BeginObject();
      for (const TelemetryLatency& l : latency) {
        if (l.p99_target <= 0.0) continue;
        const SloSummary slo = ComputeSloSummary(l, sampled_until);
        w.Key(l.label).BeginObject();
        w.Key("p99_target").Value(l.p99_target);
        w.Key("windows").Value(slo.windows);
        w.Key("violation_windows").Value(slo.violation_windows);
        w.Key("time_in_violation")
            .Value(static_cast<std::uint64_t>(slo.time_in_violation));
        w.EndObject();
      }
      w.EndObject();
    }
  }
  w.EndObject();
}

// ---------------------------------------------------------------------------
// SteadyStateDetector

SteadyStateDetector::SteadyStateDetector() : SteadyStateDetector(Options{}) {}

SteadyStateDetector::SteadyStateDetector(Options options) : options_(options) {
  if (options_.k < 1) options_.k = 1;
  if (options_.tolerance < 0.0) options_.tolerance = 0.0;
}

bool SteadyStateDetector::AddWindow(double mean_latency) {
  ++windows_seen_;
  if (stable_) return true;
  recent_.push_back(mean_latency);
  if (recent_.size() > static_cast<std::size_t>(options_.k)) {
    recent_.erase(recent_.begin());
  }
  if (recent_.size() == static_cast<std::size_t>(options_.k)) {
    const double lo = *std::min_element(recent_.begin(), recent_.end());
    const double hi = *std::max_element(recent_.begin(), recent_.end());
    double mean = 0.0;
    for (double v : recent_) mean += v;
    mean /= static_cast<double>(recent_.size());
    if (hi - lo <= options_.tolerance * mean) {
      stable_ = true;
      stable_after_ = windows_seen_;
    }
  }
  return stable_;
}

// ---------------------------------------------------------------------------
// Telemetry

Telemetry::Telemetry(const NetworkConfig& config)
    : interval_(std::max<Cycle>(config.telemetry_interval, 1)),
      max_windows_(config.telemetry_max_windows),
      next_sample_(interval_) {
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const TrafficClassSpec& spec =
        config.qos.classes[static_cast<std::size_t>(c)];
    const std::string label = spec.name.empty() ? ClassName(cls) : spec.name;
    latency_.push_back(TelemetryLatency{
        cls, label,
        HistogramSeries(interval_, max_windows_, kLatencyBucketWidth,
                        kLatencyBuckets),
        spec.p99_target});
  }
}

int Telemetry::AddTrack(TelemetryTrack track) {
  track.series = TimeSeries(interval_, max_windows_);
  tracks_.push_back(std::move(track));
  return static_cast<int>(tracks_.size()) - 1;
}

void Telemetry::RegisterRouter(const Router* router, const Topology& topology) {
  RouterState st;
  st.router = router;
  const NodeId n = router->node();
  const std::string rname = "r" + std::to_string(n);

  const int num_ports = router->num_ports();
  st.busy_track.assign(static_cast<std::size_t>(num_ports), -1);
  st.prev_flits_out.assign(static_cast<std::size_t>(num_ports), 0);
  for (int p = 0; p < num_ports; ++p) {
    const Port port = static_cast<Port>(p);
    // Local ports are the ejection paths (always present); other ports only
    // exist when wired to a downstream channel (mesh boundary ports are
    // not). Labels come from the topology graph (PortName on a mesh).
    if (p >= router->num_local_ports() && !router->HasOutputChannel(port)) {
      continue;
    }
    TelemetryTrack t;
    t.metric = "link_busy";
    t.entity = rname + "." + topology.PortLabel(p);
    t.node = n;
    t.port = port;
    st.busy_track[static_cast<std::size_t>(p)] = AddTrack(std::move(t));
  }

  const int num_vcs = router->config().num_vcs;
  st.occupancy_track.assign(static_cast<std::size_t>(num_vcs), -1);
  st.stall_track.assign(static_cast<std::size_t>(num_vcs), -1);
  st.prev_stalls.assign(static_cast<std::size_t>(num_vcs), 0);
  for (VcId v = 0; v < num_vcs; ++v) {
    const std::string entity = rname + ".vc" + std::to_string(v);
    TelemetryTrack occ;
    occ.metric = "vc_occupancy";
    occ.entity = entity;
    occ.node = n;
    occ.vc = v;
    st.occupancy_track[static_cast<std::size_t>(v)] = AddTrack(std::move(occ));
    TelemetryTrack stall;
    stall.metric = "credit_stall";
    stall.entity = entity;
    stall.node = n;
    stall.vc = v;
    st.stall_track[static_cast<std::size_t>(v)] = AddTrack(std::move(stall));
  }
  routers_.push_back(std::move(st));
}

void Telemetry::RegisterNic(const Nic* nic) {
  NicState st;
  st.nic = nic;
  const NodeId n = nic->node();
  const std::string nname = "nic" + std::to_string(n);

  TelemetryTrack busy;
  busy.metric = "link_busy";
  busy.entity = nname + ".inject";
  busy.node = n;
  st.busy_track = AddTrack(std::move(busy));

  st.inject_track.assign(kNumClasses, -1);
  st.eject_track.assign(kNumClasses, -1);
  st.prev_inject.assign(kNumClasses, 0);
  st.prev_eject.assign(kNumClasses, 0);
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const std::string entity = nname + "." + ClassName(cls);
    TelemetryTrack inj;
    inj.metric = "inject_flits";
    inj.entity = entity;
    inj.node = n;
    inj.cls = cls;
    st.inject_track[static_cast<std::size_t>(c)] = AddTrack(std::move(inj));
    TelemetryTrack ej;
    ej.metric = "eject_flits";
    ej.entity = entity;
    ej.node = n;
    ej.cls = cls;
    st.eject_track[static_cast<std::size_t>(c)] = AddTrack(std::move(ej));
  }
  nics_.push_back(std::move(st));
}

void Telemetry::OnPacketDelivered(TrafficClass cls, double latency,
                                  Cycle now) {
  latency_[static_cast<std::size_t>(ClassIndex(cls))].windows.Add(now,
                                                                  latency);
}

void Telemetry::AccumulateSpan(Cycle now,
                               std::vector<TelemetryTrack>& tracks) const {
  if (now <= window_open_) return;
  const double span = static_cast<double>(now - window_open_);
  for (const RouterState& st : routers_) {
    const RouterStats& rs = st.router->stats();
    for (std::size_t pi = 0; pi < st.busy_track.size(); ++pi) {
      const int ti = st.busy_track[pi];
      if (ti < 0) continue;
      std::uint64_t total = 0;
      for (int c = 0; c < kNumClasses; ++c) {
        total += rs.flits_out[pi][static_cast<std::size_t>(c)];
      }
      const std::uint64_t delta = total - st.prev_flits_out[pi];
      if (delta != 0) {
        tracks[static_cast<std::size_t>(ti)].series.Accumulate(
            window_open_, static_cast<double>(delta));
      }
    }
    for (std::size_t v = 0; v < st.stall_track.size(); ++v) {
      const std::uint64_t stalls =
          v < rs.credit_stall_by_vc.size() ? rs.credit_stall_by_vc[v] : 0;
      const std::uint64_t delta = stalls - st.prev_stalls[v];
      if (delta != 0) {
        tracks[static_cast<std::size_t>(st.stall_track[v])].series.Accumulate(
            window_open_, static_cast<double>(delta));
      }
      // Occupancy is a gauge: a point sample weighted by the span length
      // (piecewise-constant), so sums stay exact under downsampling and
      // value / window_cycles is the time-weighted mean.
      std::size_t occ = 0;
      for (int p = 0; p < st.router->num_ports(); ++p) {
        occ += st.router->VcOccupancy(static_cast<Port>(p),
                                      static_cast<VcId>(v));
      }
      if (occ != 0) {
        tracks[static_cast<std::size_t>(st.occupancy_track[v])]
            .series.Accumulate(window_open_,
                               static_cast<double>(occ) * span);
      }
    }
  }
  for (const NicState& st : nics_) {
    const NicStats& ns = st.nic->stats();
    std::uint64_t busy = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const std::uint64_t inj = ns.flits_injected[ci] - st.prev_inject[ci];
      busy += inj;
      if (inj != 0) {
        tracks[static_cast<std::size_t>(st.inject_track[ci])]
            .series.Accumulate(window_open_, static_cast<double>(inj));
      }
      const std::uint64_t ej = ns.flits_ejected[ci] - st.prev_eject[ci];
      if (ej != 0) {
        tracks[static_cast<std::size_t>(st.eject_track[ci])]
            .series.Accumulate(window_open_, static_cast<double>(ej));
      }
    }
    if (busy != 0) {
      tracks[static_cast<std::size_t>(st.busy_track)].series.Accumulate(
          window_open_, static_cast<double>(busy));
    }
  }
}

void Telemetry::CommitBaselines() {
  for (RouterState& st : routers_) {
    const RouterStats& rs = st.router->stats();
    for (std::size_t pi = 0; pi < st.prev_flits_out.size(); ++pi) {
      std::uint64_t total = 0;
      for (int c = 0; c < kNumClasses; ++c) {
        total += rs.flits_out[pi][static_cast<std::size_t>(c)];
      }
      st.prev_flits_out[pi] = total;
    }
    for (std::size_t v = 0; v < st.prev_stalls.size(); ++v) {
      st.prev_stalls[v] =
          v < rs.credit_stall_by_vc.size() ? rs.credit_stall_by_vc[v] : 0;
    }
  }
  for (NicState& st : nics_) {
    const NicStats& ns = st.nic->stats();
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      st.prev_inject[ci] = ns.flits_injected[ci];
      st.prev_eject[ci] = ns.flits_ejected[ci];
    }
  }
}

void Telemetry::Sample(Cycle now) {
  AccumulateSpan(now, tracks_);
  CommitBaselines();
  if (now > window_open_) window_open_ = now;
  next_sample_ = now + interval_;
}

void Telemetry::OnStatsReset(Cycle now) {
  // Close the open span against the pre-reset counters first…
  Sample(now);
  // …then re-baseline at zero: the caller zeroes the counters next.
  for (RouterState& st : routers_) {
    std::fill(st.prev_flits_out.begin(), st.prev_flits_out.end(), 0);
    std::fill(st.prev_stalls.begin(), st.prev_stalls.end(), 0);
  }
  for (NicState& st : nics_) {
    std::fill(st.prev_inject.begin(), st.prev_inject.end(), 0);
    std::fill(st.prev_eject.begin(), st.prev_eject.end(), 0);
  }
}

TelemetryReport Telemetry::Snapshot(Cycle now) const {
  TelemetryReport r;
  r.enabled = true;
  r.interval = interval_;
  r.sampled_until = now > window_open_ ? now : window_open_;
  r.tracks = tracks_;
  AccumulateSpan(now, r.tracks);
  r.latency = latency_;
  return r;
}

// ---------------------------------------------------------------------------
// Auto-warmup methodology

AutoWarmupResult RunWithAutoWarmup(
    Network& net, const std::function<void(Cycle)>& tick_traffic,
    const AutoWarmupOptions& options) {
  SteadyStateDetector detector(options.detector);
  AutoWarmupResult result;
  const Cycle window = options.window < 1 ? 1 : options.window;
  const Cycle start = net.now();
  Cycle next_window = start + window;

  // The detector works on deltas of the cumulative latency accumulators, so
  // it needs no telemetry instrumentation and tolerates a pre-warmed net.
  double prev_sum = 0.0;
  std::uint64_t prev_count = 0;
  const auto latency_totals = [&net](double& sum, std::uint64_t& count) {
    const NetworkSummary s = net.Summarize();
    sum = 0.0;
    count = 0;
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      sum += s.packet_latency[ci].sum();
      count += s.packet_latency[ci].count();
    }
  };
  latency_totals(prev_sum, prev_count);

  while (!detector.stable() && net.now() - start < options.max_warmup &&
         !net.Deadlocked()) {
    tick_traffic(net.now());
    net.Tick();
    if (net.now() >= next_window) {
      next_window += window;
      double sum = 0.0;
      std::uint64_t count = 0;
      latency_totals(sum, count);
      const std::uint64_t delivered = count - prev_count;
      // Empty windows carry no latency signal: skip rather than feed NaN.
      if (delivered > 0) {
        detector.AddWindow((sum - prev_sum) /
                           static_cast<double>(delivered));
      }
      prev_sum = sum;
      prev_count = count;
    }
  }
  result.stabilized = detector.stable();
  result.warmup_cycles = net.now() - start;

  net.ResetStats();
  for (Cycle i = 0; i < options.measure && !net.Deadlocked(); ++i) {
    tick_traffic(net.now());
    net.Tick();
    ++result.measured_cycles;
  }
  return result;
}

void TelemetryReport::Save(Serializer& s) const { Fields(*this, s); }
void TelemetryReport::Load(Deserializer& d) { Fields(*this, d); }

void Telemetry::Save(Serializer& s) const { Fields(*this, s); }
void Telemetry::Load(Deserializer& d) { Fields(*this, d); }

}  // namespace gnoc
