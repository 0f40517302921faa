// Windowed time-series telemetry for the NoC — the observability
// counterpart of the invariant auditor (noc/audit.hpp), built on the same
// zero-cost-when-off hook pattern.
//
// The paper's evidence is about *where and when* bandwidth is consumed:
// Fig. 4/6 link-utilization asymmetry, Fig. 8's latency behaviour under VC
// monopolizing. End-of-run aggregates cannot show transient congestion,
// hotspot onset or warm-up bias, so the Telemetry sampler snapshots, every
// `telemetry_interval` cycles:
//
//   link_busy      per directed link (router output ports incl. ejection,
//                  plus NIC injection links): flits crossed / cycles —
//                  the measured, time-resolved Fig. 4/6 map.
//   vc_occupancy   per (router, VC id): input-buffer flits summed over
//                  ports, time-weighted over the window.
//   credit_stall   per (router, VC id): cycles an eligible flit could not
//                  traverse for lack of downstream credits on that VC.
//   inject/eject   per (node, class): flits entering / leaving the network.
//   latency        per class: a windowed packet-latency histogram (mean +
//                  percentiles per window, reusing Histogram).
//
// Windows accumulate into bounded-memory TimeSeries (common/timeseries.hpp):
// when `telemetry_max_windows` is hit, adjacent windows merge 2x and the
// width doubles, so arbitrarily long runs keep a fixed footprint while
// window *sums* stay exact.
//
// Cost model: when telemetry is off the Network holds no Telemetry object
// and every hook site is a null-pointer test. When on, the only per-event
// hook is one histogram insert per delivered packet; everything else is
// counter *deltas* read from existing RouterStats/NicStats at the
// O(routers x ports + routers x VCs) snapshot sweep every interval.
//
// Exports: long-form CSV (window_start,window_cycles,metric,entity,value)
// and Chrome trace-event JSON (counter tracks per link/VC/node, loadable in
// chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/timeseries.hpp"
#include "common/types.hpp"

namespace gnoc {

class JsonWriter;
class Network;
class Nic;
class Router;
class Topology;
struct NetworkConfig;
struct NetworkSummary;

/// One metric track: `series` holds per-window sums; rate-like metrics
/// export sum / window_cycles. `node`/`port`/`vc`/`cls` give the entity in
/// structured form (unused fields hold their sentinel), `entity` is the
/// stable display name used in CSV/trace output (e.g. "r5.east",
/// "nic3.inject", "r5.vc0", "nic5").
struct TelemetryTrack {
  std::string metric;
  std::string entity;
  NodeId node = kInvalidNode;
  Port port = Port::kLocal;
  VcId vc = kInvalidVc;
  TrafficClass cls = TrafficClass::kRequest;
  TimeSeries series;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.metric);
    Io(ar, self.entity);
    Io(ar, self.node);
    Io(ar, self.port);
    Io(ar, self.vc);
    Io(ar, self.cls);
    Io(ar, self.series);
  }
};

/// Windowed packet-latency distribution of one traffic class. `label` is
/// the display name (the TrafficClassSpec name, "request"/"reply" by
/// default; prefixed on merge). `p99_target` is the class's SLO latency
/// target in cycles (0 = none; see ComputeSloSummary).
struct TelemetryLatency {
  TrafficClass cls = TrafficClass::kRequest;
  std::string label;
  HistogramSeries windows;
  double p99_target = 0.0;

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.cls);
    Io(ar, self.label);
    Io(ar, self.p99_target);
    Io(ar, self.windows);
  }
};

/// SLO violation accounting over one class's windowed latency series: a
/// window with at least one delivery is judged against the p99 target,
/// and a violating window contributes its (partial-window-clipped) width
/// to time-in-violation.
struct SloSummary {
  std::uint64_t windows = 0;            ///< non-empty windows judged
  std::uint64_t violation_windows = 0;  ///< windows whose p99 > target
  Cycle time_in_violation = 0;          ///< cycles in violating windows
};

/// Judges `latency` against its own p99 target. Returns a zero summary
/// when no target is set. `sampled_until` clips the last partial window
/// (pass TelemetryReport::sampled_until).
SloSummary ComputeSloSummary(const TelemetryLatency& latency,
                             Cycle sampled_until);

/// Value snapshot of one run's telemetry (merged across physical networks
/// by Fabric::CollectRunReport). Default-constructed = disabled.
struct TelemetryReport {
  bool enabled = false;
  Cycle interval = 0;       ///< configured sampling interval
  Cycle sampled_until = 0;  ///< cycles covered by the windows
  std::vector<TelemetryTrack> tracks;
  std::vector<TelemetryLatency> latency;  ///< one entry per class

  /// Folds another network's report into this one; `prefix` is prepended
  /// to every entity name and latency label (e.g. "rep:" for the reply
  /// network of a physical division). Tracks are appended, never summed —
  /// two physical networks are two distinct sets of links.
  void Merge(const TelemetryReport& other, const std::string& prefix);

  /// First track matching (metric, node, port), or nullptr.
  const TelemetryTrack* FindLink(const std::string& metric, NodeId node,
                                 Port port) const;

  /// Long-form CSV: header + one row per (track, window) and per
  /// (class, window) latency stat (latency_mean/p50/p95/p99/count).
  /// Rate-like values are sums divided by the window width, so
  /// value * window_cycles recovers the exact per-window sum.
  void WriteCsv(std::ostream& out) const;

  /// Chrome trace-event JSON: one counter ("ph":"C") event per track per
  /// window, grouped into "links" / "vcs" / "nodes" / "latency" processes.
  /// Loadable in chrome://tracing and Perfetto (1 cycle = 1 us).
  void WriteChromeTrace(std::ostream& out) const;

  /// Compact summary object for sweep JSON (enabled, interval, window
  /// counts, per-class delivered totals) — the full series go to the
  /// CSV/trace exporters, not into every sweep cell.
  void WriteJson(JsonWriter& w) const;

  /// Snapshot support (DESIGN.md §10).
  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.enabled);
    Io(ar, self.interval);
    Io(ar, self.sampled_until);
    IoSeq(ar, self.tracks);
    IoSeq(ar, self.latency,
          TelemetryLatency{TrafficClass::kRequest, "",
                           HistogramSeries(1, 0, 1.0, 1)});
  }
};

/// Declares warm-up complete when K consecutive non-empty windows of mean
/// packet latency agree within a relative tolerance. Latches: once stable,
/// stays stable. Feed it one windowed mean per completed window.
class SteadyStateDetector {
 public:
  struct Options {
    int k = 4;               ///< consecutive agreeing windows required
    double tolerance = 0.05; ///< max (max-min)/mean spread across the K
  };

  SteadyStateDetector();
  explicit SteadyStateDetector(Options options);

  /// Feeds the mean latency of the next completed window; returns stable().
  bool AddWindow(double mean_latency);

  bool stable() const { return stable_; }
  std::size_t windows_seen() const { return windows_seen_; }

  /// Number of windows consumed when stability was first declared
  /// (== windows_seen() at that moment); 0 while unstable.
  std::size_t stable_after() const { return stable_after_; }

 private:
  Options options_;
  std::vector<double> recent_;  // ring of the last k window means
  std::size_t windows_seen_ = 0;
  std::size_t stable_after_ = 0;
  bool stable_ = false;
};

/// The sampling engine for one Network. Owned by the Network (non-null iff
/// NetworkConfig::telemetry); the NIC holds a raw pointer for the
/// per-delivery latency hook, the Network drives the snapshot sweep.
class Telemetry {
 public:
  /// Samples every `config.telemetry_interval` cycles into at most
  /// `config.telemetry_max_windows` windows per track. The latency series
  /// bin like the NIC's histograms (kLatencyBucketWidth, kLatencyBuckets)
  /// and carry each class's TrafficClassSpec name (empty = the default
  /// class name) and p99 target (0 = no SLO).
  explicit Telemetry(const NetworkConfig& config);

  // --- wiring (called once by the Network, after channels exist) ---

  /// Registers a router of `topology`: link_busy tracks for its wired
  /// output ports (incl. the ejection link), labelled by the topology's
  /// port names, and vc_occupancy and credit_stall per VC id.
  void RegisterRouter(const Router* router, const Topology& topology);

  /// Registers a NIC: a link_busy track for its injection link and
  /// inject/eject rate tracks per class.
  void RegisterNic(const Nic* nic);

  // --- per-event hook (cheap; called by the NIC) ---

  /// A packet was delivered with end-to-end latency `latency`.
  void OnPacketDelivered(TrafficClass cls, double latency, Cycle now);

  // --- sweeps (driven by the Network) ---

  bool SampleDue(Cycle now) const { return now >= next_sample_; }

  /// Closes the span [window_open, now): reads counter deltas from every
  /// registered router/NIC and accumulates them into the series.
  void Sample(Cycle now);

  /// Re-baselines the counter snapshots after a Network::ResetStats (which
  /// zeroes the underlying counters). Closes the current span first so no
  /// pre-reset flits are lost.
  void OnStatsReset(Cycle now);

  Cycle interval() const { return interval_; }

  /// Builds a value snapshot including the partial span [window_open, now).
  TelemetryReport Snapshot(Cycle now) const;

  /// Snapshot support: series contents, counter baselines and sweep cursors
  /// by registration index (track registration order is deterministic).
  /// Wiring (router/NIC pointers, track topology) is reconstructed.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);

 private:
  struct RouterState {
    const Router* router = nullptr;
    // Track indices (into tracks_), kInvalidTrack where unwired.
    std::vector<int> busy_track;       // per port
    std::vector<int> occupancy_track;  // per VC id
    std::vector<int> stall_track;      // per VC id
    // Counter values at the last Sample().
    std::vector<std::uint64_t> prev_flits_out;  // per port, classes summed
    std::vector<std::uint64_t> prev_stalls;     // per VC id
  };
  struct NicState {
    const Nic* nic = nullptr;
    int busy_track = -1;
    std::vector<int> inject_track;  // per class
    std::vector<int> eject_track;   // per class
    std::vector<std::uint64_t> prev_inject;  // per class
    std::vector<std::uint64_t> prev_eject;   // per class
  };

  template <class Self, class Ar>
  static void Fields(Self& self, Ar& ar) {
    Io(ar, self.next_sample_);
    Io(ar, self.window_open_);
    IoCount(ar, self.tracks_.size(), "telemetry track");
    for (auto& t : self.tracks_) Io(ar, t.series);
    IoCount(ar, self.routers_.size(), "telemetry router");
    for (auto& rs : self.routers_) {
      IoSized(ar, rs.prev_flits_out, "telemetry port");
      IoSized(ar, rs.prev_stalls, "telemetry VC");
    }
    IoCount(ar, self.nics_.size(), "telemetry NIC");
    for (auto& ns : self.nics_) {
      IoSized(ar, ns.prev_inject, "telemetry class");
      IoSized(ar, ns.prev_eject, "telemetry class");
    }
    IoCount(ar, self.latency_.size(), "telemetry latency-class");
    for (auto& l : self.latency_) Io(ar, l.windows);
  }

  int AddTrack(TelemetryTrack track);

  /// Accumulates the counter deltas of the span [window_open_, now) into
  /// `tracks`; the prev_* baselines are untouched, so Snapshot() can run it
  /// against a copy. Sample() commits the baselines afterwards.
  void AccumulateSpan(Cycle now, std::vector<TelemetryTrack>& tracks) const;

  /// Advances every prev_* baseline to the current counter values.
  void CommitBaselines();

  Cycle interval_;
  std::size_t max_windows_;
  Cycle next_sample_;
  Cycle window_open_ = 0;  ///< first cycle of the span being accumulated
  std::vector<TelemetryTrack> tracks_;
  std::vector<RouterState> routers_;
  std::vector<NicState> nics_;
  std::vector<TelemetryLatency> latency_;
};

/// Options for RunWithAutoWarmup: the warmup/measure/drain methodology for
/// synthetic (open- or closed-loop) runs.
struct AutoWarmupOptions {
  Cycle window = 256;        ///< latency-window width for detection
  SteadyStateDetector::Options detector;
  Cycle max_warmup = 50000;  ///< reset and measure anyway past this point
  Cycle measure = 8000;      ///< measurement cycles after warm-up
};

/// Outcome of an auto-warmup run.
struct AutoWarmupResult {
  bool stabilized = false;  ///< detector converged before max_warmup
  Cycle warmup_cycles = 0;  ///< cycles excluded from measurement
  Cycle measured_cycles = 0;
};

/// Runs `net` with `tick_traffic` (called once per cycle, before
/// Network::Tick) until the SteadyStateDetector — fed the mean packet
/// latency of each `window`-cycle span, empty windows skipped — declares
/// warm-up over (or `max_warmup` elapses), then resets statistics and runs
/// `measure` more cycles. On return the network's counters cover exactly
/// the measurement period, so Network::Summarize() is warm-up-excluded.
AutoWarmupResult RunWithAutoWarmup(
    Network& net, const std::function<void(Cycle)>& tick_traffic,
    const AutoWarmupOptions& options);

}  // namespace gnoc
