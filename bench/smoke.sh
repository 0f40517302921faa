#!/usr/bin/env bash
# Smoke test for the parallel sweep engine + structured output: runs one
# figure harness at reduced scale on 4 threads with JSON output and checks
# that the emitted JSON parses, then re-runs it with the NoC invariant
# auditor enabled and fails on any reported violation, then exercises the
# telemetry exporters (CSV + Chrome trace, strictly validated with
# python3 -m json.tool), then SIGKILLs a checkpointed sweep mid-flight and
# requires the resumed run to be byte-identical to an uninterrupted one,
# resumes fig10's two sweeps from one checkpoint directory, checks that
# each harness applies exactly the GpuConfig keys and run
# flags it accepts and refuses configurations it cannot build, runs both network divisions audited and records one
# packet trace, records one short router_micro run, and — when a UBSan
# tree is available (see GNOC_SANITIZE=undefined in CMakeLists.txt) — runs
# one UBSan-instrumented config.
#
# Every artifact (sweep JSON, audit JSON, telemetry exports, scheduler
# CSVs, checkpoint state, fig2's mesh and torus CSVs, pareto.json,
# network-division JSON, recorded trace CSV, router_micro JSON) lands
# under one directory, $GNOC_SMOKE_OUT_DIR (default /tmp/gnoc_smoke), so
# CI can upload the whole run as a single artifact. Per-artifact GNOC_SMOKE_*
# overrides still win for targeted debugging.
#
# Usage: bench/smoke.sh [build-dir] [extra harness args...]
#   bench/smoke.sh                       # default build/ directory
#   bench/smoke.sh build workloads=BFS,KMN   # quicker still
#   BUILD_DIR=build-ci bench/smoke.sh    # build dir via env (CI)
#   GNOC_SMOKE_OUT_DIR=smoke-out bench/smoke.sh       # artifact directory
#   GNOC_SMOKE_UBSAN_DIR=build-ubsan bench/smoke.sh   # explicit UBSan tree
set -euo pipefail

# python3 validates every JSON artifact below; without it nothing would be.
command -v python3 > /dev/null 2>&1 || {
  echo "smoke: FAIL — python3 not found; it checks every artifact" >&2
  exit 1
}

# Positional arg wins, then $BUILD_DIR from the environment, then build/.
BUILD_DIR=${1:-${BUILD_DIR:-build}}
shift || true
OUT_DIR=${GNOC_SMOKE_OUT_DIR:-/tmp/gnoc_smoke}
mkdir -p "$OUT_DIR"
OUT=${GNOC_SMOKE_JSON:-$OUT_DIR/out.json}
HARNESS="$BUILD_DIR/bench/fig8_vc_monopolizing"

if [[ ! -x "$HARNESS" ]]; then
  echo "smoke: $HARNESS not found — build first (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

echo "smoke: $HARNESS scale=0.1 threads=4 json=$OUT $*" >&2
"$HARNESS" scale=0.1 threads=4 json="$OUT" "$@" > /dev/null

if [[ ! -s "$OUT" ]]; then
  echo "smoke: FAIL — $OUT missing or empty" >&2
  exit 1
fi

python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert "sweeps" in doc and doc["sweeps"], "no sweeps in JSON output"
sweep = next(iter(doc["sweeps"].values()))
assert sweep["cells"], "sweep has no cells"
assert all("ipc" in c for c in sweep["cells"]), "cells missing ipc"
print("smoke: JSON ok — %d cells, schemes=%s" %
      (len(sweep["cells"]), sweep["schemes"]))
EOF

# Second pass: same figure with the invariant auditor on. Any credit /
# flit-conservation / wormhole / quiescence violation fails the smoke run.
OUT_AUDIT=${GNOC_SMOKE_AUDIT_JSON:-$OUT_DIR/out_audit.json}
echo "smoke: $HARNESS scale=0.1 threads=4 audit=true json=$OUT_AUDIT $*" >&2
"$HARNESS" scale=0.1 threads=4 audit=true json="$OUT_AUDIT" "$@" > /dev/null

if [[ ! -s "$OUT_AUDIT" ]]; then
  echo "smoke: FAIL — $OUT_AUDIT missing or empty" >&2
  exit 1
fi

python3 - "$OUT_AUDIT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
bad = []
cells = 0
for name, sweep in doc["sweeps"].items():
    for cell in sweep["cells"]:
        cells += 1
        audit = cell.get("audit")
        assert audit is not None, "cell missing audit field"
        if not audit["enabled"]:
            bad.append("%s/%s/%s: auditor not enabled" %
                       (name, cell["scheme"], cell["workload"]))
        elif not audit["clean"]:
            bad.append("%s/%s/%s: %d violation(s) %s, e.g. %s" %
                       (name, cell["scheme"], cell["workload"],
                        audit["violations"], audit["by_invariant"],
                        audit["samples"][:1]))
for line in bad:
    print("smoke: AUDIT FAIL — " + line, file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: audit ok — %d cells clean" % cells)
EOF

# Third pass: telemetry exporters. fig4's standalone KMN run writes the
# windowed CSV and the Chrome trace; both must be non-empty and the trace
# must be strictly valid JSON (python3 -m json.tool), not just truthy.
TELEM=${GNOC_SMOKE_TELEMETRY:-$OUT_DIR/telemetry}
TELEM_HARNESS="$BUILD_DIR/bench/fig4_link_utilization"
rm -f "$TELEM.csv" "$TELEM.trace.json"
echo "smoke: $TELEM_HARNESS scale=0.1 telemetry_out=$TELEM" >&2
"$TELEM_HARNESS" scale=0.1 telemetry_out="$TELEM" > /dev/null

for f in "$TELEM.csv" "$TELEM.trace.json"; do
  if [[ ! -s "$f" ]]; then
    echo "smoke: FAIL — telemetry export $f missing or empty" >&2
    exit 1
  fi
done
head -n1 "$TELEM.csv" | grep -q '^window_start,window_cycles,metric' || {
  echo "smoke: FAIL — $TELEM.csv has no telemetry header" >&2; exit 1; }
python3 -m json.tool "$TELEM.trace.json" > /dev/null || {
  echo "smoke: FAIL — $TELEM.trace.json is malformed JSON" >&2; exit 1; }
grep -q '"traceEvents"' "$TELEM.trace.json" || {
  echo "smoke: FAIL — trace JSON has no traceEvents" >&2; exit 1; }
echo "smoke: telemetry ok — $TELEM.csv + valid Chrome trace" >&2

# Fourth pass: soa scheduling must be bit-identical to full-tick mode. Any
# diff between the CSVs is a scheduler bug.
SCHED_FULL=${GNOC_SMOKE_SCHED_FULL:-$OUT_DIR/sched_full.csv}
SCHED_SOA="$OUT_DIR/sched_soa.csv"
echo "smoke: $HARNESS scale=0.1 csv=true scheduling={full,soa}" >&2
"$HARNESS" scale=0.1 threads=4 csv=true scheduling=full "$@" > "$SCHED_FULL"
"$HARNESS" scale=0.1 threads=4 csv=true scheduling=soa "$@" > "$SCHED_SOA"
if ! diff -q "$SCHED_FULL" "$SCHED_SOA" > /dev/null; then
  echo "smoke: FAIL — soa scheduling diverged from full mode:" >&2
  diff "$SCHED_FULL" "$SCHED_SOA" | head -20 >&2
  exit 1
fi
echo "smoke: scheduling ok — soa output bit-identical to full" >&2

# Fifth pass: kill-and-resume. Run the fig8 sweep with checkpointing, kill
# it mid-flight (SIGKILL — no chance to clean up), resume it, and require
# the resumed JSON to be byte-for-byte identical to an uninterrupted run.
CKPT_DIR=${GNOC_SMOKE_CKPT_DIR:-$OUT_DIR/ckpt}
CKPT_OUT=${GNOC_SMOKE_CKPT_JSON:-$OUT_DIR/ckpt.json}
STRAIGHT_OUT=${GNOC_SMOKE_STRAIGHT_JSON:-$OUT_DIR/straight.json}
rm -rf "$CKPT_DIR" "$CKPT_OUT" "$STRAIGHT_OUT"
echo "smoke: $HARNESS scale=0.1 checkpoint_dir=$CKPT_DIR (will SIGKILL)" >&2
"$HARNESS" scale=0.1 threads=2 checkpoint_dir="$CKPT_DIR" \
    checkpoint_interval=200 json="$CKPT_OUT" "$@" > /dev/null 2>&1 &
VICTIM=$!
# Wait until the sweep is demonstrably mid-flight (a cell file committed),
# then kill it without warning. If it finishes first, resume still has to
# reproduce the result — the diff below covers both races.
for _ in $(seq 1 200); do
  if compgen -G "$CKPT_DIR/cell_*.bin" > /dev/null; then break; fi
  if ! kill -0 "$VICTIM" 2> /dev/null; then break; fi
  sleep 0.1
done
kill -9 "$VICTIM" 2> /dev/null || true
wait "$VICTIM" 2> /dev/null || true
if [[ ! -d "$CKPT_DIR" ]]; then
  echo "smoke: FAIL — no checkpoint directory written before kill" >&2
  exit 1
fi
echo "smoke: resuming killed sweep from $CKPT_DIR" >&2
"$HARNESS" scale=0.1 threads=2 checkpoint_dir="$CKPT_DIR" \
    checkpoint_interval=200 resume=true json="$CKPT_OUT" "$@" > /dev/null
echo "smoke: uninterrupted reference run" >&2
"$HARNESS" scale=0.1 threads=2 json="$STRAIGHT_OUT" "$@" > /dev/null
if ! cmp -s "$CKPT_OUT" "$STRAIGHT_OUT"; then
  echo "smoke: FAIL — resumed sweep JSON differs from uninterrupted run:" >&2
  diff "$CKPT_OUT" "$STRAIGHT_OUT" | head -20 >&2
  exit 1
fi
rm -rf "$CKPT_DIR"
echo "smoke: checkpoint ok — killed+resumed sweep byte-identical" >&2

# Two sweeps, one directory: fig10 runs its XY-YX and its diamond study
# into one checkpoint directory. A finished run resumed (every cell
# loaded, none rerun) must write the JSON of a straight run byte for byte.
FIG10_HARNESS="$BUILD_DIR/bench/fig10_asymmetric_partitioning"
FIG10_CKPT_DIR="$OUT_DIR/fig10_ckpt"
FIG10_CKPT_OUT="$OUT_DIR/fig10_ckpt.json"
FIG10_STRAIGHT_OUT="$OUT_DIR/fig10_straight.json"
rm -rf "$FIG10_CKPT_DIR" "$FIG10_CKPT_OUT" "$FIG10_STRAIGHT_OUT"
echo "smoke: $FIG10_HARNESS checkpoint_dir=$FIG10_CKPT_DIR, then resume=true" >&2
"$FIG10_HARNESS" scale=0.1 workloads=BFS,KMN \
    checkpoint_dir="$FIG10_CKPT_DIR" > /dev/null
"$FIG10_HARNESS" scale=0.1 workloads=BFS,KMN \
    checkpoint_dir="$FIG10_CKPT_DIR" resume=true json="$FIG10_CKPT_OUT" \
    > /dev/null
"$FIG10_HARNESS" scale=0.1 workloads=BFS,KMN json="$FIG10_STRAIGHT_OUT" \
    > /dev/null
if ! cmp -s "$FIG10_CKPT_OUT" "$FIG10_STRAIGHT_OUT"; then
  echo "smoke: FAIL — resumed fig10 JSON differs from a straight run:" >&2
  diff "$FIG10_CKPT_OUT" "$FIG10_STRAIGHT_OUT" | head -20 >&2
  exit 1
fi
rm -rf "$FIG10_CKPT_DIR"
echo "smoke: checkpoint ok — fig10's two sweeps resumed from one directory" >&2

# Topology pass: the same figure on each non-mesh topology (8x8-scale,
# 4 VCs for the dateline halves) with the invariant auditor on — wrap-link
# deadlock avoidance and the concentrated router must keep every credit /
# wormhole / quiescence invariant clean. Fixed args (no "$@"): this pass
# pins its own scale and workload subset to stay cheap.
TOPO_OUT=${GNOC_SMOKE_TOPO_JSON:-$OUT_DIR/topo.json}
for topo in torus cmesh circulant; do
  echo "smoke: $HARNESS topology=$topo radix=8 num_vcs=4 audit=true" >&2
  "$HARNESS" scale=0.1 threads=4 workloads=BFS,KMN topology="$topo" \
      radix=8 num_vcs=4 audit=true json="$TOPO_OUT" > /dev/null
  python3 - "$TOPO_OUT" "$topo" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
bad = []
cells = 0
for name, sweep in doc["sweeps"].items():
    for cell in sweep["cells"]:
        cells += 1
        audit = cell.get("audit")
        if audit is None or not audit["enabled"]:
            bad.append("%s/%s: auditor not enabled" %
                       (cell["scheme"], cell["workload"]))
        elif not audit["clean"]:
            bad.append("%s/%s: %d violation(s) %s" %
                       (cell["scheme"], cell["workload"],
                        audit["violations"], audit["by_invariant"]))
for line in bad:
    print("smoke: TOPOLOGY AUDIT FAIL (%s) — %s" % (sys.argv[2], line),
          file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: topology %s ok — %d cells audit-clean" % (sys.argv[2], cells))
EOF
done

# Config-key pass: a harness applies exactly the GpuConfig keys and run
# flags it accepts. fig2 builds its scheme through WithGridOverrides, so a
# torus run must change its CSV; fig4, table1 and pareto_search keep their
# own grid and must refuse topology= as an unknown flag (exit 2), not
# ignore it; table1 (which simulates nothing) and qos_starvation (its own
# traffic, never a sweep) must refuse the sweep flags they would ignore.
FIG2_HARNESS="$BUILD_DIR/bench/fig2_traffic_volumes"
FIG2_MESH="$OUT_DIR/fig2_mesh.csv"
FIG2_TORUS="$OUT_DIR/fig2_torus.csv"
echo "smoke: $FIG2_HARNESS default vs topology=torus radix=8 num_vcs=4" >&2
"$FIG2_HARNESS" scale=0.1 workloads=BFS csv=true > "$FIG2_MESH"
"$FIG2_HARNESS" scale=0.1 workloads=BFS csv=true topology=torus radix=8 \
    num_vcs=4 > "$FIG2_TORUS"
if cmp -s "$FIG2_MESH" "$FIG2_TORUS"; then
  echo "smoke: FAIL — fig2 ignored topology=torus radix=8 num_vcs=4" >&2
  exit 1
fi
# Cheap arguments, so a harness that wrongly accepts the flag finishes fast.
# A refused run prints no result: no GEOMEAN row reaches stdout.
expect_refused() {  # harness flag [args...]: one "harness: " line, exit 2
  local status=0 err out="$OUT_DIR/refused.out"
  err=$("$BUILD_DIR/bench/$1" "${@:3}" "$2" 2>&1 > "$out") || status=$?
  if (( status != 2 )) || [[ "$err" != "$1: "* || "$err" == *$'\n'* ]]; then
    echo "smoke: FAIL — $1 exited $status on $2, not 2 with one line: $err" >&2
    exit 1
  fi
  if grep -q GEOMEAN "$out"; then
    echo "smoke: FAIL — $1 printed results before refusing $2" >&2
    exit 1
  fi
}
expect_refused fig4_link_utilization topology=torus scale=0.1
expect_refused table1_hop_counts topology=torus
expect_refused pareto_search topology=torus strategy=grid scale=0.1 \
    workloads=BFS max_evaluations=1 out="$OUT_DIR/refused.json"
expect_refused table1_hop_counts threads=2
expect_refused qos_starvation workloads=BFS scale=0.01
# Configurations the construction check refuses, before any cell runs:
# split cannot divide one VC, two VCs leave a torus no dateline halves,
# and asymmetric partitioning leaves requests one VC there.
expect_refused fig8_vc_monopolizing num_vcs=1 scale=0.1 workloads=BFS
expect_refused fig8_vc_monopolizing topology=torus radix=8 num_vcs=2 \
    scale=0.1 workloads=BFS
expect_refused fig10_asymmetric_partitioning topology=torus radix=8 \
    scale=0.1 workloads=BFS
# fig10's second study (diamond on a 4x4 grid) is refused before its first
# sweep runs, not after it printed its table.
expect_refused fig10_asymmetric_partitioning radix=4 scale=0.01 workloads=BFS
# Unknown workloads, impossible search axes and unknown or repeated search
# objectives are refused like any bad flag value.
expect_refused fig8_vc_monopolizing workloads=FOO scale=0.01
expect_refused ablation_design_choices workload=FOO scale=0.01
for axis in vc_counts=0 vc_counts=x objectives=ipc,foo objectives=ipc,ipc; do
  expect_refused pareto_search "$axis" strategy=grid max_evaluations=2 \
      workloads=BFS scale=0.01 radix=4 placements=bottom routings=xy \
      vc_policies=split topologies=mesh vc_depths=4 \
      out="$OUT_DIR/refused.json"
done
echo "smoke: config keys ok — fig2 applies topology=; fig4, table1 and" \
     "pareto_search refuse it; table1 refuses threads=, qos_starvation" \
     "workloads=; fig8 and fig10 refuse configurations they cannot build;" \
     "unknown workloads, impossible axes and bad objectives are refused" >&2

# DSE pass: a one-evaluation search at the default strategy (nsga2) must
# run; then a quick Pareto search over a 16-point sub-space (grid
# strategy, ground truth for the size) must complete, write a parseable
# pareto.json and report a non-empty frontier with full per-point configs.
DSE_OUT=${GNOC_SMOKE_DSE_JSON:-$OUT_DIR/pareto.json}
DSE_HARNESS="$BUILD_DIR/bench/pareto_search"
echo "smoke: $DSE_HARNESS at its default strategy, one evaluation" >&2
"$DSE_HARNESS" scale=0.1 workloads=BFS max_evaluations=1 \
    out="$OUT_DIR/pareto_default.json" > /dev/null
echo "smoke: $DSE_HARNESS strategy=grid radix=4 16-point sub-space" >&2
"$DSE_HARNESS" strategy=grid max_evaluations=0 radix=4 workloads=BFS \
    scale=0.1 placements=bottom topologies=mesh routings=xy,yx \
    vc_policies=split,mono vc_counts=2,4 vc_depths=2,4 \
    out="$DSE_OUT" > /dev/null
if [[ ! -s "$DSE_OUT" ]]; then
  echo "smoke: FAIL — $DSE_OUT missing or empty" >&2
  exit 1
fi
python3 - "$DSE_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["completed"], "search did not complete"
assert doc["num_designs"] == 16, "expected 16 designs, got %d" % \
    doc["num_designs"]
assert doc["frontier_size"] >= 1, "empty frontier"
frontier = [d for d in doc["designs"] if d["feasible"] and not d["dominated"]]
assert len(frontier) == doc["frontier_size"], "frontier label mismatch"
for d in frontier:
    assert d["config"]["num_vcs"] in (2, 4), "bad config in frontier point"
    assert d["metrics"]["ipc"] > 0, "frontier point with zero IPC"
print("smoke: dse ok — %d designs, frontier %d, e.g. %s" %
      (doc["num_designs"], doc["frontier_size"], frontier[0]["label"]))
EOF

# QoS pass: two legs. (1) The starvation study harness self-checks the
# hard invariants — four-way scheduling bit-identity with QoS enabled, a
# mid-measure snapshot-resume leg, and the latency-critical class holding
# its p99 target that the QoS-off control violates — and exits non-zero on
# any failure. (2) The qos=/qos_class= flag surface on the fig8 harness:
# named classes must come back as JSON keys with the configured knobs and
# a live token-bucket (throttle_cycles > 0), audit-clean.
QOS_OUT=${GNOC_SMOKE_QOS_JSON:-$OUT_DIR/qos.json}
QOS_HARNESS="$BUILD_DIR/bench/qos_starvation"
echo "smoke: $QOS_HARNESS scale=0.25 json=$QOS_OUT" >&2
"$QOS_HARNESS" scale=0.25 json="$QOS_OUT" > /dev/null
QOS_FLAGS_OUT=${GNOC_SMOKE_QOS_FLAGS_JSON:-$OUT_DIR/qos_flags.json}
echo "smoke: $HARNESS qos=strict qos_class=critical,... qos_class=bulk,..." >&2
"$HARNESS" scale=0.1 threads=4 workloads=BFS audit=true qos=strict \
    "qos_class=critical,prio=2,vcs=1,p99=300" \
    "qos_class=bulk,prio=1,rate=0.5,burst=8,vcs=1" \
    json="$QOS_FLAGS_OUT" > /dev/null
python3 - "$QOS_OUT" "$QOS_FLAGS_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    starve = json.load(f)
m = starve["metrics"]
assert m["qos_off_violation_windows"] > 0, "control run never violated SLO"
assert m["qos_on_violation_windows"] == 0, "QoS run violated SLO"
assert m["qos_on_critical_p99"] < m["qos_off_critical_p99"], \
    "QoS did not improve critical p99"
with open(sys.argv[2]) as f:
    doc = json.load(f)
bad = []
cells = 0
for name, sweep in doc["sweeps"].items():
    for cell in sweep["cells"]:
        cells += 1
        qos = cell.get("qos")
        if qos is None or not qos["enabled"] or qos["arbitration"] != "strict":
            bad.append("%s/%s: qos flags not applied" %
                       (cell["scheme"], cell["workload"]))
            continue
        classes = qos["classes"]
        if set(classes) != {"critical", "bulk"}:
            bad.append("%s/%s: class names %s" %
                       (cell["scheme"], cell["workload"], sorted(classes)))
        elif classes["critical"]["priority"] != 2 \
                or classes["bulk"]["rate"] != 0.5:
            bad.append("%s/%s: class knobs not applied" %
                       (cell["scheme"], cell["workload"]))
        elif classes["bulk"]["throttle_cycles"] == 0:
            bad.append("%s/%s: token bucket never throttled" %
                       (cell["scheme"], cell["workload"]))
        audit = cell.get("audit")
        if audit is None or not audit["enabled"] or not audit["clean"]:
            bad.append("%s/%s: audit not clean under QoS" %
                       (cell["scheme"], cell["workload"]))
for line in bad:
    print("smoke: QOS FAIL — " + line, file=sys.stderr)
if bad:
    sys.exit(1)
print("smoke: qos ok — starvation study self-checks passed, "
      "%d cells carry named classes, audit-clean" % cells)
EOF

# Network-division pass: the Sec. 4.2 harness runs every workload on one
# network with virtually divided VCs and on two physical networks; every
# cell of both must be audit-clean. Then the trace recorder: a recorded
# full-system run must write the CSV header and more than 100 packets.
NETDIV_OUT=${GNOC_SMOKE_NETDIV_JSON:-$OUT_DIR/netdiv.json}
NETDIV_HARNESS="$BUILD_DIR/bench/netdiv_network_division"
echo "smoke: $NETDIV_HARNESS scale=0.1 workloads=BFS,KMN audit=true" >&2
"$NETDIV_HARNESS" scale=0.1 threads=4 workloads=BFS,KMN audit=true \
    json="$NETDIV_OUT" > /dev/null
python3 - "$NETDIV_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = [c for sweep in doc["sweeps"].values() for c in sweep["cells"]]
schemes = {c["scheme"] for c in cells}
assert len(schemes) == 2, "expected both divisions, got %s" % sorted(schemes)
bad = ["%s/%s" % (c["scheme"], c["workload"]) for c in cells
       if not c["audit"]["enabled"] or not c["audit"]["clean"]]
if bad:
    sys.exit("smoke: NETDIV AUDIT FAIL — " + ", ".join(bad))
print("smoke: netdiv ok — %d cells over both divisions audit-clean" %
      len(cells))
EOF
TRACE_OUT=${GNOC_SMOKE_TRACE_CSV:-$OUT_DIR/trace.csv}
TRACE_HARNESS="$BUILD_DIR/examples/trace_replay"
rm -f "$TRACE_OUT"
echo "smoke: $TRACE_HARNESS measure=2000 trace_file=$TRACE_OUT" >&2
"$TRACE_HARNESS" measure=2000 trace_file="$TRACE_OUT" > /dev/null
head -n1 "$TRACE_OUT" | grep -qx 'cycle,src,dst,type,flits,addr' || {
  echo "smoke: FAIL — $TRACE_OUT has no trace header" >&2; exit 1; }
TRACE_RECORDS=$(($(wc -l < "$TRACE_OUT") - 1))
if (( TRACE_RECORDS <= 100 )); then
  echo "smoke: FAIL — $TRACE_OUT holds $TRACE_RECORDS records" >&2
  exit 1
fi
echo "smoke: trace ok — $TRACE_RECORDS recorded packets" >&2

# Microbenchmark pass: one short router_micro run, so the idle, sparse and
# saturated cycle costs DESIGN.md and EXPERIMENTS.md quote, and the loaded
# GPU cycle (KMN, where blocked routers and NICs sleep), are recorded with
# every run's artifacts. Nothing is gated on the numbers. --benchmark_min_time
# takes a plain number of seconds: google-benchmark before 1.8 rejects the
# "0.05s" form, and later versions still accept a bare number.
MICRO_OUT=${GNOC_SMOKE_MICRO_JSON:-$OUT_DIR/router_micro.json}
MICRO_HARNESS="$BUILD_DIR/bench/router_micro"
echo "smoke: $MICRO_HARNESS --benchmark_min_time=0.05 json=$MICRO_OUT" >&2
"$MICRO_HARNESS" --benchmark_min_time=0.05 json="$MICRO_OUT" > /dev/null
if [[ ! -s "$MICRO_OUT" ]]; then
  echo "smoke: FAIL — $MICRO_OUT missing or empty" >&2
  exit 1
fi
python3 - "$MICRO_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {b["name"]: b["cpu_time"] for b in doc["benchmarks"]}
for name in ("BM_NetworkCycleIdleSoa", "BM_NetworkCycleSparseSoa",
             "BM_NetworkCycleSaturatedTorus", "BM_GpuCycleLoaded"):
    assert name in times, "router_micro JSON lacks " + name
print("smoke: router_micro ok — %d benchmarks; soa idle %.0f ns, "
      "sparse %.0f ns per 8x8 cycle; saturated %.0f ns per 16x16 QoS "
      "torus cycle; loaded %.0f ns per 8x8 GPU cycle (KMN)" %
      (len(times), times["BM_NetworkCycleIdleSoa"],
       times["BM_NetworkCycleSparseSoa"],
       times["BM_NetworkCycleSaturatedTorus"],
       times["BM_GpuCycleLoaded"]))
EOF

# Sixth pass: one UBSan config, when an undefined-sanitizer tree exists
# (any UB aborts the harness because the tree builds with
# -fno-sanitize-recover=undefined).
UBSAN_DIR=${GNOC_SMOKE_UBSAN_DIR:-build-ubsan}
UBSAN_HARNESS="$UBSAN_DIR/bench/fig8_vc_monopolizing"
if [[ -x "$UBSAN_HARNESS" ]]; then
  echo "smoke: $UBSAN_HARNESS scale=0.1 threads=4 telemetry=true (UBSan)" >&2
  "$UBSAN_HARNESS" scale=0.1 threads=4 telemetry=true > /dev/null
  echo "smoke: UBSan config ok" >&2
else
  echo "smoke: note — no UBSan tree at $UBSAN_DIR, skipping UBSan pass" \
       "(cmake -B build-ubsan -S . -DGNOC_SANITIZE=undefined)" >&2
fi

echo "smoke: ok — artifacts in $OUT_DIR" >&2
