#!/usr/bin/env python3
"""Bit-identity and result-stability gate for the NoC scheduler.

Runs the fig8 sweep (fixed seed, reduced scale) twice — once per
scheduling mode (full, soa) — and enforces these gates:

  1. Bit identity: the soa run's sweep JSON document must be *exactly*
     equal to the full-mode one, floats included. They come from the same
     binary in the same process environment, so any difference is a
     scheduler bug.
  2. Result stability: the full-mode document must match the committed
     baseline (bench/baseline.json). Integers and strings compare exactly;
     floats compare to a relative tolerance of 1e-6, absorbing FP-contraction
     differences between compilers while still catching real changes.
  (3. No wall-clock gate: both modes run the same router visit loop, so
     full is no control for soa's speed. bench/ab_gate.py gates host
     speed against the base revision instead.)
  4. Checkpoint-off cost: a checkpoint-enabled run (checkpoint_dir= to a
     scratch directory) is the on-machine control for the default
     checkpoint-off run. The two must produce exactly equal JSON, and the
     checkpoint-off wall clock must be within --ckpt-tolerance (default 5%)
     of the checkpoint-enabled one — the off path may never pay checkpoint
     costs (it is the pre-checkpoint RunCell code path, null-hook pattern).
     Both walls come from one loop of alternating off/on runs, the best of
     each over the same number of pairs, so host drift between two batches
     of runs cannot open a gap between the modes.
  5. Extra gates: each entry of the baseline's "extra_gates" list (e.g. the
     fixed-seed 16x16 torus sweep) re-runs gates 1-2 — soa-vs-full
     bit-identity and results vs committed baseline — under its own
     protocol. This pins the dateline topologies' numbers the same way the
     8x8 mesh baseline is pinned.
  6. QoS gate: the qos_starvation harness is self-checking (non-zero exit on
     any cross-backend or snapshot-resume divergence, or a missed p99
     target), so this leg re-proves soa-vs-full and snapshot-resume
     bit-identity under a non-trivial QoS config and pins the headline
     starvation numbers
     against the baseline's "qos_gate" section. Note the *default* fig8
     runs of gates 1-2 double as the QoS-off control: QoS stays disabled
     there, so any drift in their numbers vs the committed baseline would
     flag a QoS-off behavior change.

Regenerate the baseline after an intentional behavior change with:

    python3 bench/check_regression.py --build-dir build --update

Exit status: 0 = all gates pass, 1 = a gate failed, 2 = usage/setup error.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

DEFAULT_PROTOCOL = {
    "harness": "bench/fig8_vc_monopolizing",
    "args": ["scale=0.1", "threads=1", "workloads=CP,NQU,HOT,BFS,KMN"],
    "repeats": 3,
}
# Dateline-topology pin: same harness on a 16x16 torus (4 VCs for the
# dateline halves). A smaller workload set keeps the 4x-router sweep quick.
EXTRA_GATE_PROTOCOLS = [
    {
        "name": "torus16",
        "harness": "bench/fig8_vc_monopolizing",
        "args": ["scale=0.1", "threads=1", "workloads=BFS,KMN",
                 "radix=16", "topology=torus", "num_vcs=4"],
        "repeats": 2,
    },
]
# QoS starvation pin: mixed latency-critical + saturating-bulk open-loop run.
# The harness runs both scheduling backends (plus snapshot-resume legs)
# itself and exits non-zero unless they are byte-identical and the QoS-on
# run holds the critical class's p99 target.
QOS_GATE_PROTOCOL = {
    "harness": "bench/qos_starvation",
    "args": ["scale=0.25"],
    "repeats": 1,
}
FLOAT_REL_TOL = 1e-6


def harness_cmd(build_dir, protocol, mode, json_path, extra_args=()):
    """The command line running the protocol's harness in `mode`."""
    harness = os.path.join(build_dir, protocol["harness"])
    if not os.access(harness, os.X_OK):
        sys.exit(f"check_regression: harness not found/executable: {harness}")
    return [harness] + protocol["args"] + [
        f"json={json_path}", f"scheduling={mode}"] + list(extra_args)


def timed_run(cmd):
    """Runs `cmd` (stdout discarded); returns its wall time in seconds."""
    start = time.monotonic()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.monotonic() - start


def run_mode(build_dir, protocol, mode, json_path, extra_args=()):
    """Runs the harness in `mode` `repeats` times; returns (doc, best wall).

    The minimum wall time over the repeats is the least-noise estimator on a
    shared CI runner (noise only ever adds time).
    """
    cmd = harness_cmd(build_dir, protocol, mode, json_path, extra_args)
    best = min(timed_run(cmd) for _ in range(protocol["repeats"]))
    with open(json_path) as f:
        return json.load(f), best


def diff_json(a, b, exact_floats, path="$"):
    """Returns a list of human-readable difference strings (empty = equal)."""
    if type(a) is not type(b) and not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return [f"{path}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        diffs = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                diffs.append(f"{path}.{k}: only in "
                             f"{'baseline' if k in a else 'current'}")
            else:
                diffs += diff_json(a[k], b[k], exact_floats, f"{path}.{k}")
        return diffs
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        diffs = []
        for i, (x, y) in enumerate(zip(a, b)):
            diffs += diff_json(x, y, exact_floats, f"{path}[{i}]")
        return diffs
    if isinstance(a, float) or isinstance(b, float):
        if not exact_floats and math.isclose(a, b, rel_tol=FLOAT_REL_TOL,
                                             abs_tol=1e-12):
            return []
        if exact_floats and a == b:
            return []
        return [f"{path}: {a!r} != {b!r}"]
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.environ.get("BUILD_DIR", "build"))
    ap.add_argument("--baseline",
                    default=os.path.join(os.path.dirname(__file__),
                                         "baseline.json"))
    ap.add_argument("--out-dir", default="/tmp",
                    help="where the per-mode sweep JSON artifacts land")
    ap.add_argument("--ckpt-tolerance", type=float, default=0.05,
                    help="allowed checkpoint-off vs checkpoint-on wall-clock "
                         "excess (0.05 = 5%%)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this machine's runs")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    if args.update:
        protocol = dict(DEFAULT_PROTOCOL)
    else:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except OSError as e:
            sys.exit(f"check_regression: cannot read baseline: {e}")
        protocol = baseline["protocol"]

    full_json = os.path.join(args.out_dir, "sweep_full.json")
    soa_json = os.path.join(args.out_dir, "sweep_soa.json")
    full_doc, full_wall = run_mode(args.build_dir, protocol, "full", full_json)
    soa_doc, soa_wall = run_mode(args.build_dir, protocol, "soa", soa_json)
    print(f"check_regression: wall full={full_wall:.3f}s "
          f"soa={soa_wall:.3f}s")

    # Gate 1: bit identity between the scheduling modes (same binary, exact
    # float comparison — any diff is a scheduler bug).
    diffs = diff_json(full_doc, soa_doc, exact_floats=True)
    if diffs:
        print("check_regression: FAIL — soa diverged from full mode:",
              file=sys.stderr)
        for d in diffs[:20]:
            print("  " + d, file=sys.stderr)
        return 1
    print("check_regression: bit-identity ok (soa == full, exact)")

    # Gate 4: checkpoint-off hot-path cost. The checkpoint-enabled run
    # (same machine, same protocol, strictly more work) is the control; the
    # default checkpoint-off run must produce exactly equal results and may
    # not be meaningfully slower than it — if it were, the off path would
    # be paying checkpoint costs it is designed (null-hook pattern) not to.
    # The two modes alternate over `repeats` pairs, each pair run in the
    # other order from the last, so neither mode always follows the
    # other's file writes; each wall is the best of its mode's runs.
    ckpt_json = os.path.join(args.out_dir, "sweep_ckpt.json")
    ckpt_dir = os.path.join(args.out_dir, "sweep_ckpt_dir")
    off_cmd = harness_cmd(args.build_dir, protocol, "full", full_json)
    on_cmd = harness_cmd(args.build_dir, protocol, "full", ckpt_json,
                         [f"checkpoint_dir={ckpt_dir}"])
    off_wall = ckpt_wall = math.inf
    for pair in range(protocol["repeats"]):
        for on in (False, True) if pair % 2 == 0 else (True, False):
            if on:
                shutil.rmtree(ckpt_dir, ignore_errors=True)
                ckpt_wall = min(ckpt_wall, timed_run(on_cmd))
            else:
                off_wall = min(off_wall, timed_run(off_cmd))
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    with open(ckpt_json) as f:
        ckpt_doc = json.load(f)
    diffs = diff_json(full_doc, ckpt_doc, exact_floats=True)
    if diffs:
        print("check_regression: FAIL — checkpointed sweep diverged from "
              "plain run:", file=sys.stderr)
        for d in diffs[:20]:
            print("  " + d, file=sys.stderr)
        return 1
    allowed_wall = ckpt_wall * (1.0 + args.ckpt_tolerance)
    if off_wall > allowed_wall:
        print(f"check_regression: FAIL — checkpoint-off wall "
              f"{off_wall:.3f}s exceeds checkpoint-on control "
              f"{ckpt_wall:.3f}s +{args.ckpt_tolerance:.0%} "
              f"({allowed_wall:.3f}s): the checkpoint-off path is paying "
              f"checkpoint costs", file=sys.stderr)
        return 1
    print(f"check_regression: checkpoint ok (results identical, off wall "
          f"{off_wall:.3f}s <= on {ckpt_wall:.3f}s "
          f"+{args.ckpt_tolerance:.0%}, best of {protocol['repeats']} "
          f"alternating pairs)")

    # Gate 5: extra pinned protocols (e.g. the fixed-seed 16x16 torus run),
    # each re-running the bit-identity and stats gates.
    extra_specs = (EXTRA_GATE_PROTOCOLS if args.update
                   else baseline.get("extra_gates", []))
    extra_updated = []
    for spec in extra_specs:
        name = spec["name"]
        proto = {"harness": spec["harness"], "args": spec["args"],
                 "repeats": spec["repeats"]}
        e_full_doc, e_full_wall = run_mode(
            args.build_dir, proto, "full",
            os.path.join(args.out_dir, f"sweep_{name}_full.json"))
        e_soa_doc, e_soa_wall = run_mode(
            args.build_dir, proto, "soa",
            os.path.join(args.out_dir, f"sweep_{name}_soa.json"))
        print(f"check_regression[{name}]: wall full={e_full_wall:.3f}s "
              f"soa={e_soa_wall:.3f}s")
        diffs = diff_json(e_full_doc, e_soa_doc, exact_floats=True)
        if diffs:
            print(f"check_regression[{name}]: FAIL — soa diverged from full "
                  "mode:", file=sys.stderr)
            for d in diffs[:20]:
                print("  " + d, file=sys.stderr)
            return 1
        print(f"check_regression[{name}]: bit-identity ok (soa == full, "
              "exact)")
        if args.update:
            extra_updated.append(dict(proto, name=name, results=e_full_doc))
            continue
        diffs = diff_json(spec["results"], e_full_doc, exact_floats=False)
        if diffs:
            print(f"check_regression[{name}]: FAIL — stats changed vs "
                  "committed baseline (if intentional, rerun with --update):",
                  file=sys.stderr)
            for d in diffs[:20]:
                print("  " + d, file=sys.stderr)
            return 1
        print(f"check_regression[{name}]: stats ok "
              "(match committed baseline)")

    # Gate 6: QoS guaranteed-service pin. The harness self-checks the hard
    # invariants (soa-vs-full bit-identity with QoS enabled, snapshot-resume
    # identity, SLO met under QoS / violated without); the gate here only
    # adds the graceful failure report and the numeric pin.
    qos_spec = QOS_GATE_PROTOCOL if args.update else baseline.get("qos_gate")
    qos_updated = None
    if qos_spec is not None:
        qos_harness = os.path.join(args.build_dir, qos_spec["harness"])
        if not os.access(qos_harness, os.X_OK):
            sys.exit("check_regression: harness not found/executable: "
                     f"{qos_harness}")
        qos_json = os.path.join(args.out_dir, "sweep_qos.json")
        qos_cmd = [qos_harness] + qos_spec["args"] + [f"json={qos_json}"]
        qos_run = subprocess.run(qos_cmd, stdout=subprocess.DEVNULL)
        if qos_run.returncode != 0:
            print("check_regression[qos]: FAIL — qos_starvation self-checks "
                  f"failed (exit {qos_run.returncode}): a scheduling backend "
                  "diverged under QoS, the snapshot-resume leg mismatched, "
                  "or the p99 target was missed", file=sys.stderr)
            return 1
        with open(qos_json) as f:
            qos_doc = json.load(f)
        print("check_regression[qos]: self-checks ok (bit-identity across "
              "both backends + snapshot resume, SLO held)")
        if args.update:
            qos_updated = {"harness": qos_spec["harness"],
                           "args": qos_spec["args"],
                           "repeats": qos_spec["repeats"],
                           "results": qos_doc}
        else:
            diffs = diff_json(qos_spec["results"], qos_doc,
                              exact_floats=False)
            if diffs:
                print("check_regression[qos]: FAIL — stats changed vs "
                      "committed baseline (if intentional, rerun with "
                      "--update):", file=sys.stderr)
                for d in diffs[:20]:
                    print("  " + d, file=sys.stderr)
                return 1
            print("check_regression[qos]: stats ok (match committed "
                  "baseline)")

    if args.update:
        doc = {
            "protocol": protocol,
            "results": full_doc,
            "extra_gates": extra_updated,
            "qos_gate": qos_updated,
        }
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"check_regression: baseline updated: {args.baseline}")
        return 0

    # Gate 2: simulated results must match the committed baseline.
    diffs = diff_json(baseline["results"], full_doc, exact_floats=False)
    if diffs:
        print("check_regression: FAIL — stats changed vs committed baseline "
              "(if intentional, rerun with --update):", file=sys.stderr)
        for d in diffs[:20]:
            print("  " + d, file=sys.stderr)
        return 1
    print("check_regression: stats ok (match committed baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
