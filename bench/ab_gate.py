#!/usr/bin/env python3
"""A/B host-speed gate: this checkout against a base revision.

    python3 bench/ab_gate.py --base origin/main --json ab_gate.json

Run it from anywhere inside a git checkout. It checks REV out into a git
worktree under .bench_build/ab_gate/base and runs each tree's own
perfbench/run.py on every workload BENCHMARK.json names, in PAIRS
alternating pairs of RUN_SECONDS-second runs (the base first in odd
pairs, so drift on the host hits both sides alike). Every run of both
sides must report "correct": true with 0 failed.

For each of BENCHMARK.json's end-to-end metrics the gate compares the
medians over runs. A metric fails when the head's median is worse than
the base's by more than the metric's bound (as a fraction of the base
median). A metric whose base IQR is wider than its bound cannot be
resolved on this host: it prints as unresolved and does not fail.

The medians, quartiles and verdicts are written as JSON to --json.
Exit status: 0 = pass, 1 = a metric or a correctness check failed,
2 = usage/setup error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Fixed so that every gate run, locally and in CI, measures the same way.
PAIRS = 5
RUN_SECONDS = 5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "ab_gate")
BASE_TREE = os.path.join(WORK_DIR, "base")


def git(*args, cwd=ROOT):
    """Runs git and returns its stripped stdout; exits 2 on failure."""
    result = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(2)
    return result.stdout.strip()


def checkout_base(rev):
    """Points the base worktree at `rev` (created on first use)."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if os.path.exists(os.path.join(BASE_TREE, ".git")):
        git("checkout", "--quiet", "--force", "--detach", sha, cwd=BASE_TREE)
    else:
        os.makedirs(WORK_DIR, exist_ok=True)
        git("worktree", "prune")
        git("worktree", "add", "--quiet", "--force", "--detach", BASE_TREE,
            sha)
    return sha


def run_perfbench(tree, workload, seconds):
    """One run of `tree`'s perfbench/run.py; returns its final JSON line."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    result = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                            check=False)
    lines = result.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    if result.returncode != 0 or not isinstance(report, dict):
        sys.stderr.write(result.stderr[-4000:])
        return {"correct": False, "failed": -1, "metrics": {},
                "error": f"exit {result.returncode}, no JSON report"}
    return report


def quartiles(values):
    """(q1, median, q3) of `values` (inclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def judge(metric, base_values, head_values):
    """The verdict of one end-to-end metric over both sides' runs."""
    b_q1, b_med, b_q3 = quartiles(base_values)
    h_q1, h_med, h_q3 = quartiles(head_values)
    # Positive = the head is worse, as a fraction of the base median.
    if b_med == 0:
        worse = 0.0 if h_med == b_med else float("inf")
    elif metric["better"] == "higher":
        worse = (b_med - h_med) / b_med
    else:
        worse = (h_med - b_med) / b_med
    base_iqr = (b_q3 - b_q1) / b_med if b_med != 0 else 0.0
    bound = metric["bound"]
    if base_iqr > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "fail"
    else:
        verdict = "pass"
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base_values},
        "head": {"median": h_med, "q1": h_q1, "q3": h_q3, "runs": head_values},
        "base_iqr_frac": base_iqr, "worse_frac": worse, "verdict": verdict,
    }


def gate_workload(workload, metrics):
    """Runs the alternating pairs of one workload and judges it."""
    runs = {"base": [], "head": []}
    trees = {"base": BASE_TREE, "head": ROOT}
    for pair in range(1, PAIRS + 1):
        order = ("base", "head") if pair % 2 == 1 else ("head", "base")
        for side in order:
            report = run_perfbench(trees[side], workload, RUN_SECONDS)
            runs[side].append(report)
            print(f"ab_gate[{workload}] pair {pair} {side}: correct="
                  f"{report.get('correct')} failed={report.get('failed')}",
                  flush=True)
    problems = [f"{side} run {i + 1}: correct={r.get('correct')} "
                f"failed={r.get('failed')}"
                for side in ("base", "head")
                for i, r in enumerate(runs[side])
                if r.get("correct") is not True or r.get("failed") != 0]
    result = {"correctness_problems": problems, "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r.get("metrics", {})]
                  for side in ("base", "head")}
        if len(values["base"]) != PAIRS or len(values["head"]) != PAIRS:
            problems.append(f"{name}: missing from some runs")
            continue
        result["metrics"][name] = judge(metric, values["base"],
                                        values["head"])
    return result


def print_workload(workload, result):
    print(f"ab_gate[{workload}]:")
    for name, m in result["metrics"].items():
        print(f"  {name:18} base {m['base']['median']:.6g} "
              f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}]  "
              f"head {m['head']['median']:.6g} "
              f"[{m['head']['q1']:.6g}, {m['head']['q3']:.6g}]  "
              f"worse {m['worse_frac']:+.1%} (bound {m['bound']:.0%}, "
              f"base IQR {m['base_iqr_frac']:.1%})  {m['verdict'].upper()}")
    for problem in result["correctness_problems"]:
        print(f"  FAIL — {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="revision to compare against (e.g. the merge base)")
    ap.add_argument("--json", default=os.path.join(WORK_DIR, "ab_gate.json"),
                    help="where the medians, IQRs and verdicts are written")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    base_sha = checkout_base(args.base)
    head = git("describe", "--always", "--dirty", "--abbrev=12")
    print(f"ab_gate: base {base_sha[:12]} vs head {head}: {PAIRS} pairs of "
          f"{RUN_SECONDS}-s runs per workload", flush=True)
    # Build both trees (run.py builds on first use) before any timed run.
    for tree in (BASE_TREE, ROOT):
        report = run_perfbench(tree, workloads[0], 1)
        if "error" in report:
            print(f"ab_gate: FAIL — perfbench did not run in {tree}",
                  file=sys.stderr)
            return 2

    doc = {"base": base_sha, "head": head, "pairs": PAIRS,
           "run_seconds": RUN_SECONDS, "workloads": {}}
    failed = False
    for workload in workloads:
        result = gate_workload(workload, metrics)
        doc["workloads"][workload] = result
        print_workload(workload, result)
        failed |= bool(result["correctness_problems"]) or any(
            m["verdict"] == "fail" for m in result["metrics"].values())
    doc["verdict"] = "fail" if failed else "pass"

    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ab_gate: {doc['verdict'].upper()} (JSON: {args.json})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
