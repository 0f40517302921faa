#!/usr/bin/env python3
"""A/B host-speed gate: this checkout against a base revision.

    python3 bench/ab_gate.py --base origin/main --json ab_gate.json

Run it from anywhere inside a git checkout. It exports REV (git archive)
into .bench_build/ab_gate/base, re-extracting it only when REV names
another commit, so no worktree is registered, and runs each tree's own
perfbench/run.py on every workload BENCHMARK.json names, in PAIRS
alternating pairs of RUN_SECONDS-second runs (the base first in odd
pairs, so drift on the host hits both sides alike). Every run of both
sides must report "correct": true with 0 failed.

For each of BENCHMARK.json's end-to-end metrics the gate compares the
medians over runs. A metric fails when the head's median is worse than
the base's by more than the metric's bound (as a fraction of the base
median). A metric whose base IQR is wider than its bound cannot be
resolved on this host: it prints as unresolved and does not fail. Every
metric also prints the pairs the head won (ties count for neither side)
and the ratio of the medians (head / base).

    python3 bench/ab_gate.py --base origin/main --claim noc-qos-saturated:sim_cycles_per_s

checks a gain claim instead of the regression gate: it runs only that
workload, in CLAIM_PAIRS alternating pairs at BENCHMARK.json's
run_seconds, and passes only when the head wins at least CLAIM_MIN_WINS
pairs and its median beats the base's by more than the base's IQR.
--seed passes a perfbench seed to every run of either mode.

The medians, quartiles, win counts and verdicts are written as JSON to
--json. Exit status: 0 = pass, 1 = a metric, the claim or a correctness
check failed, 2 = usage/setup error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# Fixed so that every gate run, locally and in CI, measures the same way.
PAIRS = 5
RUN_SECONDS = 5
# A gain claim: pairs (of BENCHMARK.json's run_seconds) and pairs to win.
CLAIM_PAIRS = 10
CLAIM_MIN_WINS = 9

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "ab_gate")
BASE_TREE = os.path.join(WORK_DIR, "base")


def git(*args):
    """Runs git and returns its stripped stdout; exits 2 on failure."""
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                            text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        sys.exit(2)
    return result.stdout.strip()


def checkout_base(rev):
    """Exports `rev` into the base tree (kept while `rev` is the same
    commit, so its perfbench build is reused); returns the commit's sha."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    stamp = os.path.join(WORK_DIR, "base.sha")
    if os.path.isdir(BASE_TREE) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == sha:
                return sha
        os.remove(stamp)
    shutil.rmtree(BASE_TREE, ignore_errors=True)
    os.makedirs(BASE_TREE)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", BASE_TREE],
                             stdin=archive.stdout, check=False)
    archive.stdout.close()
    if archive.wait() != 0 or extract.returncode != 0:
        print(f"ab_gate: cannot export {sha[:12]} into {BASE_TREE}",
              file=sys.stderr)
        sys.exit(2)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return sha


def run_perfbench(tree, workload, seconds, seed=None):
    """One run of `tree`'s perfbench/run.py; returns its final JSON line."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
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


def head_wins(metric, base_values, head_values):
    """Pairs (base_values[i], head_values[i]) in which the head is strictly
    better in the metric's direction; a tie counts for neither side."""
    sign = 1 if metric["better"] == "higher" else -1
    return sum(1 for b, h in zip(base_values, head_values)
               if sign * (h - b) > 0)


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
        "head_wins": head_wins(metric, base_values, head_values),
        "pairs": min(len(base_values), len(head_values)),
        "median_ratio": h_med / b_med if b_med != 0 else None,
    }


def judge_claim(metric, base_values, head_values):
    """The verdict of a gain claim on one metric: the head must win at least
    CLAIM_MIN_WINS pairs, and its median must beat the base's, in the
    metric's direction, by more than the base's IQR."""
    result = judge(metric, base_values, head_values)
    b_med = result["base"]["median"]
    h_med = result["head"]["median"]
    gain = h_med - b_med if metric["better"] == "higher" else b_med - h_med
    base_iqr = result["base"]["q3"] - result["base"]["q1"]
    holds = result["head_wins"] >= CLAIM_MIN_WINS and gain > base_iqr
    result.update({"gain": gain, "base_iqr": base_iqr,
                   "min_wins": CLAIM_MIN_WINS,
                   "verdict": "pass" if holds else "fail"})
    return result


def run_pairs(workload, pairs, seconds, seed):
    """Runs `pairs` alternating pairs of one workload (the base first in odd
    pairs); returns each side's reports and the correctness problems."""
    runs = {"base": [], "head": []}
    trees = {"base": BASE_TREE, "head": ROOT}
    for pair in range(1, pairs + 1):
        order = ("base", "head") if pair % 2 == 1 else ("head", "base")
        for side in order:
            report = run_perfbench(trees[side], workload, seconds, seed)
            runs[side].append(report)
            print(f"ab_gate[{workload}] pair {pair} {side}: correct="
                  f"{report.get('correct')} failed={report.get('failed')}",
                  flush=True)
    problems = [f"{side} run {i + 1}: correct={r.get('correct')} "
                f"failed={r.get('failed')}"
                for side in ("base", "head")
                for i, r in enumerate(runs[side])
                if r.get("correct") is not True or r.get("failed") != 0]
    return runs, problems


def metric_values(runs, name, pairs, problems):
    """Each side's values of metric `name`, or None (noted in `problems`)
    when some run lacks it."""
    values = {side: [r["metrics"][name]["value"] for r in runs[side]
                     if name in r.get("metrics", {})]
              for side in ("base", "head")}
    if len(values["base"]) != pairs or len(values["head"]) != pairs:
        problems.append(f"{name}: missing from some runs")
        return None
    return values


def gate_workload(workload, metrics, seed):
    """Runs the alternating pairs of one workload and judges it."""
    runs, problems = run_pairs(workload, PAIRS, RUN_SECONDS, seed)
    result = {"correctness_problems": problems, "metrics": {}}
    for metric in metrics:
        values = metric_values(runs, metric["name"], PAIRS, problems)
        if values is not None:
            result["metrics"][metric["name"]] = judge(
                metric, values["base"], values["head"])
    return result


def claim_workload(workload, metric, seconds, seed):
    """Runs the claim's alternating pairs and judges the claimed metric."""
    runs, problems = run_pairs(workload, CLAIM_PAIRS, seconds, seed)
    result = {"correctness_problems": problems, "metrics": {}}
    values = metric_values(runs, metric["name"], CLAIM_PAIRS, problems)
    if values is not None:
        result["metrics"][metric["name"]] = judge_claim(
            metric, values["base"], values["head"])
    return result


def ratio_text(m):
    return "n/a" if m["median_ratio"] is None else f"{m['median_ratio']:.3f}"


def print_workload(workload, result):
    print(f"ab_gate[{workload}]:")
    for name, m in result["metrics"].items():
        print(f"  {name:18} base {m['base']['median']:.6g} "
              f"[{m['base']['q1']:.6g}, {m['base']['q3']:.6g}]  "
              f"head {m['head']['median']:.6g} "
              f"[{m['head']['q1']:.6g}, {m['head']['q3']:.6g}]  "
              f"worse {m['worse_frac']:+.1%} (bound {m['bound']:.0%}, "
              f"base IQR {m['base_iqr_frac']:.1%})  head won "
              f"{m['head_wins']}/{m['pairs']}, ratio {ratio_text(m)}  "
              f"{m['verdict'].upper()}")
        if "gain" in m:
            print(f"  claim: head won {m['head_wins']}/{m['pairs']} (needs "
                  f"{m['min_wins']}), median gain {m['gain']:.6g} vs base "
                  f"IQR {m['base_iqr']:.6g}  {m['verdict'].upper()}")
    for problem in result["correctness_problems"]:
        print(f"  FAIL — {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True,
                    help="revision to compare against (e.g. the merge base), "
                         "exported with git archive")
    ap.add_argument("--json", default=os.path.join(WORK_DIR, "ab_gate.json"),
                    help="where the medians, IQRs and verdicts are written")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="check a gain claim on one workload's metric "
                         "instead of the regression gate")
    ap.add_argument("--seed", type=int,
                    help="perfbench seed for every run (default: run.py's)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    claim = None
    if args.claim is not None:
        workload, _, name = args.claim.partition(":")
        claim = (workload, next((m for m in metrics if m["name"] == name),
                                None))
        if workload not in workloads or claim[1] is None:
            print(f"ab_gate: --claim {args.claim}: want one of "
                  f"{workloads} and one of {[m['name'] for m in metrics]}",
                  file=sys.stderr)
            return 2

    base_sha = checkout_base(args.base)
    head = git("describe", "--always", "--dirty", "--abbrev=12")
    if claim is None:
        pairs, seconds = PAIRS, RUN_SECONDS
    else:
        pairs, seconds = CLAIM_PAIRS, bench["run_seconds"]
    print(f"ab_gate: base {base_sha[:12]} vs head {head}: {pairs} pairs of "
          f"{seconds}-s runs per workload"
          + ("" if claim is None else f", claim {args.claim}"), flush=True)
    # Build both trees (run.py builds on first use) before any timed run.
    for tree in (BASE_TREE, ROOT):
        report = run_perfbench(tree, workloads[0], 1)
        if "error" in report:
            print(f"ab_gate: FAIL — perfbench did not run in {tree}",
                  file=sys.stderr)
            return 2

    doc = {"base": base_sha, "head": head, "pairs": pairs,
           "run_seconds": seconds, "seed": args.seed, "workloads": {}}
    if claim is None:
        results = {w: gate_workload(w, metrics, args.seed) for w in workloads}
    else:
        doc["claim"] = args.claim
        results = {claim[0]: claim_workload(claim[0], claim[1], seconds,
                                            args.seed)}
    failed = False
    for workload, result in results.items():
        doc["workloads"][workload] = result
        print_workload(workload, result)
        failed |= bool(result["correctness_problems"]) or any(
            m["verdict"] == "fail" for m in result["metrics"].values())
        failed |= claim is not None and not result["metrics"]
    doc["verdict"] = "fail" if failed else "pass"

    os.makedirs(os.path.dirname(os.path.abspath(args.json)), exist_ok=True)
    with open(args.json, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ab_gate: {doc['verdict'].upper()} (JSON: {args.json})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
