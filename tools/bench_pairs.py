#!/usr/bin/env python3
"""Before-and-after numbers: alternating runs of `bench/run.py` in two
checkouts, written as one `BENCH_*.json`.

    python3 tools/bench_pairs.py PARENT CHANGE --workloads sweep passive-long \
        --seeds 11 23 --seconds 20 --pairs 5 --out BENCH_name.json \
        [--claim sweep steps_per_s --held-out-seed 23 --what "..."]

PARENT and CHANGE are checkouts of this repository (the same one may be
given twice). For each workload and seed, each pair runs

    PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed S --seconds N

once in each checkout, one run at a time, the parent first in odd pairs and
the change first in even ones. The file holds, for every end-to-end metric
`BENCHMARK.json` names, each side's per-pair values, median and inclusive
quartiles, how many pairs the change wins, whether the change's median is
`within_bound` (no worse than the parent's by more than the metric's
`bound`), and the failed and attempted runs of each run; then one traced
run (`--trace 1`) of each side per workload at the first seed, for the
per-layer numbers. `commits` names each side's checkout: its git commit, or,
for a plain copy that is not a git work tree, a `tree:` hash of its `src/`
files. With `--claim`, `claimed.claim_met` says whether the
claim holds: on every seed, the held-out one included, the change wins at
least nine tenths of the pairs (a tie counts for neither side) and its
median is better than the parent's by more than the parent's IQR. A run
that prints no result stops the script with exit status 1. A SIGTERM stops
it with exit status 143, after it has killed the run it was waiting for.

Standard library only; it sits outside `bench/` so that the benchmark's
own files stay as they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def bench_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int = 0) -> tuple[dict, dict]:
    """(report, result) of one `bench/run.py` run in `checkout`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.exit(f"{done.stderr}bench/run.py --workload {workload} --seed {seed} in "
                 f"{checkout} exited {done.returncode} without a result")
    return json.loads(lines[0])["report"], json.loads(lines[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(runs: dict[str, list[float]], unit: str, better: str, bound: float) -> dict:
    """One metric over the pairs: each side's quartiles, the change's
    relative gap, its median gap (positive when the change is better) and
    its wins, whether the gap exceeds the parent's IQR, and
    whether the change's median is worse than the parent's by at most
    `bound`, a share of the parent's median."""
    parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
    sign = 1 if better == "higher" else -1
    gaps = [sign * (after - before) for before, after in zip(runs["parent"], runs["change"])]
    parent_iqr = parent["q3"] - parent["q1"]
    median_gap = sign * (change["median"] - parent["median"])
    return {
        "unit": unit, "better": better, "bound": bound, "parent": parent, "change": change,
        "change_vs_parent": (change["median"] / parent["median"] - 1
                             if parent["median"] else 0.0),
        "change_better_in": sum(gap > 0 for gap in gaps),
        "ties": sum(gap == 0 for gap in gaps),
        "parent_iqr": parent_iqr,
        "median_gap": median_gap,
        "median_gap_exceeds_parent_iqr": abs(median_gap) > parent_iqr,
        "within_bound": median_gap >= -bound * abs(parent["median"]),
        "runs": runs,
    }


def claim_met(series_list: list[dict], workload: str, metric: str) -> dict[int, bool]:
    """Per seed of `workload`: whether the change wins at least nine tenths
    of the pairs on `metric`, ties counting for neither side, and its median
    is better than the parent's by more than the parent's IQR."""
    met = {}
    for entry in series_list:
        if entry["workload"] == workload:
            compared = entry["metrics"][metric]
            met[entry["seed"]] = (compared["change_better_in"] >= 0.9 * entry["pairs"]
                                  and compared["median_gap"] > compared["parent_iqr"])
    return met


def series(checkouts: dict[str, str], workload: str, seed: int, seconds: float,
           pairs: int, metrics: list[dict]) -> dict:
    values = {metric["name"]: {side: [] for side in SIDES} for metric in metrics}
    failed = {side: [] for side in SIDES}
    correct = {side: True for side in SIDES}
    fingerprints = set()
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            report, result = bench_run(checkouts[side], workload, seed, seconds)
            print(f"{workload} seed {seed} pair {pair} {side}: steps_per_s "
                  f"{result['metrics']['steps_per_s']['value']:.0f}", file=sys.stderr)
            correct[side] = correct[side] and result["correct"]
            failed[side].append([result["failed"], result["attempted"]])
            fingerprints.add(report["fingerprint"]["sha256"])
            for name, runs in values.items():
                runs[side].append(result["metrics"][name]["value"])
    return {
        "workload": workload, "seed": seed, "pairs": pairs,
        "parent_first_in": "odd pairs (1, 3, ...)", "failed": failed, "correct": correct,
        "fingerprints": sorted(fingerprints),
        "metrics": {metric["name"]: compare(values[metric["name"]], metric["unit"],
                                            metric["better"], metric["bound"])
                    for metric in metrics},
    }


def per_layer(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    report, result = bench_run(checkout, workload, seed, seconds, trace=1)
    return {
        "correct": result["correct"],
        "fingerprint_sha256": report["fingerprint"]["sha256"],
        "consistency_all_true": all(report["consistency"].values()),
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def tree(checkout: str) -> str:
    """`tree:` and the first 12 hex digits of a sha256 over the sorted
    relative paths and the bytes of the files under `checkout`'s `src/`,
    leaving out `__pycache__` and `*.egg-info` directories."""
    paths = []
    for directory, subdirectories, files in os.walk(os.path.join(checkout, "src")):
        subdirectories[:] = [name for name in subdirectories
                             if name != "__pycache__" and not name.endswith(".egg-info")]
        paths += [os.path.relpath(os.path.join(directory, name), checkout) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(os.path.join(checkout, path), "rb") as handle:
            data = handle.read()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return f"tree:{digest.hexdigest()[:12]}"


def commit(checkout: str) -> str:
    """The commit `checkout` has checked out, marked when its tracked files
    differ from it; its `tree` when it is not a git work tree, such as a
    plain copy."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", checkout, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=False).stdout.strip()
    head = git("rev-parse", "HEAD")
    if not head or git("rev-parse", "--show-toplevel") != os.path.realpath(checkout):
        return tree(checkout)
    return head + (" with uncommitted changes" if git("status", "--porcelain",
                                                      "--untracked-files=no") else "")


def _exit_on_sigterm(signum: int, frame) -> None:
    """Leave as an exception does, so that `subprocess.run` kills and reaps
    the `bench/run.py` it is waiting for rather than leaving it running."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> None:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout measured as the parent")
    parser.add_argument("change", help="checkout measured as the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--what", default="End-to-end metrics of bench/run.py before "
                        "(parent) and after (change) a change.")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.held_out_seed is not None and args.held_out_seed not in args.seeds:
        parser.error("--held-out-seed must be one of --seeds")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    if args.claim is not None and (args.claim[0] not in args.workloads
                                   or args.claim[1] not in [m["name"] for m in metrics]):
        parser.error("--claim needs one of --workloads and an end-to-end metric")
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    out = {
        "what": args.what,
        "command": "PYTHONDONTWRITEBYTECODE=1 python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds}",
        "seconds": seconds,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "environment": {"PYTHONDONTWRITEBYTECODE": "1"},
        "nproc": os.cpu_count(),
        "commits": {side: commit(checkouts[side]) for side in SIDES},
        "claimed": None,
        "series": [series(checkouts, workload, seed, args.seconds, args.pairs, metrics)
                   for workload in args.workloads for seed in args.seeds],
        "per_layer": {
            f"{workload} seed {args.seeds[0]}, --seconds {seconds}, --trace 1": {
                side: per_layer(checkouts[side], workload, args.seeds[0], args.seconds)
                for side in SIDES}
            for workload in args.workloads},
    }
    if args.claim is not None:
        met = claim_met(out["series"], *args.claim)
        out["claimed"] = {
            "workload": args.claim[0], "metric": args.claim[1], "seeds": args.seeds,
            "held_out_seed": args.held_out_seed, "claim_met": all(met.values()),
            "claim_met_by_seed": met}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
