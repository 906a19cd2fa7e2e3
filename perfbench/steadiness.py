"""Steadiness mode: two sets of runs, taken alternately, compared against the bounds.

Set A runs seeds s..s+RUNS-1, set B the next RUNS seeds; the pairs
alternate which set runs first. For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median), and the gap between the set medians against the metric's
bound from BENCHMARK.json. It exits 1 when a spread exceeds its bound, when
the set medians differ by more than the bound in either direction, or when
the share of failed operations differs between runs.
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter

from harness import HERE, ROOT

RUNS = 10  # runs per set


def _run(workload: str, seed: int, seconds: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list) -> tuple[float, float, float, float]:
    q1, mid, q3 = quantiles(values, n=4)
    return median(values), q1, q3, (q3 - q1) / median(values)


def steadiness(workloads, first_seed: int) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    sets = {(s, w): [] for s in "AB" for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = first_seed + i + (RUNS if s == "B" else 0)
                start = perf_counter()
                sets[(s, w)].append(_run(w, seed, seconds))
                print(f"run {i + 1}/{RUNS} {w} set {s} seed {seed}: {perf_counter() - start:.1f} s",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{RUNS} runs per set, {seconds} s each; spread = (q3 - q1) / median; "
          "gap = (median B - median A) / median A")
    print(f"{'workload':<8} {'metric':<20} {'med A':>11} {'q1 A':>11} {'q3 A':>11} "
          f"{'spread A':>8} {'med B':>11} {'spread B':>8} {'gap':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for s in "AB" for r in sets[(s, w)]}
        if len(shares) != 1:
            print(f"{w}: the share of failed operations differs between runs: {sorted(map(str, shares))}")
            ok = False
        for metric, bound in bounds.items():
            med_a, q1_a, q3_a, spread_a = _summary([r["metrics"][metric]["value"] for r in sets[("A", w)]])
            med_b, _, _, spread_b = _summary([r["metrics"][metric]["value"] for r in sets[("B", w)]])
            gap = (med_b - med_a) / med_a
            spread = max(spread_a, spread_b)
            failures = []
            if spread > bound:
                failures.append("SPREAD OVER BOUND")
            if abs(gap) > bound:
                failures.append("GAP OVER BOUND")
            verdict = ", ".join(failures) or ("ok" if spread <= bound / 3 else "ok, spread over bound/3")
            ok = ok and not failures
            print(f"{w:<8} {metric:<20} {med_a:>11.5g} {q1_a:>11.5g} {q3_a:>11.5g} "
                  f"{spread_a:>8.3f} {med_b:>11.5g} {spread_b:>8.3f} {gap:>+7.3f} {bound:>6.2f}  {verdict}")
    return 0 if ok else 1
