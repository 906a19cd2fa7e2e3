"""Self-test of the benchmark: every workload at a tiny size, then corrupted outputs.

Each workload runs one untraced and one traced round at its TINY size and
must finish with no failed operation and every metric measured. Then its
outputs are corrupted one at a time, and each corruption must be counted as
a failed operation by the same checks a run uses: one CDF cell nudged by
1e-9 (in the CLI's CSV and in the library estimate), a quantile moved to
the next threshold, and one fitted value changed by 1e-9 (in `seqpava fit`'s
JSON and in a library fit). With those failures the run must no longer
read as correct. The metric names and units must match BENCHMARK.json.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks
import seqpava
from harness import END_TO_END, PER_LAYER, ROOT, WORK, Bench, blocks_fit, result
from workloads import BETAS, SPECS, TINY, build


def _nudge_csv_cell(path: Path) -> None:
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    cells = lines[row].split(",")
    col = len(cells) // 2
    cells[col] = format(float(cells[col]) + 1e-9, ".17g")
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _move_quantile(bench: Bench, path: Path) -> bool:
    """Move one quantile to the next threshold where that is wrong by more than the tolerance."""
    wl = bench.wl
    lines = path.read_text().splitlines()
    for j in range(wl.m):
        cells = lines[j + 1].split(",")
        for b, beta in enumerate(BETAS):
            t = int(np.searchsorted(wl.ys, float(cells[b + 1])))
            if t + 1 < wl.k and wl.ref_cdf[t, j] >= beta + checks.TOL:
                cells[b + 1] = format(wl.ys[t + 1], ".17g")
                lines[j + 1] = ",".join(cells)
                path.write_text("\n".join(lines) + "\n")
                return True
    return False


def _change_fit_value(path: Path) -> None:
    payload = json.loads(path.read_text())
    payload["fit"][len(payload["fit"]) // 2] += 1e-9
    path.write_text(json.dumps(payload))


def corruptions(bench: Bench) -> dict:
    """Corrupt each kind of output once; map each corruption to whether it was counted as failed."""
    wl = bench.wl
    caught = {}

    def counted(name: str, problem: str | None) -> None:
        before = bench.failed
        bench.outcome(f"corrupted {name}", problem)
        caught[name] = bench.failed == before + 1

    _nudge_csv_cell(wl.work / "est.csv")
    counted("estimate CSV cell", checks.estimate_csv_problem(wl, wl.path("est.csv"), bench.library_cdf))

    cdf = bench.library_cdf.copy()
    cdf[wl.m // 2, wl.k // 2] += 1e-9
    counted("library CDF cell", checks.estimate_problem(wl, wl.xs, wl.ys, cdf))

    if _move_quantile(bench, wl.work / "q.csv"):
        counted("quantile", checks.quantiles_problem(wl, wl.path("q.csv")))
    else:
        caught["quantile"] = False

    _change_fit_value(wl.work / "fit.json")
    counted("fit JSON value", checks.fit_json_problem(wl, wl.path("fit.json"), bench.z_final))

    fitted = blocks_fit(seqpava.fit_modified(bench.series))
    fitted[wl.m // 2] += 1e-9
    counted("library fit value", checks.fit_problem(fitted, wl.z0, wl.w))
    return caught


def self_test() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    ok = declared == {**END_TO_END, **PER_LAYER}
    ok = ok and [w["name"] for w in config["workloads"]] == list(SPECS) == list(TINY)
    if not ok:
        print("self-test: metrics or workloads differ from BENCHMARK.json")
    for name, spec in TINY.items():
        work = WORK / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            bench = Bench(build(name, spec, 0, work), traced=True)
            bench.measure(0.0)
            metrics = {
                **result(bench, bench.end_to_end(), END_TO_END)["metrics"],
                **result(bench, bench.per_layer(), PER_LAYER)["metrics"],
            }
            missing = sorted(m for m, v in metrics.items() if v["value"] is None)
            clean = result(bench, {}, {})["correct"] and bench.attempted > 0 and not missing
            print(
                f"self-test {name}: n={spec.n} attempted={bench.attempted} failed={bench.failed} "
                f"(known fault {bench.known_failures}) missing metrics={missing or 'none'}"
            )
            for problem in bench.problems:
                print(f"  failed: {problem}")
            caught = corruptions(bench) if clean else {}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for corruption, seen in caught.items():
            print(f"  {corruption}: {'counted as failed' if seen else 'NOT DETECTED'}")
        # a failure other than the known fault must make the run incorrect
        flagged = not clean or not result(bench, {}, {})["correct"]
        if clean:
            print(f"  run with corrupted outputs: {'correct: false' if flagged else 'STILL CORRECT'}")
        ok = ok and clean and all(caught.values()) and flagged
    print("self-test: ok" if ok else "self-test: FAILED")
    return 0 if ok else 1
