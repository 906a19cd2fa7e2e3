"""The benchmark's operations: rounds of CLI commands and library calls on one
workload, their timings, the spans of the traced pass, and check outcomes.

Import only after the checkout's ``src`` is first on ``sys.path``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import checks
import seqpava
from seqpava import sequential
from tracing import Tracer, self_and_children
from workloads import KNOWN_FAULT, KNOWN_FAULT_SEED, SETUP_CALLS, build, reference_fit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

END_TO_END = {
    "setup_s": "s",
    "idr_s": "s",
    "quantiles_s": "s",
    "fit_s": "s",
    "family_s": "s",
    "fit_standard_ms": "ms",
    "fit_modified_ms": "ms",
    "update_increase_ms": "ms",
    "update_decrease_ms": "ms",
    "idr_rss_mb": "MiB",
    "quantiles_rss_mb": "MiB",
}
# end-to-end timings that the traced pass repeats, for the tracing overhead
TRACED_TIMINGS = [m for m in END_TO_END if m not in ("setup_s", "idr_rss_mb", "quantiles_rss_mb")]
PER_LAYER = {
    "cli.idr.self_s": "s",
    "cli.idr.cells_written": "count",
    "cli.estimate_bytes": "bytes",
    "cli.quantiles.self_s": "s",
    "cli.quantiles.query_s": "s",
    "cli.fit.self_s": "s",
    "cli.fit.update_s": "s",
    "idr.group_s": "s",
    "idr.family_abridged_s": "s",
    "idr.family_modified_s": "s",
    "idr.family_standard_s": "s",
    "idr.t1_over_t3": "ratio",
    "idr.t2_over_t3": "ratio",
    "idr.validate_s": "s",
    "idr.n": "count",
    "idr.m": "count",
    "idr.k": "count",
    "idr.dense_bytes": "bytes",
    "idr.changed_cells": "count",
    "idr.blocks_per_column_mean": "count",
    "idr.blocks_per_column_max": "count",
    "sequential.init_ms": "ms",
    "sequential.reworked_blocks_mean": "count",
    "sequential.recomputed": "count",
    "pava.blocks": "count",
    "pava.runs": "count",
    "pava.scipy_ms": "ms",
    "proc.fit_rss_mb": "MiB",
    **{f"trace.overhead.{m}": END_TO_END[m] for m in TRACED_TIMINGS},
}
# span of the traced CLI child -> per-layer metric fed by its summed duration
CLI_CHILD_LAYERS = {
    "idr": {"idr.validate": "idr.validate_s"},
    "quantiles": {"idr.quantile": "cli.quantiles.query_s"},
    "fit": {"sequential.update_any": "cli.fit.update_s"},
}


# End-to-end timings are rescaled to a reference machine speed. On a shared
# machine the speed of one CPU drifts by up to 2x for tens of seconds at a
# time, and neither the process's CPU time nor the guest's steal time shows
# it. A fixed plain-Python PAVA pass, timed just before and just after each
# group of operations on the same CPU, follows most of that drift (README.md
# has the measurements). A timing reported in "s" or "ms" is the raw time
# multiplied by REFERENCE_KERNEL_S / (the kernel's time around it).
REFERENCE_KERNEL_S = 0.010
_KERNEL_DATA = [((i * 7919) % 1000) / 1000.0 for i in range(20000)]


def reference_kernel_s() -> float:
    """Wall time of one fixed pool-adjacent-violators pass in plain Python."""
    start = perf_counter()
    means, weights = [], []
    for x in _KERNEL_DATA:
        means.append(x)
        weights.append(1.0)
        while len(means) > 1 and means[-2] <= means[-1]:
            md, wd = means.pop(), weights.pop()
            wp = weights[-1]
            means[-1] = (wp * means[-1] + wd * md) / (wp + wd)
            weights[-1] = wp + wd
    return perf_counter() - start


def blocks_fit(blocks):
    """Expand block means to the fitted vector without the program's ``expand``."""
    return np.repeat(blocks.means, np.diff(blocks.partition.boundaries))


def partition_blocks(state) -> set:
    b = state.blocks.partition.boundaries.tolist()
    return set(zip(b[:-1], b[1:]))


class Bench:
    """The operations of one workload, their timings, spans and check outcomes."""

    def __init__(self, wl, traced: bool) -> None:
        self.wl = wl
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tracer = Tracer()
        self.traced_group = self.tracer.wrap("idr.group", seqpava.group)
        self.traced_fit_family = self.tracer.wrap("idr.fit_family", seqpava.fit_family)
        self.fault = build("gamma", KNOWN_FAULT, KNOWN_FAULT_SEED, wl.work / "known-fault")
        self.known_failures = 0
        self.paper_variants_timed = False
        self.paper_variants_s = 0.0  # not counted against the run length
        self.series = seqpava.WeightedSeries(wl.z0, wl.w)
        self.setup_fit_sum = float(reference_fit(wl.z0, wl.w).sum())
        self.z_final = wl.z0.copy()
        for j, value in wl.stream:
            self.z_final[j - 1] = value
        self.samples = defaultdict(list)  # untraced end-to-end samples
        self.traced_samples = defaultdict(list)  # the same operations, traced
        self.layers = defaultdict(list)  # per-layer samples
        self.counts: dict = {}
        self.child_spans: list = []
        self.absent: set = set()
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.library_cdf = None

    # -- outcome accounting -------------------------------------------------

    def outcome(self, op: str, problem: str | None, known_fault: bool = False) -> None:
        """Count one attempted operation; a problem makes it failed.

        ``known_fault`` marks the failure of the known-fault command, the only
        failure a correct run may have.
        """
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        self.known_failures += known_fault
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {problem}")

    def error(self, op: str, exc: Exception) -> None:
        self.outcome(op, f"{type(exc).__name__}: {exc}")

    def timed(self, traced: bool, span: str, thunk):
        """Run ``thunk``; return its result and wall time, as a span when traced."""
        if traced:
            self.tracer.begin(span)
            try:
                result = thunk()
            finally:
                elapsed = self.tracer.end()
            return result, elapsed
        start = perf_counter()
        result = thunk()
        return result, perf_counter() - start

    # -- subprocesses ------------------------------------------------------------

    def process(self, argv: list, stdout_path: str) -> tuple[float, int, str]:
        """Run one child to its end: wall seconds, exit code and the last line of its stderr."""
        err_path = self.wl.path("stderr.txt")
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                code = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - start
        tail = Path(err_path).read_text(errors="replace").strip().splitlines()[-1:]
        return elapsed, code, "".join(tail)

    def setup(self, traced: bool) -> None:
        """Fresh-interpreter set-up; untraced in both passes, so the traced pass only counts it."""
        wl = self.wl
        argv = [sys.executable, str(HERE / "setup_child.py"), str(wl.work)]
        elapsed, code, tail = self.process(argv, wl.path("setup.json"))
        if code != 0:
            self.outcome("setup", f"exit {code}: {tail}")
            return
        (self.traced_samples if traced else self.samples)["setup_s"].append(elapsed)
        try:
            with open(wl.path("setup.json")) as fh:
                got = json.loads(fh.read().strip().splitlines()[-1])
            n, m, fit_sum = got["n"], got["m"], got["fit_sum"]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.outcome("setup", f"unreadable output: {exc}")
            return
        problem = None
        if (n, m) != (wl.spec.n, wl.m):
            problem = f"set-up saw n={n}, m={m}"
        elif not abs(fit_sum - self.setup_fit_sum) <= 1e-9 * wl.m:
            problem = f"initial fit sums to {fit_sum}, scipy to {self.setup_fit_sum}"
        self.outcome("setup", problem)

    def command(self, wl, command: str, traced: bool, known_fault: bool = False):
        """Run one `seqpava` command on ``wl``'s files, check and count it.

        Returns the wall time and the child's report, or None when the
        command failed or its output could not be read. With ``known_fault``
        a non-zero exit counts as the known fault.
        """
        args = {
            "idr": ["idr", wl.path("obs.csv"), "--output", wl.path("est.csv")],
            "quantiles": ["quantiles", wl.path("est.csv"), "--output", wl.path("q.csv")],
            "fit": [
                "fit", wl.path("series.txt"), "--weights", wl.path("weights.txt"),
                "--variant", "abridged", "--changes", wl.path("changes.csv"),
            ],
        }[command]
        output = {"idr": "est.csv", "quantiles": "q.csv", "fit": "fit.json"}[command]
        report_path = wl.path("child-report.json")
        for stale in (output, "child-report.json"):  # a failed command must leave nothing to read
            (wl.work / stale).unlink(missing_ok=True)
        stdout = wl.path(output) if command == "fit" else os.devnull
        argv = [sys.executable, str(HERE / "cli_child.py"), report_path, str(int(traced)), *args]
        elapsed, code, tail = self.process(argv, stdout)
        if code != 0:
            self.outcome(f"{command} ({wl.name})", f"exit {code}: {tail}", known_fault)
            return None
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            if command == "idr":
                library_cdf = self.library_cdf if wl is self.wl else None
                problem = checks.estimate_csv_problem(wl, wl.path("est.csv"), library_cdf)
            elif command == "quantiles":
                problem = checks.quantiles_problem(wl, wl.path("q.csv"))
            else:
                problem = checks.fit_json_problem(wl, wl.path("fit.json"), self.z_final)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.outcome(f"{command} ({wl.name})", f"unreadable output: {exc}")
            return None
        self.outcome(f"{command} ({wl.name})", problem)
        return elapsed, report

    def cli(self, command: str, traced: bool) -> None:
        done = self.command(self.wl, command, traced)
        if done is None:
            return
        elapsed, report = done
        if traced:
            self.traced_samples[f"{command}_s"].append(elapsed)
            self.read_child_trace(command, report)
            if command == "idr":
                self.count_estimate_cells(self.wl.path("est.csv"))
        else:
            self.samples[f"{command}_s"].append(elapsed)
            rss = report["peak_rss_kib"] / 1024.0
            if command == "fit":
                self.layers["proc.fit_rss_mb"].append(rss)
            else:
                self.samples[f"{command}_rss_mb"].append(rss)

    def known_fault(self) -> None:
        """`seqpava idr` on the fixed gamma input; untimed, and it exits 1 today."""
        self.command(self.fault, "idr", traced=False, known_fault=True)

    def count_estimate_cells(self, path: str) -> None:
        with open(path) as fh:
            columns = fh.readline().count(",")
            rows = sum(1 for _ in fh)
        self.counts["cli.idr.cells_written"] = rows * columns
        self.counts["cli.estimate_bytes"] = os.path.getsize(path)

    def read_child_trace(self, command: str, report: dict) -> None:
        spans = report["spans"]
        self.absent.update(report["absent"])
        self.child_spans.append({"command": command, "spans": spans})
        self_time, children = self_and_children(spans, 0)
        self.layers[f"cli.{command}.self_s"].append(self_time)
        for span, metric in CLI_CHILD_LAYERS[command].items():
            if span not in report["absent"]:
                self.layers[metric].append(children.get(span, 0.0))

    # -- library calls -----------------------------------------------------------

    def family(self, traced: bool) -> None:
        """One fit of the CDF family with the default variant, counted as one operation.

        The first traced call also fits the family with the standard and the
        modified variant, the paper's T1 and T2, and checks those estimates too.
        """
        if traced:
            group, fit_family = self.traced_group, self.traced_fit_family
        else:
            group, fit_family = seqpava.group, seqpava.fit_family
        fits = [("family", lambda: fit_family(group(self.wl.pairs)))]
        if traced and not self.paper_variants_timed:
            self.paper_variants_timed = True
            for variant in ("standard", "modified"):
                fits.append((variant, lambda v=variant: seqpava.fit_family(
                    seqpava.group(self.wl.pairs), v)))
        problems = []
        for name, thunk in fits:
            span = "family" if name == "family" else f"idr.fit_family.{name}"
            try:
                est, elapsed = self.timed(traced, span, thunk)
            except Exception as exc:  # counted as a failed operation; the run goes on
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            problem = checks.estimate_problem(self.wl, est.covariates, est.thresholds, est.cdf)
            if problem is not None:
                problems.append(f"{name}: {problem}")
            elif name != "family":
                self.layers[f"idr.family_{name}_s"].append(elapsed)
                self.paper_variants_s += elapsed
            else:
                (self.traced_samples if traced else self.samples)["family_s"].append(elapsed)
                if self.library_cdf is None:
                    self.library_cdf = est.cdf
        self.outcome("family", "; ".join(problems) or None)

    def batch_fits(self, traced: bool, fn, calls: int) -> None:
        name = fn.__name__
        sink = self.traced_samples if traced else self.samples
        for _ in range(calls):
            try:
                blocks, elapsed = self.timed(traced, f"pava.{name}", lambda: fn(self.series))
            except Exception as exc:  # counted as a failed operation; the run goes on
                self.error(name, exc)
                continue
            sink[f"{name}_ms"].append(elapsed * 1e3)
            self.outcome(name, checks.fit_problem(blocks_fit(blocks), self.wl.z0, self.wl.w))
            if traced:
                self.counts["pava.blocks"] = blocks.d

    def replay(self, traced: bool) -> None:
        """Raise the stream's components in order, then lower them back in reverse."""
        wl = self.wl
        sink = self.traced_samples if traced else self.samples
        count_work = traced and "sequential.recomputed" not in self.counts
        reworked, recomputed = [], 0
        try:
            state, elapsed = self.timed(traced, "sequential.init", lambda: sequential.init(self.series))
        except Exception as exc:  # every step depends on the initial state
            self.error("init", exc)
            return
        if traced:
            self.layers["sequential.init_ms"].append(elapsed * 1e3)
        z = wl.z0.copy()
        steps = [(sequential.update_increase, "update_increase_ms", j, v) for j, v in wl.stream]
        steps += [
            (sequential.update_any, "update_decrease_ms", j, old)
            for (j, _), old in zip(wl.stream[::-1], wl.olds[::-1])
        ]
        for update, metric, j, value in steps:
            name = update.__name__
            previous = state
            try:
                state, elapsed = self.timed(
                    traced, f"sequential.{name}", lambda: update(previous, j, value)
                )
            except Exception as exc:  # the later steps depend on this one
                self.error(name, exc)
                return
            z[j - 1] = value
            sink[metric].append(elapsed * 1e3)
            self.outcome(name, checks.fit_problem(blocks_fit(state.blocks), z, wl.w))
            if count_work:
                reworked.append(len(partition_blocks(state) - partition_blocks(previous)))
                recomputed += state.provenance == "recomputed"
        if count_work:
            self.counts["sequential.reworked_blocks_mean"] = sum(reworked) / len(reworked)
            self.counts["sequential.recomputed"] = recomputed

    def scipy_baseline(self, calls: int) -> None:
        for _ in range(calls):
            start = perf_counter()
            reference_fit(self.wl.z0, self.wl.w)
            self.layers["pava.scipy_ms"].append((perf_counter() - start) * 1e3)

    # -- rounds and results --------------------------------------------------------

    def at_reference_speed(self, group) -> None:
        """Run ``group``; rescale the end-to-end timings it records to the reference speed."""
        sinks = (self.samples, self.traced_samples)
        before = [{m: len(v) for m, v in sink.items()} for sink in sinks]
        kernel = reference_kernel_s()
        group()
        factor = REFERENCE_KERNEL_S / ((kernel + reference_kernel_s()) / 2)
        for sink, lengths in zip(sinks, before):
            for metric, values in sink.items():
                if END_TO_END.get(metric) in ("s", "ms"):
                    for i in range(lengths.get(metric, 0), len(values)):
                        values[i] *= factor

    def round(self, traced: bool) -> None:
        """One round; the traced and the untraced round attempt the same operations."""
        spec = self.wl.spec
        timed = self.at_reference_speed
        for _ in range(SETUP_CALLS):
            timed(lambda: self.setup(traced))
        for _ in range(spec.family_calls):
            timed(lambda: self.family(traced))
        for command in ("idr", "quantiles", "fit"):
            timed(lambda: self.cli(command, traced))
        self.known_fault()
        timed(lambda: self.batch_fits(traced, seqpava.fit_standard, spec.standard_calls))
        timed(lambda: self.batch_fits(traced, seqpava.fit_modified, spec.modified_calls))
        timed(lambda: self.replay(traced))
        if traced:
            self.scipy_baseline(spec.standard_calls)

    def measure(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed; each traced round follows an untraced one."""
        start = perf_counter()
        while True:
            self.round(traced=False)
            if self.traced:
                self.round(traced=True)
            if perf_counter() - start - self.paper_variants_s >= seconds:
                return

    def end_to_end(self) -> dict:
        return {m: _median(self.samples[m]) for m in END_TO_END}

    def per_layer(self) -> dict:
        wl = self.wl
        values = {m: _median(v) for m, v in self.layers.items()}
        values.update(self.counts)
        values["idr.group_s"] = _span_median(self.tracer.spans, "idr.group")
        values["idr.family_abridged_s"] = _span_median(self.tracer.spans, "idr.fit_family")
        base = values["idr.family_abridged_s"]
        for ratio, variant in (("idr.t1_over_t3", "standard"), ("idr.t2_over_t3", "modified")):
            top = values.get(f"idr.family_{variant}_s")
            values[ratio] = top / base if top is not None and base else None
        values.update({"idr.n": wl.spec.n, "idr.m": wl.m, "idr.k": wl.k})
        values["idr.dense_bytes"] = 8 * wl.m * wl.k
        values["pava.runs"] = 1 + int(np.count_nonzero(np.diff(wl.z0)))
        cdf = self.library_cdf
        if cdf is not None:
            previous = np.hstack((np.zeros((wl.m, 1)), cdf[:, :-1]))
            values["idr.changed_cells"] = int(np.count_nonzero(cdf != previous))
            blocks = 1 + np.count_nonzero(np.diff(cdf, axis=0), axis=0)
            values["idr.blocks_per_column_mean"] = float(blocks.mean())
            values["idr.blocks_per_column_max"] = int(blocks.max())
        for m in TRACED_TIMINGS:
            traced, plain = _median(self.traced_samples[m]), _median(self.samples[m])
            overhead = traced - plain if traced is not None and plain is not None else None
            values[f"trace.overhead.{m}"] = overhead
        return {m: values.get(m) for m in PER_LAYER}

    def write_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.tracer.spans, "cli": self.child_spans,
                       "absent": sorted(self.absent)}, fh)


def _median(values):
    return median(values) if values else None


def _span_median(spans, name):
    return _median([end - start for span, start, end, _ in spans if span == name])


def result(bench: Bench, metrics: dict, units: dict) -> dict:
    """The run's JSON line; a metric whose span the program no longer has reads null.

    The run is correct when every failed operation is the known fault.
    """
    return {
        "correct": bench.failed == bench.known_failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_workload(name: str, spec, seed: int, seconds: float, traced: bool) -> tuple[dict, Bench]:
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(build(name, spec, seed, work), traced)
        bench.measure(seconds)
        if traced:
            bench.write_trace(WORK / "traces" / f"{name}-{seed}.json")
            return result(bench, bench.per_layer(), PER_LAYER), bench
        return result(bench, bench.end_to_end(), END_TO_END), bench
    finally:
        shutil.rmtree(work, ignore_errors=True)
