"""Command-line front end: fitting, CDF-family estimation, quantiles, data, timing.

Exit codes: 0 on success, 1 on runtime failures (I/O, invalid domain), 2 on
usage or input-parse errors. Real numbers in CSV output are printed with 17
significant digits so equal fits compare byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ExperimentConfig, generate_dataset, run_benchmark
from .idr import VARIANTS, DistributionFamilyEstimate, fit_family, group
from .pava import WeightedSeries, expand, fit_modified, fit_standard
from .sequential import init, update_any

DEFAULT_BETAS = "0.1,0.25,0.5,0.75,0.9"


class InputFormatError(Exception):
    """Malformed input file; the message names the offending line."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_series(path: str) -> np.ndarray:
    """Read one real number per line; blank lines are ignored."""
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise InputFormatError(
                    f"{path}: line {lineno}: not a real number: {text!r}"
                ) from None
    if not values:
        raise InputFormatError(f"{path}: no values found")
    return np.array(values)


def _read_observations(path: str) -> np.ndarray:
    """Read a CSV of observations with header ``x,y``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    content = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not content:
        raise InputFormatError(f"{path}: no observations found")
    first_no, first = content[0]
    if first.replace(" ", "").lower() != "x,y":
        raise InputFormatError(f"{path}: line {first_no}: expected header 'x,y', got {first!r}")
    rows = []
    for lineno, line in content[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise InputFormatError(f"{path}: line {lineno}: expected two comma-separated fields")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise InputFormatError(
                f"{path}: line {lineno}: not a pair of real numbers: {line!r}"
            ) from None
    if not rows:
        raise InputFormatError(f"{path}: no data rows after the header")
    return np.array(rows)


def _read_changes(path: str) -> list[tuple[int, float]]:
    """Read ``index,value`` updates, one per line, 1-based indices."""
    changes = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise InputFormatError(
                    f"{path}: line {lineno}: expected 'index,value', got {text!r}"
                )
            try:
                changes.append((int(parts[0]), float(parts[1])))
            except ValueError:
                raise InputFormatError(
                    f"{path}: line {lineno}: expected 'index,value', got {text!r}"
                ) from None
    return changes


def _read_estimate(path: str) -> DistributionFamilyEstimate:
    """Read an estimate CSV written by the ``idr`` command."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    content = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not content:
        raise InputFormatError(f"{path}: empty estimate file")
    first_no, header = content[0]
    fields = header.split(",")
    if fields[0].strip().lower() != "y" or len(fields) < 2:
        raise InputFormatError(
            f"{path}: line {first_no}: expected header 'y,<covariate>,...', got {header!r}"
        )
    try:
        covariates = [float(c) for c in fields[1:]]
    except ValueError:
        raise InputFormatError(f"{path}: line {first_no}: covariate labels must be real") from None
    thresholds = []
    matrix = []
    for lineno, line in content[1:]:
        parts = line.split(",")
        if len(parts) != len(fields):
            raise InputFormatError(
                f"{path}: line {lineno}: expected {len(fields)} fields, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise InputFormatError(f"{path}: line {lineno}: not a row of real numbers") from None
        thresholds.append(values[0])
        matrix.append(values[1:])
    if not matrix:
        raise InputFormatError(f"{path}: no data rows after the header")
    estimate = DistributionFamilyEstimate(
        np.array(covariates), np.array(thresholds), np.array(matrix).T
    )
    estimate.validate()
    return estimate


def _parse_betas(text: str) -> list[float]:
    betas = []
    for token in text.split(","):
        token = token.strip()
        try:
            beta = float(token)
        except ValueError:
            raise InputFormatError(f"not a real number in --betas: {token!r}") from None
        if not 0.0 < beta <= 1.0:
            raise InputFormatError(f"beta must lie in (0, 1], got {beta}")
        betas.append(beta)
    if not betas:
        raise InputFormatError("--betas must name at least one level")
    return betas


def cmd_fit(args) -> int:
    z = _read_series(args.input)
    w = None
    if args.weights:
        w = _read_series(args.weights)
        if w.size != z.size:
            raise InputFormatError(
                f"{args.weights}: {w.size} weights for a series of length {z.size}"
            )
    series = WeightedSeries(z, w)
    changes = _read_changes(args.changes) if args.changes else []

    if args.variant == "abridged":
        state = init(series)
        for index, value in changes:
            state = update_any(state, index, value)
        blocks = state.blocks
        fitted = state.fit()
    else:
        if changes:
            z = series.z.copy()
            for index, value in changes:
                if not 1 <= index <= z.size:
                    raise IndexError(f"change position must be in 1..{z.size}, got {index}")
                z[index - 1] = value
            series = WeightedSeries(z, series.w)
        blocks = fit_standard(series) if args.variant == "standard" else fit_modified(series)
        fitted = expand(blocks)

    payload = {
        "boundaries": blocks.partition.boundaries.tolist(),
        "means": blocks.means.tolist(),
        "fit": fitted.tolist(),
    }
    # a non-finite number would print as Infinity or NaN, which is not JSON
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0


def cmd_idr(args) -> int:
    pairs = _read_observations(args.input)
    estimate = fit_family(group(pairs), args.variant)
    estimate.validate()
    lines = ["y," + ",".join(_fmt(c) for c in estimate.covariates)]
    for t in range(estimate.k):
        lines.append(
            _fmt(estimate.thresholds[t]) + "," + ",".join(_fmt(v) for v in estimate.cdf[:, t])
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_quantiles(args) -> int:
    estimate = _read_estimate(args.input)
    betas = _parse_betas(args.betas)
    # header labels use the shortest round-trip form; data cells stay at 17 digits
    lines = ["x," + ",".join(repr(b) for b in betas)]
    for j in range(1, estimate.m + 1):
        quantiles = [estimate.quantile(j, beta) for beta in betas]
        lines.append(
            _fmt(estimate.covariates[j - 1]) + "," + ",".join(_fmt(q) for q in quantiles)
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    config = ExperimentConfig(n=args.n, replications=1, seed=args.seed)
    pairs = generate_dataset(config, 0)
    lines = ["x,y"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in pairs]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    config = ExperimentConfig(n=args.n, replications=args.replications, seed=args.seed)
    report = run_benchmark(config)
    print(report.format_table())
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqpava",
        description="Monotone weighted least squares, sequential updates, and CDF families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a response series and print the result as JSON")
    fit.add_argument("input", help="text file with one response value per line")
    fit.add_argument("--weights", help="text file with one positive weight per line (default: all 1)")
    fit.add_argument("--variant", choices=VARIANTS, default="standard")
    fit.add_argument(
        "--changes",
        help="CSV of 'index,value' updates applied in order before the fit is reported",
    )
    fit.set_defaults(func=cmd_fit)

    idr = sub.add_parser("idr", help="estimate the CDF family from observations")
    idr.add_argument("input", help="CSV of observations with header x,y")
    idr.add_argument("--variant", choices=VARIANTS, default="abridged")
    idr.add_argument("--output", default="-", help="estimate CSV path (default: stdout)")
    idr.set_defaults(func=cmd_idr)

    quantiles = sub.add_parser("quantiles", help="extract quantile curves from an estimate")
    quantiles.add_argument("input", help="estimate CSV produced by the idr command")
    quantiles.add_argument("--betas", default=DEFAULT_BETAS, help="comma-separated levels in (0, 1]")
    quantiles.add_argument("--output", default="-", help="quantile CSV path (default: stdout)")
    quantiles.set_defaults(func=cmd_quantiles)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--n", type=int, default=1000, help="number of observations")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default="-", help="observations CSV path (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="time the three variants and print a report")
    bench.add_argument("--n", type=int, default=1000, help="observations per dataset")
    bench.add_argument("--replications", type=int, default=20)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
