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


def _scan(path: str) -> list[tuple[int, str]]:
    """The line number and stripped text of each non-blank line of ``path``."""
    with open(path) as fh:
        return [(lineno, text) for lineno, text in enumerate(map(str.strip, fh), 1) if text]


def _parse(path: str, lines: list[tuple[int, str]], width: int) -> np.ndarray:
    """The real numbers of ``lines``, ``width`` comma-separated ones each, as rows.

    All lines are converted in one pass; only if that fails are they
    rescanned one by one, to name the first bad line.
    """
    texts = [text for _, text in lines]
    if all(text.count(",") == width - 1 for text in texts):
        fields = ",".join(texts).split(",")
        try:
            return np.fromiter(map(float, fields), float, len(fields)).reshape(-1, width)
        except ValueError:
            pass
    for lineno, text in lines:
        try:
            row = [float(field) for field in text.split(",")]
        except ValueError as exc:
            raise InputFormatError(f"{path}: line {lineno}: {exc}") from None
        if len(row) != width:
            raise InputFormatError(f"{path}: line {lineno}: {len(row)} fields, expected {width}")
    return np.empty((0, width))  # reached only when there are no lines


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header``, then each row of reals with 17 significant digits, to ``path`` or stdout.

    The header names the columns, so it fixes how many reals a row holds.
    """
    template = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    text = header + "\n" + "".join([template % tuple(row) for row in rows])
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_series(path: str) -> np.ndarray:
    """Read one real number per line."""
    lines = _scan(path)
    if not lines:
        raise InputFormatError(f"{path}: no values found")
    return _parse(path, lines, 1).ravel()


def _read_observations(path: str) -> np.ndarray:
    """Read a CSV of observations with header ``x,y``."""
    lines = _scan(path)
    if len(lines) < 2:
        raise InputFormatError(f"{path}: expected a header 'x,y' and at least one row")
    lineno, header = lines[0]
    if header.replace(" ", "").lower() != "x,y":
        raise InputFormatError(f"{path}: line {lineno}: expected header 'x,y', got {header!r}")
    return _parse(path, lines[1:], 2)


def _read_changes(path: str) -> list[tuple[int, float]]:
    """Read ``index,value`` updates, one per line, with integer 1-based indices; may be empty."""
    lines = _scan(path)
    indices = []
    for lineno, text in lines:
        try:
            indices.append(int(text.partition(",")[0]))
        except ValueError:
            _parse(path, lines[: len(indices)], 2)  # a malformed earlier line is reported first
            raise InputFormatError(f"{path}: line {lineno}: not an integer index") from None
    return list(zip(indices, _parse(path, lines, 2)[:, 1].tolist()))


def _read_estimate(path: str) -> DistributionFamilyEstimate:
    """Read an estimate CSV written by the ``idr`` command."""
    lines = _scan(path)
    if len(lines) < 2:
        raise InputFormatError(f"{path}: expected a header 'y,<covariates>' and at least one row")
    lineno, header = lines[0]
    label, _, labels = header.partition(",")
    if label.strip().lower() != "y" or not labels:
        raise InputFormatError(f"{path}: line {lineno}: expected a header starting with 'y,'")
    covariates = _parse(path, [(lineno, labels)], labels.count(",") + 1)[0]
    rows = _parse(path, lines[1:], covariates.size + 1)
    estimate = DistributionFamilyEstimate(covariates, rows[:, 0], rows[:, 1:].T)
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
    header = ",".join(["y", *("%.17g" % x for x in estimate.covariates.tolist())])
    # cdf.T holds one contiguous row per threshold, as fit_family filled it
    rows = ((t, *row.tolist()) for t, row in zip(estimate.thresholds.tolist(), estimate.cdf.T))
    _write_csv(args.output, header, rows)
    return 0


def cmd_quantiles(args) -> int:
    estimate = _read_estimate(args.input)
    betas = _parse_betas(args.betas)
    # header labels use the shortest round-trip form; data cells stay at 17 digits
    header = ",".join(["x", *map(repr, betas)])
    rows = [
        (x, *(estimate.quantile(j, beta) for beta in betas))
        for j, x in enumerate(estimate.covariates.tolist(), 1)
    ]
    _write_csv(args.output, header, rows)
    return 0


def cmd_gen(args) -> int:
    config = ExperimentConfig(n=args.n, replications=1, seed=args.seed)
    pairs = generate_dataset(config, 0)
    _write_csv(args.output, "x,y", pairs.tolist())
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
