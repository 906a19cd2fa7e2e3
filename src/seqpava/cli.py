"""Command-line front end: fitting, CDF-family estimation, quantiles, data, timing.

Exit codes: 0 on success, 1 on runtime failures (I/O, invalid domain), 2 on
usage or input-parse errors. Real numbers in CSV output are printed with 17
significant digits so equal fits compare byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext
from math import isfinite

import numpy as np

from .idr import VARIANTS, DistributionFamilyEstimate, fit_family, group
from .pava import BlockFit, WeightedSeries, expand, fit_modified, fit_standard
from .sequential import init, update_any

DEFAULT_BETAS = "0.1,0.25,0.5,0.75,0.9"
_CHUNK_CELLS = 1 << 14  # cells per write of _write_csv


class InputFormatError(Exception):
    """Malformed input file; the message names the offending line."""


def _lines(path: str):
    """The stripped lines of ``path``, read in one call; a line ends in LF, CR LF or CR."""
    with open(path) as fh:
        return map(str.strip, fh.read().split("\n"))


def _scan(path: str) -> list[str]:
    """The non-blank lines of ``path``, stripped."""
    return list(filter(None, _lines(path)))


def _at(path: str, index: int) -> str:
    """``<path>: line <number>`` of the ``index``-th (0-based) line that ``_scan`` returns."""
    numbers = [lineno for lineno, text in enumerate(_lines(path), 1) if text]
    return f"{path}: line {numbers[index]}"


def _parse(path: str, lines: list[str], width: int, first: int = 0) -> np.ndarray:
    """The real numbers of ``lines``, ``width`` comma-separated ones each, as rows.

    ``lines`` are the scanned lines of ``path`` from index ``first`` on. Each
    field is converted with ``float``; the first bad line is named.
    """
    rows = []
    for index, text in enumerate(lines, first):
        try:
            row = [float(field) for field in text.split(",")]
        except ValueError as exc:
            raise InputFormatError(f"{_at(path, index)}: {exc}") from None
        if len(row) != width:
            raise InputFormatError(f"{_at(path, index)}: {len(row)} fields, expected {width}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, width)


def _numpy_rows(source) -> np.ndarray | None:
    """The rows of ``source``, an open file or a list of lines, as numpy's C reader parses them.

    None when numpy refuses them (a bad field, ragged rows or undecodable
    text) or finds none.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return rows if rows.shape[0] else None


def _load(path: str, header: bool) -> tuple[str, np.ndarray | None]:
    """The header of ``path`` and the rows after it, as numpy's C reader parses them.

    The header is the first non-blank line, stripped, or ``""`` when
    ``header`` is false. The rows are None when numpy refuses them or finds
    none; callers then rescan the lines with :func:`_rows`. numpy accepts no
    number that ``float`` refuses, so both give the same rows. numpy gets the
    open file, not the path, so that it decompresses nothing.
    """
    first = ""
    with open(path) as fh:
        try:
            while header and not first:
                line = fh.readline()
                if not line:
                    return first, None
                first = line.strip()
        except ValueError:  # undecodable text
            return first, None
        return first, _numpy_rows(fh)


def _rows(path: str, rows: np.ndarray | None, width: int, first: int) -> np.ndarray:
    """``rows`` if numpy read them ``width`` wide, else the scanned lines from index ``first`` on, parsed.

    When numpy refused the file, it is given the scanned lines, which are
    stripped and hold no blank line, so that a whitespace-only line costs no
    per-line parse; :func:`_parse` runs only when numpy refuses those too (or
    reads another width), and names the first bad line.
    """
    if rows is not None and rows.shape[1] == width:
        return rows
    lines = _scan(path)[first:]
    if rows is None:
        rows = _numpy_rows(lines)
        if rows is not None and rows.shape == (len(lines), width):
            return rows
    return _parse(path, lines, width, first)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of the 1-D ``keys``, in increasing order; sorts ``keys`` in place."""
    # sort and drop repeats: np.unique hashes integers, which is far slower here
    keys.sort()
    return keys[np.append(True, keys[1:] != keys[:-1])]


def _write_csv(path: str, header: str, *blocks: np.ndarray) -> None:
    """Write ``header``, then rows of the 2-D float ``blocks`` side by side, to ``path`` or stdout.

    Row ``i`` is row ``i`` of every block in turn, so a leading column needs
    no copy of the table beside it. Each distinct value is formatted once
    with 17 significant digits, keyed by its bit pattern so that ``-0.0``
    and ``0.0`` stay apart. Rows are then written a chunk of about
    ``_CHUNK_CELLS`` cells at a time, by indexing those strings.
    """
    bits = [block.view(np.uint64) for block in blocks]
    rows = bits[0].shape[0]
    width = sum(part.shape[1] for part in bits)
    step = max(1, _CHUNK_CELLS // width)
    # distinct values chunk by chunk, so that no sorted copy of the table is made
    found = [np.empty(0, np.uint64)]
    for lo in range(0, rows, step):
        found.append(_distinct(np.concatenate([part[lo : lo + step].ravel() for part in bits])))
    keys = _distinct(np.concatenate(found))
    text = np.array(["%.17g" % value for value in keys.view(float).tolist()], dtype=object)
    cells = np.empty((min(step, rows), 2 * width), dtype=object)
    cells[:, 1::2] = [","] * (width - 1) + ["\n"]  # the separator after each value
    with open(path, "w") if path != "-" else nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, step):
            chunk = cells[: min(step, rows - lo)]
            column = 0
            for part in bits:
                end = column + 2 * part.shape[1]
                chunk[:, column:end:2] = text[np.searchsorted(keys, part[lo : lo + step])]
                column = end
            fh.write("".join(chunk.ravel().tolist()))


def _read_series(path: str) -> np.ndarray:
    """Read one real number per line."""
    _, rows = _load(path, header=False)
    if rows is None and not _scan(path):
        raise InputFormatError(f"{path}: no values found")
    return _rows(path, rows, 1, 0).ravel()


def _read_observations(path: str) -> np.ndarray:
    """Read a CSV of observations with header ``x,y``."""
    header, rows = _load(path, header=True)
    if rows is None and len(_scan(path)) < 2:
        raise InputFormatError(f"{path}: expected a header 'x,y' and at least one row")
    if header.replace(" ", "").lower() != "x,y":
        raise InputFormatError(f"{_at(path, 0)}: expected header 'x,y', got {header!r}")
    return _rows(path, rows, 2, 1)


def _read_changes(path: str) -> list[tuple[int, float]]:
    """Read ``index,value`` updates, one per line, with integer 1-based indices; may be empty."""
    lines = _scan(path)
    indices = []
    for index, text in enumerate(lines):
        try:
            indices.append(int(text.partition(",")[0]))
        except ValueError:
            _parse(path, lines[:index], 2)  # a malformed earlier line is reported first
            raise InputFormatError(f"{_at(path, index)}: not an integer index") from None
    return list(zip(indices, _parse(path, lines, 2)[:, 1].tolist()))


def _read_estimate(path: str) -> DistributionFamilyEstimate:
    """Read an estimate CSV written by the ``idr`` command."""
    header, rows = _load(path, header=True)
    if rows is None and len(_scan(path)) < 2:
        raise InputFormatError(f"{path}: expected a header 'y,<covariates>' and at least one row")
    label, _, labels = header.partition(",")
    if label.strip().lower() != "y" or not labels:
        raise InputFormatError(f"{_at(path, 0)}: expected a header starting with 'y,'")
    covariates = _parse(path, [labels], labels.count(",") + 1)[0]
    rows = _rows(path, rows, covariates.size + 1, 1)
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
    else:
        if changes:
            z = series.z.copy()
            for index, value in changes:
                if not (1 <= index <= z.size and isfinite(value)):
                    BlockFit(series).set(index, value)  # raises the engine's message
                z[index - 1] = value
            series = WeightedSeries(z, series.w)
        blocks = fit_standard(series) if args.variant == "standard" else fit_modified(series)
    fitted = expand(blocks)

    payload = {
        "boundaries": blocks.boundaries.tolist(),
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
    _write_csv(args.output, header, estimate.thresholds[:, None], estimate.cdf.T)
    return 0


def cmd_quantiles(args) -> int:
    estimate = _read_estimate(args.input)
    betas = _parse_betas(args.betas)
    # header labels use the shortest round-trip form; data cells stay at 17 digits
    header = ",".join(["x", *map(repr, betas)])
    _write_csv(args.output, header, estimate.covariates[:, None], estimate.quantiles(betas))
    return 0


def cmd_gen(args) -> int:
    from .bench import ExperimentConfig, generate_dataset

    config = ExperimentConfig(n=args.n, replications=1, seed=args.seed)
    pairs = generate_dataset(config, 0)
    _write_csv(args.output, "x,y", pairs)
    return 0


def cmd_bench(args) -> int:
    from .bench import ExperimentConfig, run_benchmark

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
