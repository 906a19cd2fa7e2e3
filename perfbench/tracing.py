"""Spans recorded from outside the program, around calls into public names.

A span is ``[name, start, end, parent]`` with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 for a root). Spans stay in
memory until the run writes them out.
"""
from __future__ import annotations

from time import perf_counter

# Library names the CLI looks up in its own namespace, by span name.
CLI_FUNCTIONS = {
    "idr.group": "group",
    "idr.fit_family": "fit_family",
    "sequential.init": "init",
    "sequential.update_any": "update_any",
    "pava.fit_standard": "fit_standard",
    "pava.fit_modified": "fit_modified",
    "pava.expand": "expand",
}
# Methods of the estimate class the CLI calls, by span name.
ESTIMATE_METHODS = {
    "idr.validate": "validate",
    "idr.quantile": "quantile",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> float:
        """Close the innermost open span and return its duration in seconds."""
        span = self.spans[self._open.pop()]
        span[2] = perf_counter()
        return span[2] - span[1]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def shim(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return shim


def install_cli_shims(tracer: Tracer, cli) -> list[str]:
    """Wrap the library names ``cli`` looks up; return the span names it no longer has."""
    absent = []
    for span, attr in CLI_FUNCTIONS.items():
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(span, getattr(cli, attr)))
        else:
            absent.append(span)
    estimate = getattr(cli, "DistributionFamilyEstimate", None)
    for span, attr in ESTIMATE_METHODS.items():
        if estimate is not None and hasattr(estimate, attr):
            setattr(estimate, attr, tracer.wrap(span, getattr(estimate, attr)))
        else:
            absent.append(span)
    return absent


def self_and_children(spans: list, root: int) -> tuple[float, dict]:
    """Self time of span ``root`` and the summed durations of its direct children by name."""
    children: dict = {}
    for name, start, end, parent in spans:
        if parent == root:
            children[name] = children.get(name, 0.0) + (end - start)
    _, start, end, _ = spans[root]
    return (end - start) - sum(children.values()), children
