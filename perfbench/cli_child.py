"""Run one `seqpava` command in a fresh interpreter and report on it.

Usage: python cli_child.py REPORT_JSON TRACE COMMAND [ARGS...]

Runs ``seqpava.cli.main([COMMAND, ARGS...])``, as ``python -m seqpava``
does, and exits with its exit code. With TRACE 1 the library calls the
command makes are recorded as spans under a root span ``cli.<COMMAND>``
that covers ``main``; the root's self time is the command's parse, format
and write. REPORT_JSON receives ``{"peak_rss_kib", "spans", "absent"}``.

The peak resident set is read from the process's own ``VmHWM`` (Linux). A
parent's ``wait4`` would report the benchmark's own size instead, because
the kernel carries the resident-set peak of the forking process across exec.
"""
import json
import sys

import seqpava.cli as cli
from tracing import Tracer, install_cli_shims


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer()
    absent = install_cli_shims(tracer, cli) if traced else []
    tracer.begin(f"cli.{argv[0]}")
    try:
        code = cli.main(argv)
    finally:
        tracer.end()
    report = {"peak_rss_kib": peak_rss_kib(), "spans": tracer.spans if traced else [], "absent": absent}
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
