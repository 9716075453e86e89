"""Run the partition-evolve CLI in this process with its layers wrapped.

Usage::

    python3 perfbench/tracer.py STATS_JSON CLI_ARG...

The CLI's stdout, stderr and exit code pass through untouched, so the
caller checks the output exactly as for an untraced run.  Per-layer
aggregates go to STATS_JSON when the CLI returns.

Layers are measured from outside: each wrapper replaces a module
attribute that the CLI, the engine or ``verify`` looks up at call time,
so no package code changes.  Spans are aggregated by name in memory
(``verify`` opens hundreds of thousands of per-partition spans); a span's
self time is its duration minus the durations of the spans it directly
encloses.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from time import perf_counter


class Tracer:
    """Per-name span aggregates: calls, self seconds and a work count."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        # Child-span seconds accumulated for each open span; the bottom
        # entry collects time spent in top-level spans.
        self._open = [0.0]

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` adds to
        the span's work count after each call."""
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = open_spans.pop()
                open_spans[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - inner
            if count is not None:
                stat[2] += count(args, result)
            return result

        return traced

    def patch(self, module, attr, name, count=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), count))

    def report(self) -> dict[str, dict]:
        return {name: {"calls": calls, "self_s": self_s, "count": count}
                for name, (calls, self_s, count) in self.stats.items()}


def _members_out(args, result):
    return len(result[0])


def _length(args, result):
    return len(result)


def _levels(args, result):
    start, target_n = args[0], args[1]
    return target_n - start.n


def _snapshot_bytes(args, result):
    # The CLI hands write_snapshot a freshly opened file, so the position
    # after the call is the number of bytes written.
    return args[1].tell()


def install(tracer: Tracer, distinct_weights: set) -> Callable[[list], int]:
    """Wrap every traced layer; returns the traced ``cli.main``."""
    from partition_evolve import backend, cli, level, method1, method2, verify

    kernel = backend.get_backend()
    tracer.patch(kernel, "step_m1", "kernel.step_m1", _members_out)
    tracer.patch(kernel, "step_m2", "kernel.step_m2", _members_out)
    tracer.patch(kernel, "enumerate_level", "kernel.enumerate_level", _length)

    from_raw = tracer.wrap("level.from_raw", level.Level.from_raw, _length)
    level.Level.from_raw = staticmethod(from_raw)

    for module in (method1, method2):
        tracer.patch(module, "run_evolution", "engine.evolve", _levels)

    def enumerated(args, result):
        distinct_weights.add(args[0])
        return 0

    for module in (cli, verify):
        tracer.patch(module, "enumerate_oracle", "oracle.enumerate_oracle",
                     enumerated)
        tracer.patch(module, "count_oracle", "oracle.count_oracle")

    tracer.patch(cli, "read_snapshot", "level.read_snapshot", _length)
    tracer.patch(cli, "write_snapshot", "level.write_snapshot",
                 _snapshot_bytes)
    tracer.patch(cli, "run_suite", "verify.run_suite")
    tracer.patch(verify, "coefficient_rows", "series.coefficient_rows")
    for method in ("1", "2"):
        tracer.patch(verify, f"tagged_successors_m{method}",
                     f"method{method}.successors")
        tracer.patch(verify, f"predecessor_m{method}",
                     f"method{method}.predecessor")
    return tracer.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    started = perf_counter()
    import partition_evolve.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = perf_counter() - started

    tracer = Tracer()
    distinct_weights: set = set()
    traced_main = install(tracer, distinct_weights)
    code = traced_main(cli_args)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as stream:
        json.dump({"import_s": import_s,
                   "enumerated_weights": len(distinct_weights),
                   "spans": tracer.report()}, stream)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
