"""End-to-end benchmark of the partition-evolve CLI.

Usage, from the root of a checkout::

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  A
run is a closed loop with one client: one ``python -m partition_evolve``
child at a time, the next spawned only after the previous one exits.
Every child's stdout (or output snapshot) is hashed and compared with a
reference digest pinned here; a nonzero exit or a digest mismatch is a
failed run, and failures are never retried.  Wall time runs from spawn to
exit; CPU time and peak RSS come from ``os.wait4`` on that child alone.

Times are reported at nominal host speed: a fixed reference program runs
before each timed child, and every time in the run is multiplied by
NOMINAL_REFERENCE_S over the reference's median wall time in that run.
The table prints that factor.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the run untraced and half running the CLI under ``tracer.py``, and
reports the per-layer metrics.  The last stdout line is one JSON object;
the lines before it are a readable table.  See README.md in this
directory for the workloads, the metrics and which layer moves which
end-to-end metric."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = BENCH_DIR / "tracer.py"

# Each child runs for about two seconds on the python backend.  On a
# shared 2-core host one invocation's wall time varies by 10-15%
# whatever its length, so a run takes the median of many short
# invocations rather than of a few long ones.
EVOLVE_N = 50
RESUME_FROM = 38
VERIFY_N = 34


def expected_verify_report(n: int) -> str:
    """The report `verify n` prints when every check passes."""
    return f"""\
PASS  count-recurrence P(n+1)=P(n)+Q(n) [n=0..{n - 1}]
PASS  count-identity series vs counting recurrence [n=0..{n}]
PASS  q-semantics Q(n) counts smallest-part-once partitions [n=0..{n}]
PASS  method1 successor bijection and round-trip [n=0..{n - 1}]
PASS  method2 successor bijection and round-trip [n=0..{n - 1}]
PASS  method equivalence with enumeration [n=0..{n}]
PASS  mixed-method evolution matches enumeration [n=0..{n}]
OVERALL PASS (7 checks)
"""


# SHA-256 of the expected output at the sizes above.  The evolve digests
# are derived from the oracle (`list 50`) by oracle_text_digest and
# oracle_m1_snapshot_digest; test_bench.py re-derives them.
REFERENCE = {
    "evolve-m2-text":
        "394103aaf60ae25bee7abb02f111b58d8e8c90f7a94de72a69916238801fcc14",
    "resume-m1-jsonl":
        "7520c411a33a67d09dc84e9c941dc35070bff63362a16e167daa8da5c99104f5",
    "verify": hashlib.sha256(
        expected_verify_report(VERIFY_N).encode()).hexdigest(),
}

# Set-up repeats for at least this long, and at least five times; one
# cold import takes well under a tenth of a second and varies by a fifth.
SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 5

# The host's speed drifts by up to half over minutes, for every program
# alike.  A run therefore times this program, which does the same kind of
# work as the package (build tuples, sort them, render them as text) but
# shares no code with it, before each timed child, and rescales its times
# to a host on which the program's median wall time is
# NOMINAL_REFERENCE_S.
REFERENCE_PROGRAM = """\
rows = [tuple(range(i % 7, i % 7 + i % 13)) for i in range(120_000)]
rows.sort(reverse=True)
text = "\\n".join("+".join(map(str, row)) for row in rows)
"""
NOMINAL_REFERENCE_S = 0.35


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    reference: str
    # Layers this workload must never enter; the traced run checks them.
    bypassed: tuple[str, ...]
    # Weight of the shuffled start snapshot, or None for no input file.
    snapshot_from: int | None = None
    # Output goes to this file in the work directory instead of stdout.
    output_file: str | None = None


def workloads(evolve_n: int = EVOLVE_N, resume_from: int = RESUME_FROM,
              verify_n: int = VERIFY_N,
              reference: dict[str, str] = REFERENCE) -> dict[str, Workload]:
    """The benchmark's workloads; tests build them at small sizes."""
    return {w.name: w for w in (
        Workload(
            "evolve-m2-text",
            ("evolve", "0", str(evolve_n), "--method", "2"),
            reference["evolve-m2-text"],
            bypassed=("kernel.step_m1", "kernel.enumerate_level",
                      "oracle.enumerate_oracle", "oracle.count_oracle",
                      "level.read_snapshot", "level.write_snapshot",
                      "verify.run_suite")),
        Workload(
            "resume-m1-jsonl",
            ("evolve", str(resume_from), str(evolve_n), "--method", "1",
             "--snapshot-in", "in.jsonl", "--snapshot-out", "out.jsonl"),
            reference["resume-m1-jsonl"],
            bypassed=("kernel.step_m2", "kernel.enumerate_level",
                      "oracle.enumerate_oracle", "verify.run_suite"),
            snapshot_from=resume_from,
            output_file="out.jsonl"),
        Workload(
            "verify",
            ("verify", str(verify_n)),
            reference["verify"],
            bypassed=("level.read_snapshot", "level.write_snapshot")),
    )}


def child_env() -> dict[str, str]:
    """The children's environment: no backend or cap override, fixed hash
    seed, and the package imported from this checkout's sources."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PARTITION_EVOLVE_BACKEND", "PARTITION_EVOLVE_CAP")
           and not key.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    stdout_bytes: int
    digest: str
    stderr: bytes = field(repr=False)


def run_child(argv: list[str], cwd: Path,
              output_file: Path | None = None) -> ChildRun:
    """Run one child to completion, hashing its stdout as it streams.

    stdout and stderr are drained together on this thread, so a child
    that fills one pipe never blocks on it.  When ``output_file`` is given
    the digest is of that file instead.
    """
    digest = hashlib.sha256()
    stdout_bytes = 0
    stderr = bytearray()
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            while selector.get_map():
                for key, _ in selector.select():
                    chunk = os.read(key.fd, 1 << 20)
                    if not chunk:
                        selector.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        digest.update(chunk)
                        stdout_bytes += len(chunk)
                    else:
                        stderr += chunk
        # wait4 reports this child's own usage; RUSAGE_CHILDREN would keep
        # the maximum RSS over every child this process has reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if output_file is not None:
        digest = hashlib.sha256()
        if output_file.exists():
            with open(output_file, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 20), b""):
                    digest.update(block)
    return ChildRun(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, stdout_bytes, digest.hexdigest(),
                    bytes(stderr))


def cli_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "partition_evolve", *args]


def checked_output(args: list[str], cwd: Path) -> bytes:
    """Run a helper child that must succeed and return its stdout."""
    result = subprocess.run(args, cwd=cwd, env=child_env(),
                            stdin=subprocess.DEVNULL, capture_output=True)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:])} exited "
                           f"{result.returncode}: "
                           f"{result.stderr.decode(errors='replace')}")
    return result.stdout


def oracle_text_digest(n: int, cwd: Path) -> str:
    """Digest of `evolve 0 n` text output, from the oracle's listing."""
    return hashlib.sha256(checked_output(cli_command("list", str(n)),
                                         cwd)).hexdigest()


def oracle_m1_snapshot_digest(n: int, cwd: Path) -> str:
    """Digest of a method-1 snapshot of level n, from the oracle's listing.

    The oracle tags every member Seed; under the first rule a member was
    Augmented when its last part exceeds 1 and AddedUnit otherwise.
    """
    digest = hashlib.sha256()
    listing = checked_output(cli_command("list", str(n), "--format", "jsonl"),
                             cwd)
    for line in listing.splitlines():
        record = json.loads(line)
        record["tag"] = "Augmented" if record["parts"][-1] > 1 else "AddedUnit"
        digest.update((json.dumps(record) + "\n").encode())
    return digest.hexdigest()


def prepare_input(workload: Workload, seed: int, work: Path) -> None:
    """Write the workload's start snapshot with its lines shuffled by seed."""
    if workload.snapshot_from is None:
        return
    listing = checked_output(
        cli_command("list", str(workload.snapshot_from), "--format", "jsonl"),
        work)
    lines = listing.splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    (work / "in.jsonl").write_bytes(b"".join(lines))


class HostSpeed:
    """Wall times of REFERENCE_PROGRAM, one before each timed child."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.reference_s: list[float] = []

    def measure(self) -> None:
        run = run_child([sys.executable, "-c", REFERENCE_PROGRAM], self.work)
        if run.exit_code != 0:
            raise RuntimeError(f"reference program exited {run.exit_code}")
        self.reference_s.append(run.wall_s)

    @property
    def factor(self) -> float:
        """Multiplying a time taken during the run by this factor gives
        the time at nominal host speed."""
        return NOMINAL_REFERENCE_S / statistics.median(self.reference_s)


def timed_setup(workload: Workload, seed: int, work: Path) -> float:
    """Input preparation plus one cold `import partition_evolve` process."""
    started = time.perf_counter()
    prepare_input(workload, seed, work)
    checked_output([sys.executable, "-c", "import partition_evolve"], work)
    return time.perf_counter() - started


def environment(work: Path) -> dict[str, str]:
    """What a result depends on besides the code; compare only equal ones.

    Running it also compiles the package's bytecode, so the timed
    imports that follow find it cached, as an installed package would.
    """
    backend = checked_output(
        [sys.executable, "-c",
         "import partition_evolve as p; print(p.default_backend_name())"],
        work).decode().strip()
    return {"backend": backend, "python": platform.python_version(),
            "nproc": str(len(os.sched_getaffinity(0)))}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, workload: Workload, run: ChildRun) -> None:
        self.attempted += 1
        if run.exit_code != 0:
            problem = f"exit {run.exit_code}: {run.stderr[-300:]!r}"
        elif run.digest != workload.reference:
            problem = f"output digest {run.digest} != {workload.reference}"
        else:
            return
        self.failed += 1
        self.problems.append(problem)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Sample:
    """One checked invocation and, when traced, its layer aggregates."""

    run: ChildRun
    stats: dict | None = None


def invoke(workload: Workload, work: Path, tally: Tally, host: HostSpeed,
           traced: bool) -> Sample:
    host.measure()
    output = work / workload.output_file if workload.output_file else None
    if output is not None and output.exists():
        output.unlink()
    stats_path = work / "trace.json"
    if traced:
        stats_path.unlink(missing_ok=True)
        argv = [sys.executable, str(TRACER), str(stats_path), *workload.args]
    else:
        argv = cli_command(*workload.args)
    run = run_child(argv, work, output)
    tally.check(workload, run)
    stats = None
    if traced and stats_path.exists():
        stats = json.loads(stats_path.read_text())
    return Sample(run, stats)


def closed_loop(workload: Workload, work: Path, tally: Tally,
                host: HostSpeed, seconds: float, traced: bool = False
                ) -> list[Sample]:
    """Invoke the workload back to back for about ``seconds``.

    Another invocation starts only if it is expected to end no later than
    half an invocation past the deadline, so a run of long invocations
    does not overshoot by a whole one.
    """
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not samples or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        samples.append(invoke(workload, work, tally, host, traced))
        last = time.perf_counter() - started
    return samples


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(samples: list[Sample], setups: list[float], factor: float
               ) -> dict[str, tuple[list[float], str]]:
    """Each metric's values, times at nominal host speed, and its unit."""
    runs = [s.run for s in samples]
    return {
        "wall_s": ([r.wall_s * factor for r in runs], "s"),
        "cpu_s": ([r.cpu_s * factor for r in runs], "s"),
        "peak_rss_mib": ([r.peak_rss_mib for r in runs], "MiB"),
        "setup_s": ([seconds * factor for seconds in setups], "s"),
    }


LAYERS = (
    # (span, work count reported beside its self time)
    ("kernel.step_m2", "members_out"),
    ("kernel.step_m1", "members_out"),
    ("kernel.enumerate_level", "members_out"),
    ("oracle.enumerate_oracle", "calls"),
    ("level.from_raw", "members"),
    ("level.read_snapshot", "lines"),
    ("level.write_snapshot", "bytes"),
    ("cli.main", None),
    ("engine.evolve", None),
    ("method1.successors", "calls"),
    ("method1.predecessor", "calls"),
    ("method2.successors", "calls"),
    ("method2.predecessor", "calls"),
    ("verify.run_suite", None),
    ("series.coefficient_rows", None),
    ("oracle.count_oracle", None),
)


def layer_metrics(traced: list[Sample], untraced: list[Sample],
                  factor: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the traced invocations, with times
    at nominal host speed."""
    med = statistics.median
    traced = [s for s in traced if s.stats is not None]

    def seconds(name, key):
        return med([s.stats["spans"][name][key] for s in traced]) * factor

    def count(name, key):
        return med([s.stats["spans"][name][key] for s in traced])

    metrics: dict[str, tuple[float, str]] = {}
    for name, count_name in LAYERS:
        metrics[f"{name}.self_s"] = (seconds(name, "self_s"), "s")
        if count_name == "calls":
            metrics[f"{name}.calls"] = (count(name, "calls"), "count")
        elif count_name is not None:
            unit = "bytes" if count_name == "bytes" else "count"
            metrics[f"{name}.{count_name}"] = (count(name, "count"), unit)
    calls = count("oracle.enumerate_oracle", "calls")
    distinct = med([s.stats["enumerated_weights"] for s in traced])
    metrics["oracle.enumerate_oracle.distinct_ratio"] = (
        distinct / calls if calls else 0.0, "ratio")
    metrics["engine.levels"] = (count("engine.evolve", "count"), "count")
    metrics["cli.stdout_bytes"] = (med([s.run.stdout_bytes for s in traced]),
                                   "bytes")
    metrics["cli.import_s"] = (
        med([s.stats["import_s"] for s in traced]) * factor, "s")
    metrics["trace.overhead_s"] = (
        (med([s.run.wall_s for s in traced])
         - med([s.run.wall_s for s in untraced])) * factor, "s")
    return metrics


def bypass_violations(workload: Workload, traced: list[Sample]) -> list[str]:
    return [f"{name} was entered {s.stats['spans'][name]['calls']} times"
            for s in traced if s.stats is not None
            for name in workload.bypassed
            if s.stats["spans"][name]["calls"]]


def report_end_to_end(workload: Workload, work: Path, tally: Tally,
                      host: HostSpeed, seconds: float, setups: list[float],
                      out) -> dict[str, dict]:
    samples = closed_loop(workload, work, tally, host, seconds)
    factor = host.factor
    print(f"  host speed {factor:.4f}: times below are raw times "
          f"multiplied by it", file=out)
    metrics = {}
    for name, (values, unit) in end_to_end(samples, setups, factor).items():
        median, q1, q3 = summary(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:<13} median {median:10.4f} {unit:<4} "
              f"q1 {q1:10.4f}  q3 {q3:10.4f}  n={len(values)}", file=out)
    return metrics


def report_layers(workload: Workload, work: Path, tally: Tally,
                  host: HostSpeed, seconds: float, out
                  ) -> tuple[dict[str, dict], list[str]]:
    untraced = closed_loop(workload, work, tally, host, seconds / 2)
    traced = closed_loop(workload, work, tally, host, seconds / 2,
                         traced=True)
    if all(s.stats is None for s in traced):
        raise RuntimeError("no traced run wrote its layer stats: "
                           + "; ".join(tally.problems))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit)
               in layer_metrics(traced, untraced, host.factor).items()}
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:14.4f} {metric['unit']}",
              file=out)
    return metrics, bypass_violations(workload, traced)


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, out=sys.stdout) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(work)
        host = HostSpeed(work)
        setups: list[float] = []
        deadline = time.perf_counter() + SETUP_SECONDS
        while (len(setups) < SETUP_MIN_REPEATS
               or time.perf_counter() < deadline):
            setups.append(timed_setup(workload, seed, work))
        tally = Tally()
        print(f"workload {workload.name}{' traced' if trace else ''}  "
              f"seed {seed}  "
              + "  ".join(f"{k}={v}" for k, v in env.items()), file=out)
        if trace:
            metrics, problems = report_layers(workload, work, tally, host,
                                              seconds, out)
        else:
            metrics = report_end_to_end(workload, work, tally, host, seconds,
                                        setups, out)
            problems = []
        print(f"  {'error_rate':<13} {tally.error_rate:10.4f} "
              f"({tally.failed} of {tally.attempted} runs failed)", file=out)
        for problem in tally.problems + problems:
            print(f"  problem: {problem}", file=out)
        return {"correct": not tally.failed and not problems,
                "attempted": tally.attempted, "failed": tally.failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*table, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partition_evolve" / "__init__.py").is_file():
        print(f"error: no partition_evolve sources under {SRC}",
              file=sys.stderr)
        return 2

    names = list(table) if args.workload == "all" else [args.workload]
    results = {name: run_workload(table[name], args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
