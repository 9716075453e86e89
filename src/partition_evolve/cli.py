"""Command-line surface: count, list, classify, evolve, predecessor,
verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration cap exceeded.  Data goes to stdout; progress and error
messages go to stderr.  Counts are printed in full decimal.  A reader
that closes stdout early (``list 40 | head``) ends the run quietly with
exit 0.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from itertools import filterfalse
from typing import TextIO

from .core import (Kind, collectable, decimal_value, member_text,
                   parse_partition, quote_text, smallest_part_once)
from .engine import check_upward
from .level import Level, read_snapshot, write_snapshot, write_text
from .method1 import evolve_m1, predecessor_m1
from .method2 import evolve_m2, predecessor_m2
from .oracle import DEFAULT_CAP, CapExceededError, count_oracle, enumerate_oracle
from .series import coefficient_csv, euler_p_coeffs
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP_EXCEEDED = 3

ENV_CAP = "PARTITION_EVOLVE_CAP"


def _nonneg_int(text: str) -> int:
    value = decimal_value(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"{quote_text(text)} is not a nonnegative decimal integer")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{quote_text(text)} must be at least 1")
    return value


def _add_cap_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cap", type=_nonneg_int, default=None,
                     help=f"enumeration cap (default {DEFAULT_CAP}; "
                          f"flag wins over ${ENV_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-evolve",
        description="Generate, evolve, verify, and count integer partitions.")
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser(
        "count", help="print P(n) from a chosen source")
    count.add_argument("n", type=_nonneg_int)
    count.add_argument("--source", default="series",
                       choices=("series", "oracle", "evolve1", "evolve2"))
    count.add_argument("--table", action="store_true",
                       help="print the n,P,Q coefficient table instead "
                            "(series source only)")
    _add_cap_flag(count)
    count.set_defaults(func=cmd_count)

    list_ = commands.add_parser(
        "list", help="print all partitions of n in canonical order")
    list_.add_argument("n", type=_nonneg_int)
    list_.add_argument("--format", default="text", choices=("text", "jsonl"))
    _add_cap_flag(list_)
    list_.set_defaults(func=cmd_list)

    classify = commands.add_parser(
        "classify", help="split the partitions of n into the two kinds")
    classify.add_argument("n", type=_nonneg_int)
    classify.add_argument("--method", type=_nonneg_int, choices=(1, 2),
                          required=True)
    _add_cap_flag(classify)
    classify.set_defaults(func=cmd_classify)

    evolve = commands.add_parser(
        "evolve", help="grow the complete level from one weight to another")
    evolve.add_argument("from_n", type=_nonneg_int)
    evolve.add_argument("to_n", type=_nonneg_int)
    evolve.add_argument("--method", type=_nonneg_int, choices=(1, 2),
                        required=True)
    evolve.add_argument("--snapshot-in", metavar="FILE",
                        help="JSONL snapshot holding the complete start level")
    evolve.add_argument("--snapshot-out", metavar="FILE",
                        help="write the final level as JSONL instead of text")
    _add_cap_flag(evolve)
    evolve.set_defaults(func=cmd_evolve)

    predecessor = commands.add_parser(
        "predecessor", help="print the unique predecessor of a partition")
    predecessor.add_argument("partition", metavar="PARTITION",
                             help="partition text such as '3+2+1', or '0'")
    predecessor.add_argument("--method", type=_nonneg_int, choices=(1, 2),
                             required=True)
    predecessor.set_defaults(func=cmd_predecessor)

    verify = commands.add_parser(
        "verify", help="run the full cross-check suite up to max_n")
    verify.add_argument("max_n", type=_positive_int)
    _add_cap_flag(verify)
    verify.set_defaults(func=cmd_verify)

    bench = commands.add_parser(
        "bench", help="time both evolutions and the enumerator, as CSV")
    bench.add_argument("max_n", type=_nonneg_int)
    bench.add_argument("reps", type=_positive_int)
    _add_cap_flag(bench)
    bench.set_defaults(func=cmd_bench)

    return parser


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return args.cap
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_CAP
    value = decimal_value(raw)
    if value is None:
        raise ValueError(f"${ENV_CAP} is not a nonnegative decimal integer: "
                         f"{quote_text(raw)}")
    return value


def _ensure_within_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"weight {n} exceeds cap {cap}; raise it with --cap or "
            f"${ENV_CAP}")


def cmd_count(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    if args.table:
        if args.source != "series":
            raise ValueError("--table requires --source series")
        sys.stdout.write(coefficient_csv(args.n))
        return EXIT_OK
    if args.source == "series":
        value = euler_p_coeffs(args.n)[args.n]
    elif args.source == "oracle":
        value = len(enumerate_oracle(args.n, cap=cap))
    else:
        _ensure_within_cap(args.n, cap)
        if args.source == "evolve1":
            level = evolve_m1(Level.seed("method1"), args.n)
        else:
            level = evolve_m2(Level.seed("method2"), args.n)
        value = len(level)
    print(value)
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    level = enumerate_oracle(args.n, cap=cap)
    if args.format == "jsonl":
        write_snapshot(level, sys.stdout)
    else:
        write_text(level, sys.stdout)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    members = enumerate_oracle(args.n, cap=cap).raw_members()
    second = smallest_part_once if args.method == 1 else collectable
    for label, kind, group in (
            ("Group 1", Kind.FIRST, list(filterfalse(second, members))),
            ("Group 2", Kind.SECOND, list(filter(second, members)))):
        print(f"{label} ({kind.value}): {len(group)} partitions")
        for member in group:
            print(f"  {member_text(member)}")
    return EXIT_OK


def _progress(weight: int, counts: dict[str, int]) -> None:
    total = sum(counts.values())
    breakdown = ", ".join(f"{tag}={count}" for tag, count in counts.items())
    print(f"level {weight}: {total} partitions ({breakdown})",
          file=sys.stderr)


def cmd_evolve(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    _ensure_within_cap(args.to_n, cap)
    # Refused before any snapshot is opened, read or counted.
    check_upward(args.from_n, args.to_n)
    method_tag = "method1" if args.method == 1 else "method2"
    evolve = evolve_m1 if args.method == 1 else evolve_m2

    if args.snapshot_in is not None:
        # Undecodable bytes come through as lone surrogates, which the
        # reader refuses by line.
        with open(args.snapshot_in, encoding="utf-8",
                  errors="surrogateescape") as stream:
            start = read_snapshot(stream, method_tag=method_tag,
                                  expected_n=args.from_n)
        expected = count_oracle(args.from_n)
        if len(start) != expected:
            raise ValueError(
                f"snapshot is incomplete for weight {args.from_n}: holds "
                f"{len(start)} of {expected} partitions")
    elif args.from_n == 0:
        start = Level.seed(method_tag)
    else:
        raise ValueError(
            f"evolving from weight {args.from_n} requires --snapshot-in "
            "with the complete level")

    if args.snapshot_out is None:
        output, write = nullcontext(sys.stdout), write_text
    else:
        # Opened before evolving, so that a bad path fails fast.
        output, write = _replacing(args.snapshot_out), write_snapshot
    with output as stream:
        final = evolve(start, args.to_n, progress=_progress)
        write(final, stream)
    return EXIT_OK


@contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A new temporary file beside ``path``, renamed over ``path`` when the
    block succeeds; a failure removes the temporary file and leaves any
    existing ``path`` untouched.  A symlink is written through; a target
    that exists and is not a regular file is refused at once.  A replaced
    file keeps its permission bits; a new one gets the default mode."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ValueError(f"--snapshot-out {path!r} is not a regular file")
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    # Exclusive create: a file of that name is not ours to overwrite or
    # remove.
    try:
        stream = open(temporary, "x", encoding="utf-8")
    except FileExistsError:
        raise
    except OSError as exc:
        # A missing or unwritable directory: name the path the user gave.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with stream:
            if os.path.isfile(target):
                os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
            yield stream
        os.replace(temporary, target)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise


def cmd_predecessor(args: argparse.Namespace) -> int:
    partition = parse_partition(args.partition)
    predecessor = predecessor_m1 if args.method == 1 else predecessor_m2
    print(predecessor(partition))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    report = run_suite(args.max_n, cap=cap)
    print(report.format_text())
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_bench(args: argparse.Namespace) -> int:
    cap = _resolve_cap(args)
    _ensure_within_cap(args.max_n, cap)
    runners = (
        ("method1", lambda n: evolve_m1(Level.seed("method1"), n)),
        ("method2", lambda n: evolve_m2(Level.seed("method2"), n)),
        ("oracle", lambda n: enumerate_oracle(n, cap=cap)),
    )
    print("n,method,wall_time_ns,partitions_emitted")
    for n in range(args.max_n + 1):
        for method_name, run in runners:
            for _ in range(args.reps):
                started = time.perf_counter_ns()
                level = run(n)
                elapsed = time.perf_counter_ns() - started
                print(f"{n},{method_name},{elapsed},{len(level)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_OK
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _discard_stdout() -> None:
    # The reader closed stdout; point it at the null device, so that the
    # interpreter's own flush at exit cannot fail on the closed pipe and
    # print "Exception ignored".
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file descriptor: an in-process caller's buffer
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main_entry() -> None:
    raise SystemExit(main())
