"""Command-line surface: count, list, classify, evolve, predecessor,
verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration cap exceeded.  Data goes to stdout; progress and error
messages go to stderr.  Counts are printed in full decimal.  A reader
that closes stdout early (``list 40 | head``) ends the run quietly, and
the run keeps its exit code: 0, or 1 when ``verify`` has found a failure.
A stderr that cannot be written fails a run with exit 2, and a refusal
keeps its code when its message cannot be written.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from itertools import filterfalse
from typing import TextIO

from .core import (Kind, collectable, decimal_value, parse_partition,
                   quote_text, smallest_part_once)
from .engine import check_upward
from .level import (Level, LevelBlocks, read_snapshot, write_snapshot,
                    write_text)
from .method1 import evolve_m1_chunks, predecessor_m1
from .method2 import evolve_m2_chunks, predecessor_m2
from .oracle import (DEFAULT_CAP, CapExceededError, check_cap, count_oracle,
                     enumerate_oracle)
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


def _file_name(text: str) -> str:
    # An empty name would resolve to the working directory.
    if not text:
        raise argparse.ArgumentTypeError("the file name is empty")
    return text


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
    evolve.add_argument("--snapshot-in", metavar="FILE", type=_file_name,
                        help="JSONL snapshot holding the complete start level")
    evolve.add_argument("--snapshot-out", metavar="FILE", type=_file_name,
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
        check_cap(args.n, cap)
        # Counted as evolve counts, without holding the level.
        if args.source == "evolve1":
            value = evolve_m1_chunks(Level.seed("method1"), args.n).check()
        else:
            value = evolve_m2_chunks(Level.seed("method2"), args.n).check()
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
    second = (smallest_part_once if args.method == 1
              else collectable)(members)
    chosen = set(second)
    for label, kind, group in (
            ("Group 1", Kind.FIRST,
             list(filterfalse(chosen.__contains__, members))),
            ("Group 2", Kind.SECOND, second)):
        print(f"{label} ({kind.value}): {len(group)} partitions")
        write_text(Level(args.n, group, "oracle"), sys.stdout, lead="  ")
    return EXIT_OK


def _progress(weight: int, counts: dict[str, int]) -> None:
    total = sum(counts.values())
    breakdown = ", ".join(f"{tag}={count}" for tag, count in counts.items())
    try:
        print(f"level {weight}: {total} partitions ({breakdown})",
              file=sys.stderr)
    except BrokenPipeError as exc:
        # stderr's reader is gone, not stdout's: the run fails.
        raise OSError(f"cannot write progress: {exc.strerror}") from None


def cmd_evolve(args: argparse.Namespace) -> int:
    """Evolve to ``to_n``, from the seed or from a snapshot of ``from_n``.

    A snapshot is first proven against level ``from_n`` grown from the
    seed by the method's own blocks, certified and counted against P(n)
    (see ``level.read_snapshot``), and read as a file only when that
    fails.  Once it is proven, the start is known without its members,
    so the run is ``evolve 0 to_n``'s, heard from weight ``from_n`` on,
    and the line of ``from_n`` gives the file's own tags.  A kernel fault
    that the proof did not meet is refused as ``evolve 0 to_n`` refuses
    it.
    """
    cap = _resolve_cap(args)
    check_cap(args.to_n, cap)
    # Refused before any snapshot is opened, read or counted.
    check_upward(args.from_n, args.to_n)
    method_tag = "method1" if args.method == 1 else "method2"
    # Either method's level comes as blocks, which are certified from a
    # lower level and its tables and never held whole.
    evolve = evolve_m1_chunks if args.method == 1 else evolve_m2_chunks

    if args.snapshot_in is not None:
        # Undecodable bytes come through as lone surrogates, which the
        # reader refuses by line.
        with open(args.snapshot_in, encoding="utf-8",
                  errors="surrogateescape") as stream:
            expected = count_oracle(args.from_n)
            start = read_snapshot(stream, expected_n=args.from_n,
                                  level=_recomputed(evolve, method_tag,
                                                    args.from_n, expected,
                                                    stream))
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

    # Opened before evolving, so that a bad path fails fast.  The level is
    # checked (blocks certified) and counted before the first byte goes to
    # stdout or to the file, which replaces its target only when written.
    with (nullcontext(sys.stdout) if args.snapshot_out is None
          else _replacing(args.snapshot_out)) as out:
        # A start held as blocks was proven, not read.
        if isinstance(start, LevelBlocks):
            final = _grown_from_seed(evolve, method_tag, start, args.to_n)
        else:
            final = evolve(start, args.to_n, progress=_progress)
        _check_complete(final.check(), args.to_n)
        (write_text if args.snapshot_out is None else write_snapshot)(
            final, out)
    return EXIT_OK


def _recomputed(evolve: Callable[..., Level | LevelBlocks],
                method_tag: str, n: int, count: int, stream: TextIO
                ) -> Level | LevelBlocks | None:
    """Level n grown from the seed by ``evolve``, with no progress, when
    it passes its check and holds ``count`` members, P(n); otherwise None.
    None too, without growing it, when ``stream`` cannot be read twice or
    holds fewer bytes than ``count`` lines need."""
    if not stream.seekable() or os.fstat(stream.fileno()).st_size < count:
        return None
    try:
        level = evolve(Level.seed(method_tag), n)
        return level if level.check() == count else None
    except ValueError:
        return None


def _grown_from_seed(evolve: Callable[..., Level | LevelBlocks],
                     method_tag: str, start: LevelBlocks, target_n: int
                     ) -> Level | LevelBlocks:
    """The level of ``target_n`` from a proven ``start``: ``start`` itself
    at its own weight, else grown from the seed by ``evolve``.  Progress is
    heard from the start's weight on, the start's line with its tags."""
    def heard(weight: int, counts: dict[str, int]) -> None:
        if weight > start.n:
            _progress(weight, counts)

    _progress(start.n, start.tag_counts())
    if target_n == start.n:
        return start
    return evolve(Level.seed(method_tag), target_n, progress=heard)


def _check_complete(count: int, n: int) -> None:
    """Refuse an evolved level of weight n that does not hold all P(n)
    partitions.  P(n) comes from the series, as ``count`` prints it by
    default: the headline run ``evolve 0 50 --method 2`` stays clear of
    the oracle."""
    expected = euler_p_coeffs(n)[n]
    if count != expected:
        raise ValueError(f"evolved level is incomplete for weight {n}: "
                         f"holds {count} of {expected} partitions")


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
    # Decided before the report is written, so a closed stdout keeps it.
    args.verdict = EXIT_OK if report.overall else EXIT_VERIFY_FAILED
    print(report.format_text())
    return args.verdict


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
        return getattr(args, "verdict", EXIT_OK)
    except CapExceededError as exc:
        return _refuse(EXIT_CAP_EXCEEDED,
                       f"{exc}; raise it with --cap or ${ENV_CAP}")
    except (ValueError, OSError) as exc:
        return _refuse(EXIT_USAGE, str(exc))


def _refuse(code: int, message: str) -> int:
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass  # stderr cannot be written; the code still tells why
    return code


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
