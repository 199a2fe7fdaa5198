"""Command-line frontend: transform, validate, generate, bench.

Exit codes: 0 success, 1 failed validation, 2 irreducible input net,
64 usage errors, 65 unreadable or malformed input, 70 internal errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys
import time
from collections.abc import Iterable

from . import io as scio
from .flat import FlatModel, transform_net
from .generate import GenSpec, generate_sp_net
from .validate import validate_counts, validate_full

EX_OK = 0
EX_VALIDATION_FAILED = 1
EX_IRREDUCIBLE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

#: ``validate`` prints at most this many discrepancies, then a count of
#: the rest.
MAX_PRINTED_DISCREPANCIES = 50


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pn2sc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="reduce a Petri net file to a "
                          "statechart file")
    p_tr.add_argument("input", help="Petri net JSON file")
    p_tr.add_argument("-o", "--output", required=True,
                      help="statechart JSON file to write")

    p_val = sub.add_parser("validate", help="compare a produced statechart "
                           "against an expected one")
    p_val.add_argument("actual")
    p_val.add_argument("expected")
    p_val.add_argument("--counts-only", action="store_true",
                       help="compare per-kind element counts only")

    p_gen = sub.add_parser("generate", help="write a synthetic benchmark net")
    p_gen.add_argument("--places", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--branch-factor-max", type=int, default=4)
    p_gen.add_argument("--parallel-prob", type=float, default=0.5)
    p_gen.add_argument("-o", "--output",
                       help="output file (default: sp<places>_<seed>.json)")

    p_bench = sub.add_parser("bench", help="time the transformation across "
                             "net sizes")
    p_bench.add_argument("--sizes", default="5000,10000,40000",
                         help="comma separated place counts")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise scio.DocumentError(f"cannot read {path}: {exc}") from None


def _read_statechart(path: str) -> scio.StatechartDocument:
    """Parse the statechart file at ``path``.

    A regular file is read ``_CHUNK_BYTES`` at a time through
    ``statechart_text``, so its indentation is never held. If that fails,
    the file is read and parsed again as it stands, so that the error
    names the file's own columns and offsets. Any other path, such as a
    pipe, which cannot be read twice, is read as it stands at once."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # reading the path reports it
        regular = False
    if regular:
        try:
            with open(path, "rb") as handle:
                text = scio.statechart_text(
                    iter(lambda: handle.read(scio._CHUNK_BYTES), b"")
                )
            return scio.parse_statechart(text)
        except (scio.DocumentError, OSError):
            pass
    return scio.parse_statechart(_read_file(path))


def _write_file(path: str, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then rename it
    to ``path``. On any failure the temporary file is removed and ``path``
    is left as it was, so no run leaves a partial output. A ``path`` that
    exists and is not itself a regular file, such as a symbolic link
    (``/dev/stdout`` is one), a pipe or a device, is written in place: a
    rename would replace it rather than write through it.
    """
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:  # missing; opening the temporary file reports the rest
        in_place = False
    target = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        with open(target, "wb") as handle:
            handle.writelines(chunks)
        if not in_place:
            os.replace(target, path)
    except BaseException as exc:
        if not in_place:
            try:
                os.unlink(target)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise scio.DocumentError(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from None
        raise


def _cmd_transform(args: argparse.Namespace) -> int:
    doc, result = transform_net(scio.parse_petri_net(_read_file(args.input)))
    if doc is None:
        print(
            f"irreducible: {result.top_or_count} top-level OR states; "
            f"{result.remaining_places} places and "
            f"{result.remaining_transitions} transitions remain",
            file=sys.stderr,
        )
        return EX_IRREDUCIBLE
    _write_file(args.output, scio.statechart_document_chunks(doc))
    return EX_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    actual = _read_statechart(args.actual)
    expected = _read_statechart(args.expected)
    check = validate_counts if args.counts_only else validate_full
    report = check(actual, expected)
    for item in report.discrepancies[:MAX_PRINTED_DISCREPANCIES]:
        print(f"{item.kind}: {item.detail}")
    hidden = len(report.discrepancies) - MAX_PRINTED_DISCREPANCIES
    if hidden > 0:
        print(f"... and {hidden} more")
    print(f"{report.level.value} validation "
          f"{'passed' if report.passed else 'failed'}")
    return EX_OK if report.passed else EX_VALIDATION_FAILED


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = GenSpec(args.places, args.seed, args.branch_factor_max,
                       args.parallel_prob)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    out = args.output or spec.file_name()
    _write_file(out, [scio.petri_net_to_bytes(generate_sp_net(spec))])
    return EX_OK


def run_bench(sizes: list[int], reps: int, seed: int) -> list[dict]:
    """Time the phases ``transform`` runs on flat lists: ``init_ms`` builds
    the ``FlatModel``, ``reduce_ms`` runs its fixpoint, top state and
    hyperedge assignment, and ``total_ms`` is their sum. Returns one row
    per size with the median over ``reps`` runs, in milliseconds."""
    import statistics  # only bench needs it, and it is slow to import

    rows = []
    for size in sizes:
        doc = generate_sp_net(GenSpec(size, seed))
        init_ms, reduce_ms, total_ms = [], [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            model = FlatModel(doc)
            t1 = time.perf_counter()
            model.reduce()
            t2 = time.perf_counter()
            init_ms.append((t1 - t0) * 1000.0)
            reduce_ms.append((t2 - t1) * 1000.0)
            total_ms.append((t2 - t0) * 1000.0)
        rows.append({
            "size": size,
            "seed": seed,
            "init_ms": statistics.median(init_ms),
            "reduce_ms": statistics.median(reduce_ms),
            "total_ms": statistics.median(total_ms),
        })
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError:
        raise _UsageError(f"bad --sizes value: {args.sizes!r}") from None
    if not sizes or min(sizes) < 1 or args.reps < 1:
        raise _UsageError("need at least one size and one repetition, "
                          "and every size at least 1")
    rows = run_bench(sizes, args.reps, args.seed)
    header = f"{'size':>8}  {'init_ms':>10}  {'reduce_ms':>10}  {'total_ms':>10}"
    print(header, file=sys.stderr)
    for row in rows:
        print(
            f"{row['size']:>8}  {row['init_ms']:>10.1f}  "
            f"{row['reduce_ms']:>10.1f}  {row['total_ms']:>10.1f}",
            file=sys.stderr,
        )
    print(json.dumps(rows, indent=2))
    return EX_OK


_COMMANDS = {
    "transform": _cmd_transform,
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # The pipeline builds no reference cycles, so the cyclic collector
    # would only walk its growing lists again and again. It is turned
    # back on afterwards for callers that run main() in their own process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code
        return code if isinstance(code, int) else EX_USAGE
    except (scio.DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EX_SOFTWARE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
