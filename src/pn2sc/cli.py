"""Command-line frontend: transform, validate, generate, bench.

Exit codes: 0 success, 1 failed validation, 2 irreducible input net,
64 usage errors, 65 unreadable or malformed input, 70 internal errors,
141 standard output closed by its reader (128 + SIGPIPE).

Arguments are read from one table, ``_COMMANDS``, which also renders
``--help`` and the usage line. Only ``pn2sc.io`` loads with this module;
each command imports the modules it runs when it runs, so ``transform``
never loads the validator and ``validate`` never loads the transformation.

``run()``, the entry of ``-m`` and of the ``pn2sc`` script, calls
``main()``, then ``gc.freeze()``, then ``sys.exit()``. Shutdown runs full
collections over every tracked object and skips frozen ones; atexit
handlers and flushes still run. On one 300-place transform (2 shared
cores) this saved 10.7 ms a process on CPython 3.11.7 (102 modules at
start), 5.4 ms on it with ``-S``, 8.5 ms on 3.13.0, 6.3 ms on 3.12.1 and
1.7 ms on 3.10.13.
"""

from __future__ import annotations

import gc
import json
import os
import re
import stat
import sys
import time
from collections.abc import Iterable
from types import SimpleNamespace

from . import io as scio

EX_OK = 0
EX_VALIDATION_FAILED = 1
EX_IRREDUCIBLE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70
EX_BROKEN_PIPE = 141

#: ``validate`` prints at most this many discrepancies, then a count of
#: the rest.
MAX_PRINTED_DISCREPANCIES = 50


class _UsageError(Exception):
    pass


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise scio.DocumentError(f"cannot read {path}: {exc}") from None


def _read_statechart(path: str) -> scio.StatechartDocument:
    """Parse the statechart file at ``path``.

    A regular file is read ``_CHUNK_BYTES`` at a time, so its indentation
    is never held: first through ``_read_squeezed``, which turns each run
    of whitespace into one space and keeps the document only where that
    cannot have changed it. Otherwise the file is read again in chunks,
    through ``statechart_text``, which keeps every string as it stands.
    Either text goes straight to ``parse_statechart``, which drops it once
    it is decoded and the decoded text once it is loaded, so neither is
    held while the nodes are checked. (Python 3.10 keeps a call's
    arguments until it returns, so there the text stays.) If reading
    fails, or the text is not UTF-8 or not JSON, the file is read and
    parsed again as it stands, so that the error names the file's own
    columns and offsets; a schema error names no position and is raised
    from the read in chunks. Any other path, such as a pipe, which cannot
    be read twice, is read as it stands at once."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # reading the path reports it
        regular = False
    if regular:
        try:
            with open(path, "rb") as handle:
                doc = scio._read_squeezed(
                    iter(lambda: handle.read(scio._CHUNK_BYTES), b""))
            if doc is not None:
                return doc
            with open(path, "rb") as handle:
                return scio.parse_statechart(scio.statechart_text(
                    iter(lambda: handle.read(scio._CHUNK_BYTES), b"")
                ))
        except (scio._TextError, OSError):
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


def _cmd_transform(args: SimpleNamespace) -> int:
    from .flat import transform_net

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


def _cmd_validate(args: SimpleNamespace) -> int:
    from .validate import validate_counts, validate_full

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


def _cmd_generate(args: SimpleNamespace) -> int:
    from .generate import GenSpec, generate_sp_net

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
    the ``FlatModel``, ``reduce_ms`` runs its fixpoint (which starts by
    building each place's neighbour sets), top state and hyperedge
    assignment, and ``total_ms`` is their sum. Outside it, ``parse_ms``
    parses the net's bytes and ``write_ms`` builds and encodes the
    canonical document as ``transform`` writes it, without the file.
    Returns one row per size with the median over ``reps`` runs, in ms."""
    import statistics  # only bench needs it, and it is slow to import

    from .flat import FlatModel
    from .generate import GenSpec, generate_sp_net

    rows = []
    for size in sizes:
        data = scio.petri_net_to_bytes(generate_sp_net(GenSpec(size, seed)))
        laps = []
        for _ in range(reps):
            t0 = time.perf_counter()
            doc = scio.parse_petri_net(data)
            t1 = time.perf_counter()
            model = FlatModel(doc)
            t2 = time.perf_counter()
            model.reduce()
            t3 = time.perf_counter()
            for _ in scio.statechart_document_chunks(model.document()):
                pass
            t4 = time.perf_counter()
            laps.append((t2 - t1, t3 - t2, t3 - t1, t4 - t3, t1 - t0))
        rows.append({"size": size, "seed": seed} | dict(zip(
            ("init_ms", "reduce_ms", "total_ms", "write_ms", "parse_ms"),
            [statistics.median(times) * 1000.0 for times in zip(*laps)])))
    return rows


def _cmd_bench(args: SimpleNamespace) -> int:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError:
        raise _UsageError(f"bad --sizes value: {args.sizes!r}") from None
    if not sizes or min(sizes) < 1 or args.reps < 1:
        raise _UsageError("need at least one size and one repetition, "
                          "and every size at least 1")
    rows = run_bench(sizes, args.reps, args.seed)
    keys = [key for key in rows[0] if key.endswith("_ms")]
    print(f"{'size':>8}" + "".join(f"  {key:>10}" for key in keys),
          file=sys.stderr)
    for row in rows:
        print(f"{row['size']:>8}" + "".join(f"  {row[key]:>10.1f}"
                                            for key in keys), file=sys.stderr)
    print(json.dumps(rows, indent=2))
    return EX_OK


#: Every command: its function, its help line, its positionals as
#: (dest, help), and its options as (flags, dest, convert, default,
#: required, help). An option whose convert is None takes no value and
#: sets True.
_COMMANDS = {
    "transform": (
        _cmd_transform, "reduce a Petri net file to a statechart file",
        [("input", "Petri net JSON file")],
        [(("-o", "--output"), "output", str, None, True,
          "statechart JSON file to write")],
    ),
    "validate": (
        _cmd_validate, "compare a produced statechart against an expected "
        "one",
        [("actual", "produced statechart JSON file"),
         ("expected", "expected statechart JSON file")],
        [(("--counts-only",), "counts_only", None, False, False,
          "compare per-kind element counts only")],
    ),
    "generate": (
        _cmd_generate, "write a synthetic benchmark net", [],
        [(("--places",), "places", int, None, True,
          "places to grow the net to"),
         (("--seed",), "seed", int, 0, False, "generator seed"),
         (("--branch-factor-max",), "branch_factor_max", int, 4, False,
          "most branches of a parallel block"),
         (("--parallel-prob",), "parallel_prob", float, 0.5, False,
          "chance that a step makes a parallel block"),
         (("-o", "--output"), "output", str, None, False,
          "output file (default: sp<places>_<seed>.json)")],
    ),
    "bench": (
        _cmd_bench, "time the transformation across net sizes", [],
        [(("--sizes",), "sizes", str, "5000,10000,40000", False,
          "comma separated place counts"),
         (("--reps",), "reps", int, 3, False, "repetitions per size"),
         (("--seed",), "seed", int, 0, False, "generator seed")],
    ),
}

_HELP = (("-h", "--help"), None, None, False, False,
         "show this help message and exit")


class _Help(Exception):
    """``--help`` was asked for; ``args[0]`` names the command, or is
    None for the top level."""


def _name(option: tuple) -> str:
    return "/".join(option[0])


def _classify(token: str, flags: dict[str, tuple]) -> tuple | None:
    """None for a positional, else (option, flag, attached value), with
    option None for a flag that no option has. Raises _UsageError for a
    prefix of several long flags."""
    if token[:1] != "-":
        return None
    if token in flags:
        return flags[token], token, None
    if len(token) == 1:
        return None
    flag, equals, value = token.partition("=")
    if equals and flag in flags:
        return flags[flag], flag, value
    if token[1] == "-":  # a unique prefix of a long flag, as in --out=x
        matches = [long for long in flags if long.startswith(flag)]
        value = value if equals else None
    else:  # a short flag with its value attached, as in -ox
        matches = [token[:2]] if token[:2] in flags else []
        value = token[2:]
    if len(matches) > 1:
        raise _UsageError(f"ambiguous option: {token} could match "
                          f"{', '.join(matches)}")
    if matches:
        return flags[matches[0]], matches[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or text with a space
    return None, token, None


def _option_at(argv: list[str], at: int, kinds: list,
               flags: dict[str, tuple]) -> tuple[list, int]:
    """The (option, value) pairs that the known option at ``argv[at]``
    sets, and the index after it. Letters attached to a single dash flag
    that takes no value, as in ``-hh``, are further flags."""
    option, flag, attached = kinds[at]
    found = []
    while attached is not None:
        if option[2] is not None:
            return [*found, (option, attached)], at + 1
        if flag[1] == "-" or not attached or f"-{attached[0]}" not in flags:
            raise _UsageError(f"argument {_name(option)}: ignored explicit "
                              f"argument {attached!r}")
        found.append((option, None))
        flag = f"-{attached[0]}"
        option, attached = flags[flag], attached[1:] or None
    if option[2] is None:
        return [*found, (option, None)], at + 1
    if at + 1 < len(kinds) and kinds[at + 1] is None:
        return [*found, (option, argv[at + 1])], at + 2
    raise _UsageError(f"argument {_name(option)}: expected one argument")


def _parse_command(name: str, argv: list[str],
                   extras: list[str]) -> SimpleNamespace:
    """Read a command's arguments into their dests, adding to ``extras``
    what no argument takes."""
    _, _, positionals, options = _COMMANDS[name]
    flags = {flag: option for option in (_HELP, *options)
             for flag in option[0]}
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(token, flags) for token in argv[:end]]
    args = SimpleNamespace(
        command=name, **dict.fromkeys(dest for dest, _ in positionals),
        **{option[1]: option[3] for option in options})
    waiting = [dest for dest, _ in positionals]
    given = set()
    last = max((at for at, kind in enumerate(kinds) if kind), default=-1)
    at = 0
    while at <= last:  # options, and the positionals between them
        if kinds[at] is None and waiting:
            setattr(args, waiting.pop(0), argv[at])
            at += 1
        elif kinds[at] is None or kinds[at][0] is None:  # nothing takes it
            extras.append(argv[at])
            at += 1
        else:
            found, at = _option_at(argv, at, kinds, flags)
            for option, value in found:
                _, dest, convert = option[:3]
                if dest is None:
                    raise _Help(name)
                given.add(dest)
                try:
                    setattr(args, dest,
                            True if convert is None else convert(value))
                except ValueError:
                    raise _UsageError(
                        f"argument {_name(option)}: invalid "
                        f"{convert.__name__} value: {value!r}") from None
    # The rest are positionals. The first "--" in them goes when it falls
    # before the last positional taken or right after it.
    values = [i for i in range(at, len(argv)) if i != end][:len(waiting)]
    for i in values:
        setattr(args, waiting.pop(0), argv[i])
    stop = values[-1] + 1 if values else at
    if values and stop == end:
        stop += 1
    extras += argv[stop:]
    missing = waiting + [_name(option) for option in options
                         if option[4] and option[1] not in given]
    if missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing))
    return args


def _parse(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` as argparse 3.10-3.12 reads the same command line,
    with argparse's messages, into the command's name in ``command`` and
    each argument in its dest. One difference: every word after the first
    ``--``, a further ``--`` included, is a positional. Raises _Help for
    ``-h``/``--help``, _UsageError for anything malformed."""
    flags = {flag: _HELP for flag in _HELP[0]}
    kinds = []  # the options before the command
    for token in argv:
        kind = token != "--" and _classify(token, flags)
        if not kind:
            break
        kinds.append(kind)
    extras: list[str] = []
    for at, kind in enumerate(kinds):
        if kind[0] is None:
            extras.append(argv[at])
        else:  # -h or --help, unless letters follow that are no flag
            _option_at(argv, at, kinds, flags)
            raise _Help(None)
    at = len(kinds)
    if at == len(argv) or argv[at:] == ["--"]:
        raise _UsageError("the following arguments are required: command")
    if argv[at] not in _COMMANDS:
        raise _UsageError(
            f"argument command: invalid choice: {argv[at]!r} (choose from "
            f"{', '.join(map(repr, _COMMANDS))})")
    args = _parse_command(argv[at], argv[at + 1:], extras)
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _usage(name: str | None = None) -> str:
    if name is None:
        return f"usage: pn2sc [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positionals, options = _COMMANDS[name]
    words = ["usage: pn2sc", name, "[-h]"]
    for flags, dest, convert, _, required, _ in options:
        word = flags[0] if convert is None else f"{flags[0]} {dest.upper()}"
        words.append(word if required else f"[{word}]")
    return " ".join(words + [dest for dest, _ in positionals])


def _help(name: str | None) -> str:
    if name is None:
        rows = [(command, row[1]) for command, row in _COMMANDS.items()]
        # the docstring's first two paragraphs: the commands and exit codes
        about = "\n\n".join((__doc__ or "").split("\n\n")[:2])
        return "\n".join([_usage(), "", about, "",
                          "commands:", *_columns(rows), "",
                          "options:", *_columns([("-h, --help",
                                                  _HELP[5])])])
    _, about, positionals, options = _COMMANDS[name]
    lines = [_usage(name), "", about, ""]
    if positionals:
        lines += ["positional arguments:", *_columns(positionals), ""]
    rows = []
    for flags, dest, convert, default, _, text in (_HELP, *options):
        shown = flags if convert is None else [f"{flag} {dest.upper()}"
                                               for flag in flags]
        if convert is not None and default is not None:
            text = f"{text} (default: {default})"
        rows.append((", ".join(shown), text))
    return "\n".join(lines + ["options:", *_columns(rows)])


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {right}" for left, right in rows]


def main(argv: list[str] | None = None) -> int:
    # The pipeline builds no reference cycles, so the cyclic collector
    # would only walk its growing lists again and again. It is turned
    # back on afterwards for callers that run main() in their own process.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parse(list(sys.argv[1:] if argv is None else argv))
        except _Help as shown:  # printed here, where a failed write is caught
            sys.stdout.write(_help(shown.args[0]) + "\n")
            code = EX_OK
        else:
            code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return EX_USAGE
    except BrokenPipeError:  # on stdout: an -o write fails as DocumentError
        # Nobody reads standard output any more: exit as a process killed
        # by SIGPIPE would, and let the interpreter's last flush go nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EX_BROKEN_PIPE
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


def run() -> None:
    """Run ``main()`` on ``sys.argv`` and exit with its code, without the
    exit-time collection of every object the process holds."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
