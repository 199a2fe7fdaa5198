"""The command line parser of ``pn2sc.cli`` against the argparse parser it
replaced, which ``cli_reference`` keeps verbatim.

Argument lists are drawn from the CLI's own table: the commands, every
flag and its prefixes, attached values, ``--``, ``-h``, numbers and junk.
Both parsers must accept, reject or ask for help alike, and when both
accept, fill every dest with the same value.
"""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cli_reference
from pn2sc import cli
from pn2sc.cli import main

_COMMAND_NAMES = list(cli._COMMANDS)
_FLAGS = sorted({flag for _, _, _, options in cli._COMMANDS.values()
                 for option in (cli._HELP, *options) for flag in option[0]})
_PREFIXES = sorted({flag[:end] for flag in _FLAGS if flag.startswith("--")
                    for end in range(3, len(flag))})
_NUMBERS = st.integers(-3, 12).map(str) | st.sampled_from(
    ["2.5", "-0.5", ".5", "-.5", "1e3", "-1e3", "nan", "-inf", " 5", "1_0"])
_JUNK = st.sampled_from(
    ["x", "a.json", "", "-", "-x", "--x", "-1x", "x y", "-x y", "=",
     "frobnicate", "--=", "--=x", "-o-", "-oo"])
_WORD = st.sampled_from(_COMMAND_NAMES) | _NUMBERS | _JUNK
_FLAG = st.sampled_from(_FLAGS + _PREFIXES)
# "-h" with letters attached, and "-=": argparse 3.13 reads these
# differently from 3.10-3.12, whose reading the parser keeps. A value
# attached as "=--" is left out too: 3.10-3.12 turn it into an empty
# list, which no command can use; the parser keeps the text "--".
_ATTACHED = (st.tuples(_FLAG, _WORD).map("=".join)
             | st.tuples(st.sampled_from(["-o"]), _WORD).map("".join))
if sys.version_info < (3, 13):
    _ATTACHED |= (st.tuples(st.just("-h"), _WORD | _FLAG).map("".join)
                  | st.sampled_from(["-=", "-=x", "-h=", "-hh"]))
_TOKEN = _FLAG | _WORD | _ATTACHED


@st.composite
def _argvs(draw) -> list[str]:
    """Tokens before the command, the command (mostly a real one), and
    tokens after it, among which at most one ``--``: argparse 3.10-3.12
    turn a second ``--`` into an empty list and 3.13 skips a ``--`` before
    the command."""
    before = draw(st.lists(_FLAG | _JUNK | _ATTACHED, max_size=2))
    command = draw(st.sampled_from(_COMMAND_NAMES) | _WORD)
    after = draw(st.lists(_TOKEN, max_size=7))
    if draw(st.booleans()):
        after.insert(draw(st.integers(0, len(after))), "--")
    return [*before, command, *after][:draw(st.integers(0, 10))]


@st.composite
def _command_lines(draw) -> list[str]:
    """A command with a word for each positional and each option given
    zero to two times (required ones mostly once or more), as a flag or
    one of its prefixes, its value separate, after ``=`` or attached,
    in any order; sometimes with a ``--`` or a junk word put in."""
    name = draw(st.sampled_from(_COMMAND_NAMES))
    _, _, positionals, options = cli._COMMANDS[name]
    pieces = [[draw(_WORD)] for _ in positionals]
    for flags, _, convert, _, required, _ in options:
        for _ in range(draw(st.integers(0, 2)) or (required and draw(
                st.integers(0, 9)) > 0)):
            flag = draw(st.sampled_from(flags))
            if flag.startswith("--"):
                flag = flag[:draw(st.integers(3, len(flag)))]
            if convert is None:
                pieces.append([flag])
                continue
            value = draw(_WORD if convert is str else _NUMBERS)
            form = draw(st.sampled_from(["apart", "=", "attached"]))
            if form == "apart":
                pieces.append([flag, value])
            elif form == "=" or flag.startswith("--"):
                pieces.append([f"{flag}={value}"])
            else:
                pieces.append([flag + value])
    argv = [token for piece in draw(st.permutations(pieces))
            for token in piece]
    for extra in draw(st.lists(st.sampled_from(["--"]) | _JUNK,
                               max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return [name, *argv]


def _reads_otherwise_on_313(argv: list[str]) -> bool:
    """argparse 3.13 reports an ambiguous prefix only when it reaches it,
    so a help request before it wins; 3.10-3.12 report it first."""
    tokens = argv[:argv.index("--")] if "--" in argv else argv
    longs = [flag for flag in _FLAGS if flag.startswith("--")]
    ambiguous = any(
        token.startswith("--") and sum(
            flag.startswith(token.partition("=")[0]) for flag in longs) > 1
        for token in tokens)
    helps = any(token == "-h"
                or (len(token) > 2 and "--help".startswith(token))
                for token in tokens)
    return ambiguous and helps


def _decision(parse, argv: list[str], usage_error: type,
              help_request: type) -> tuple:
    try:
        with redirect_stdout(StringIO()):
            args = parse(list(argv))
    except help_request:
        return ("help",)
    except usage_error:
        return ("error",)
    return ("accept", repr(sorted(vars(args).items())))


def _reference(argv: list[str]) -> tuple:
    return _decision(cli_reference._build_parser().parse_args, argv,
                     cli_reference._UsageError, SystemExit)


def _ours(argv: list[str]) -> tuple:
    return _decision(cli._parse, argv, cli._UsageError, cli._Help)


@given(_argvs() | _command_lines())
@settings(max_examples=800, deadline=None)
def test_parser_decides_as_argparse(argv):
    if sys.version_info >= (3, 13):
        assume(not _reads_otherwise_on_313(argv))
    assert _ours(argv) == _reference(argv)


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["transform"],
     "the following arguments are required: input, -o/--output"),
    (["generate", "-o", "x"], "the following arguments are required: "
     "--places"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
     "(choose from 'transform', 'validate', 'generate', 'bench')"),
    (["validate", "a", "b", "c", "--x"], "unrecognized arguments: c --x"),
    (["--x", "validate", "a", "b"], "unrecognized arguments: --x"),
    (["generate", "--places", "ten"],
     "argument --places: invalid int value: 'ten'"),
    (["generate", "--places", "5", "--parallel-prob", "half"],
     "argument --parallel-prob: invalid float value: 'half'"),
    (["transform", "in.json", "-o"],
     "argument -o/--output: expected one argument"),
    (["transform", "in.json", "--output", "--", "out"],
     "argument -o/--output: expected one argument"),
    (["bench", "--s", "5"],
     "ambiguous option: --s could match --sizes, --seed"),
    (["generate", "--p=5"],
     "ambiguous option: --p=5 could match --places, --parallel-prob"),
    (["validate", "a", "b", "--counts-only=1"],
     "argument --counts-only: ignored explicit argument '1'"),
    (["-hx"], "argument -h/--help: ignored explicit argument 'x'"),
])
def test_usage_error_wording(argv, message, capsys):
    assert main(argv) == 64
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: {message}",
        "usage: pn2sc [-h] {transform,validate,generate,bench} ...",
    ]


@pytest.mark.parametrize("argv, values", [
    (["transform", "-o", "out", "in"], {"input": "in", "output": "out"}),
    (["transform", "in", "--output=out"], {"input": "in", "output": "out"}),
    (["transform", "in", "-oout"], {"input": "in", "output": "out"}),
    (["transform", "in", "--out", "a", "-o", "b"],
     {"input": "in", "output": "b"}),
    (["validate", "a", "--counts", "b"],
     {"actual": "a", "expected": "b", "counts_only": True}),
    (["validate", "--counts-only", "--", "-a", "-b"],
     {"actual": "-a", "expected": "-b", "counts_only": True}),
    (["validate", "a", "--", "--"],
     {"actual": "a", "expected": "--", "counts_only": False}),
    (["generate", "--places=5", "--seed", "-1", "--parallel-prob", "-.5"],
     {"places": 5, "seed": -1, "branch_factor_max": 4,
      "parallel_prob": -0.5, "output": None}),
    (["bench"], {"sizes": "5000,10000,40000", "reps": 3, "seed": 0}),
])
def test_accepted_forms(argv, values):
    assert vars(cli._parse(argv)) == {"command": argv[0], **values}
