"""The argparse command line that ``pn2sc.cli``'s own parser replaced,
kept verbatim as the oracle of ``test_cli_parser.py``: on the same argv
both must accept, reject or ask for help alike, and fill the same dests.
"""

from __future__ import annotations

import argparse


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
