"""Run one pn2sc operation in-process, with a span around each library call.

    python3 perfbench/traced_op.py transform NET OUT SPANS
    python3 perfbench/traced_op.py validate ACTUAL EXPECTED SPANS

The calls, their order and the exit code are those of ``pn2sc transform``
and ``pn2sc validate``; validate additionally runs ``validate_counts``.
Spans (name, start, end, parent), counts and the peak RSS after each phase
stay in memory and are written to SPANS as JSON when the operation ends.
The interpreter's default recursion limit is kept, as in the CLI.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.rss_mb: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, phase: bool = False):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if phase:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.rss_mb[name.split(".", 1)[1]] = rss * 1024 / 1e6


def _elements(sc) -> int:
    from pn2sc.model import ElementKind

    return sum(sc.count_of_kind(kind) for kind in ElementKind)


def transform(tr: Tracer, net: str, out: str) -> int:
    with tr.span("cli.import"):
        import pn2sc.cli  # noqa: F401  (the CLI loads every module)
        from pn2sc import io as scio
        from pn2sc.init import initialize_statechart
        from pn2sc.reduce import (AndFiring, Side, assign_hyperedges,
                                  create_top, fixpoint)
    firings = dict.fromkeys(("and_pre", "and_post", "or_seq", "or_identity"),
                            0)

    def on_fire(firing) -> None:
        if isinstance(firing, AndFiring):
            firings["and_pre" if firing.side is Side.PRE else "and_post"] += 1
        else:
            firings["or_identity" if firing.identity else "or_seq"] += 1

    with tr.span("io.read_file"):
        data = Path(net).read_bytes()
    with tr.span("io.parse_petri_net", phase=True):
        doc = scio.parse_petri_net(data)
    with tr.span("io.store_from_petri_net", phase=True):
        pn = scio.store_from_petri_net(doc)
    with tr.span("init.initialize_statechart", phase=True):
        sc, trace = initialize_statechart(pn)
    tr.counts["init.sc_elements"] = _elements(sc)
    with tr.span("reduce.fixpoint", phase=True):
        fixpoint(pn, sc, trace, on_fire)
    tr.counts["reduce.sc_elements"] = _elements(sc)
    tr.counts.update({f"reduce.firings.{k}": v for k, v in firings.items()})
    with tr.span("reduce.create_top", phase=True):
        result = create_top(pn, sc)
    if not result.ok:
        return 2
    with tr.span("reduce.assign_hyperedges", phase=True):
        assign_hyperedges(sc)
    with tr.span("io.document_from_statechart", phase=True):
        sc_doc = scio.document_from_statechart(sc)
    with tr.span("io.statechart_document_to_bytes", phase=True):
        payload = scio.statechart_document_to_bytes(sc_doc)
    with tr.span("io.write_file"):
        Path(out).write_bytes(payload)
    return 0


def validate(tr: Tracer, actual: str, expected: str) -> int:
    with tr.span("cli.import"):
        import pn2sc.cli  # noqa: F401
        from pn2sc import io as scio
        from pn2sc.validate import validate_counts, validate_full
    stores = []
    for path in (actual, expected):
        with tr.span("io.read_file"):
            data = Path(path).read_bytes()
        with tr.span("io.parse_statechart", phase=True):
            doc = scio.parse_statechart(data)
        with tr.span("io.store_from_statechart", phase=True):
            stores.append(scio.store_from_statechart(doc))
    with tr.span("validate.validate_full", phase=True):
        report = validate_full(*stores)
    with tr.span("validate.validate_counts"):
        validate_counts(*stores)
    tr.counts["validate.discrepancies"] = len(report.discrepancies)
    return 0 if report.passed else 1


def main(argv: list[str]) -> int:
    command, first, second, spans_path = argv
    tr = Tracer()
    with tr.span(f"op.{command}"):
        run = transform if command == "transform" else validate
        code = run(tr, first, second)
    Path(spans_path).write_text(json.dumps(
        {"spans": tr.spans, "counts": tr.counts, "rss_mb": tr.rss_mb}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
