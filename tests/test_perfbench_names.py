"""The names perfbench imports, called as perfbench calls them.

``pn2sc.model``, ``pn2sc.init``, ``pn2sc.reduce`` and five converters in
``pn2sc.io`` are kept only for perfbench, each a call into
``flat.FlatModel``. The call sequences below are those of perfbench's
``run._transform_in_process``, ``traced_op.transform`` and
``traced_op.validate``, copied, not imported, so a break fails here. The
traced transform must write what ``transform_net`` writes, and count the
statechart elements and fire the rules as the reference store does
(``store_reference``).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import store_reference
from helpers import (
    load_corpus,
    mutated_statechart,
    nested_fork_join_net,
    renamed,
)
from pn2sc.flat import transform_net
from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.io import (
    DocumentError,
    PetriNetDocument,
    parse_statechart,
    petri_net_to_bytes,
    statechart_document_to_bytes,
)
from pn2sc.validate import validate_counts, validate_full

FIRING_KEYS = ("and_pre", "and_post", "or_seq", "or_identity")


def _nets():
    for fx in load_corpus():
        yield pytest.param(fx.net, id=f"golden-{fx.name}")
    sp300 = generate_sp_net(GenSpec(300, 1))
    yield pytest.param(sp300, id="sp300")
    yield pytest.param(renamed(sp300, "x"), id="sp300-one-name")
    yield pytest.param(nested_fork_join_net(30, 12), id="spines30-12")


def _traced_transform(data: bytes, modules) -> tuple:
    """``traced_op.transform``'s calls on ``data`` through ``modules``
    (``scio``, ``initialize_statechart``, ``fixpoint``, ``create_top``,
    ``assign_hyperedges``, ``ElementKind``, ``AndFiring``, ``Side``): the
    element counts after init and after the fixpoint, the firings, their
    tally, the result and the bytes written (None when irreducible)."""
    (scio, initialize_statechart, fixpoint, create_top, assign_hyperedges,
     ElementKind, AndFiring, Side) = modules
    firings = []
    tally = dict.fromkeys(FIRING_KEYS, 0)

    def on_fire(firing) -> None:
        firings.append(firing)
        if isinstance(firing, AndFiring):
            tally["and_pre" if firing.side is Side.PRE else "and_post"] += 1
        else:
            tally["or_identity" if firing.identity else "or_seq"] += 1

    def elements(sc) -> int:
        return sum(sc.count_of_kind(kind) for kind in ElementKind)

    doc = scio.parse_petri_net(data)
    pn = scio.store_from_petri_net(doc)
    sc, trace = initialize_statechart(pn)
    counts = [elements(sc)]
    fixpoint(pn, sc, trace, on_fire)
    counts.append(elements(sc))
    result = create_top(pn, sc)
    if not result.ok:
        return counts, firings, tally, result, None
    assign_hyperedges(sc)
    sc_doc = scio.document_from_statechart(sc)
    return (counts, firings, tally, result,
            scio.statechart_document_to_bytes(sc_doc))


def _shipped_names():
    from pn2sc import io as scio
    from pn2sc.init import initialize_statechart
    from pn2sc.model import ElementKind
    from pn2sc.reduce import (AndFiring, Side, assign_hyperedges,
                              create_top, fixpoint)

    return (scio, initialize_statechart, fixpoint, create_top,
            assign_hyperedges, ElementKind, AndFiring, Side)


def _reference_names():
    from pn2sc import io as scio
    from pn2sc.flat import AndFiring, Side
    from pn2sc.io import ElementKind

    reference_io = SimpleNamespace(
        parse_petri_net=scio.parse_petri_net,
        statechart_document_to_bytes=scio.statechart_document_to_bytes,
        store_from_petri_net=store_reference.store_from_petri_net,
        document_from_statechart=store_reference.document_from_statechart)
    return (reference_io, store_reference.initialize_statechart,
            store_reference.fixpoint, store_reference.create_top,
            store_reference.assign_hyperedges, ElementKind, AndFiring, Side)


@pytest.mark.parametrize("net", _nets())
def test_traced_transform_runs_the_shipped_route(net: PetriNetDocument):
    data = petri_net_to_bytes(net)
    counts, firings, tally, result, written = _traced_transform(
        data, _shipped_names())
    want_counts, want_firings, want_tally, want_result, want_written = (
        _traced_transform(data, _reference_names()))
    assert counts == want_counts
    assert firings == want_firings
    assert tally == want_tally
    assert sum(tally.values()) == len(firings)
    assert tally["and_pre"] == sum(
        getattr(firing, "side", None) == "prep" for firing in firings)
    assert result == want_result
    assert written == want_written
    doc, flat_result = transform_net(net)
    assert result == flat_result
    assert written == (None if doc is None
                       else statechart_document_to_bytes(doc))


@pytest.mark.parametrize("net", _nets())
def test_set_up_transform_writes_the_shipped_bytes(net: PetriNetDocument):
    # ``run._transform_in_process``
    from pn2sc.io import read_petri_net, write_statechart
    from pn2sc.reduce import create_statechart

    sc, result = create_statechart(read_petri_net(petri_net_to_bytes(net)))
    doc, flat_result = transform_net(net)
    assert result == flat_result
    if doc is None:
        assert not result.ok
        with pytest.raises(DocumentError, match="irreducible"):
            write_statechart(sc, result)
        return
    assert write_statechart(sc, result) == statechart_document_to_bytes(doc)


def test_two_isolated_places_is_irreducible():
    (fx,) = [fx for fx in load_corpus() if fx.name == "two_isolated_places"]
    *_, result, written = _traced_transform(petri_net_to_bytes(fx.net),
                                            _shipped_names())
    assert not result.ok
    assert written is None


def _traced_validate(actual: bytes, expected: bytes) -> tuple:
    """``traced_op.validate``'s calls on two files' bytes: the full
    report, the counts report and the exit code."""
    from pn2sc import io as scio
    from pn2sc.validate import validate_counts, validate_full

    stores = [scio.store_from_statechart(scio.parse_statechart(data))
              for data in (actual, expected)]
    report = validate_full(*stores)
    counted = validate_counts(*stores)
    return report, counted, 0 if report.passed else 1


@pytest.mark.parametrize("net", _nets())
def test_traced_validate_reports_as_validate(net: PetriNetDocument):
    doc, _ = transform_net(net)
    if doc is None:
        return
    data = statechart_document_to_bytes(doc)
    for change in ("none", "reordered", "basic-renamed", "link-dropped"):
        partner = mutated_statechart(data, change, seed=1)
        if partner is None:
            continue
        for pair in ((partner, data), (data, partner)):
            docs = list(map(parse_statechart, pair))
            report, counted, code = _traced_validate(*pair)
            assert report == validate_full(*docs)
            assert counted == validate_counts(*docs)
            assert code == (0 if change in ("none", "reordered") else 1)
