from __future__ import annotations

import json
import random

import pytest

from helpers import (
    build_net,
    load_corpus,
    nested_fork_join_net,
    reference_statechart_bytes,
)
from pn2sc import io as scio
from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.model import ElementKind
from pn2sc.reduce import create_statechart
from pn2sc.validate import validate_full


def test_empty_document_round_trip():
    pn = scio.read_petri_net(b'{"places": [], "transitions": []}')
    assert pn.all_of_kind(ElementKind.PLACE) == []
    assert pn.all_of_kind(ElementKind.TRANSITION) == []


def test_chain_document_wiring():
    data = json.dumps({
        "places": [{"id": "P1", "name": "P1"}, {"id": "P2", "name": "P2"}],
        "transitions": [
            {"id": "T1", "name": "T1", "pre": ["P1"], "post": ["P2"]}
        ],
    })
    pn = scio.read_petri_net(data)
    (t1,) = pn.all_of_kind(ElementKind.TRANSITION)
    p1, p2 = pn.all_of_kind(ElementKind.PLACE)
    assert pn.refs(t1, "prep") == (p1,)
    assert pn.refs(t1, "postp") == (p2,)
    assert pn.name_of(p1) == "P1"


def test_unresolved_place_id_is_named_in_error():
    data = json.dumps({
        "places": [{"id": "P1", "name": "P1"}],
        "transitions": [
            {"id": "T1", "name": "T1", "pre": ["PX"], "post": []}
        ],
    })
    with pytest.raises(scio.DocumentError, match="PX"):
        scio.read_petri_net(data)


def test_duplicate_id_rejected():
    data = json.dumps({
        "places": [{"id": "P1", "name": "a"}, {"id": "P1", "name": "b"}],
        "transitions": [],
    })
    with pytest.raises(scio.DocumentError, match="duplicate"):
        scio.read_petri_net(data)


def test_parse_error_reports_position():
    with pytest.raises(scio.DocumentError, match="line 1"):
        scio.read_petri_net(b'{"places": [,]}')


def test_unknown_fields_rejected():
    data = json.dumps({"places": [], "transitions": [], "extra": 1})
    with pytest.raises(scio.DocumentError, match="unknown"):
        scio.read_petri_net(data)


def _chain_statechart():
    pn, _ = build_net(["P1", "P2"], [("T1", ["P1"], ["P2"])])
    return create_statechart(pn)


def test_write_statechart_counts():
    sc, result = _chain_statechart()
    doc = json.loads(scio.write_statechart(sc, result))
    assert doc["counts"] == {
        "statechart": 1, "and": 1, "or": 1, "basic": 2, "hyperedge": 1
    }


def test_write_is_deterministic():
    first = scio.write_statechart(*_chain_statechart())
    second = scio.write_statechart(*_chain_statechart())
    assert first == second


def test_write_refuses_irreducible_result():
    pn, _ = build_net(["P1", "P2"], [])
    sc, result = create_statechart(pn)
    assert not result.ok
    with pytest.raises(scio.DocumentError, match="irreducible"):
        scio.write_statechart(sc, result)


def test_round_trip_preserves_structure():
    sc, result = _chain_statechart()
    data = scio.write_statechart(sc, result)
    rebuilt = scio.read_statechart(data)
    assert validate_full(rebuilt, sc).passed
    # canonical writing is idempotent across a round trip
    assert scio.statechart_document_to_bytes(
        scio.document_from_statechart(rebuilt)
    ) == data


def test_read_accepts_non_canonical_child_order():
    sc, result = _chain_statechart()
    doc = json.loads(scio.write_statechart(sc, result))
    children = doc["root"]["children"][0]["children"][0]["children"]
    children.reverse()
    rebuilt = scio.read_statechart(json.dumps(doc))
    assert validate_full(rebuilt, sc).passed


def test_malformed_kind_rejected():
    sc, result = _chain_statechart()
    doc = json.loads(scio.write_statechart(sc, result))
    doc["root"]["kind"] = "Sketchchart"
    with pytest.raises(scio.DocumentError, match="kind"):
        scio.read_statechart(json.dumps(doc))


def test_counts_must_match_tree():
    sc, result = _chain_statechart()
    doc = json.loads(scio.write_statechart(sc, result))
    doc["counts"]["basic"] = 5
    with pytest.raises(scio.DocumentError, match="counts"):
        scio.read_statechart(json.dumps(doc))


def test_next_must_point_at_basics():
    sc, result = _chain_statechart()
    doc = json.loads(scio.write_statechart(sc, result))
    inner = doc["root"]["children"][0]["children"][0]["children"]
    edge = next(node for node in inner if node["kind"] == "HyperEdge")
    edge["next"] = [2]  # uid 2 is the OR state
    with pytest.raises(scio.DocumentError, match="not a Basic"):
        scio.read_statechart(json.dumps(doc))


def test_hand_written_expected_document_is_usable():
    text = """
    {
      "counts": {"statechart": 1, "and": 1, "or": 1, "basic": 2,
                 "hyperedge": 1},
      "root": {
        "uid": 7, "kind": "Statechart", "name": "", "children": [
          {"uid": 3, "kind": "AND", "name": "", "children": [
            {"uid": 11, "kind": "OR", "name": "", "children": [
              {"uid": 4, "kind": "HyperEdge", "name": "T1", "next": [1],
               "children": []},
              {"uid": 0, "kind": "Basic", "name": "P1", "next": [4],
               "children": []},
              {"uid": 1, "kind": "Basic", "name": "P2", "next": [],
               "children": []}
            ]}
          ]}
        ]
      }
    }
    """
    expected = scio.read_statechart(text)
    sc, _ = _chain_statechart()
    assert validate_full(sc, expected).passed


def _shuffled(doc: scio.PetriNetDocument, seed: int) -> scio.PetriNetDocument:
    rng = random.Random(seed)
    places, transitions = list(doc.places), list(doc.transitions)
    rng.shuffle(places)
    rng.shuffle(transitions)
    return scio.PetriNetDocument(tuple(places), tuple(transitions))


def _escape_net() -> scio.PetriNetDocument:
    """A fork/join block whose names need every kind of JSON escape."""
    names = ['quo"te', "back\\slash", "tab\there", "new\nline", "nul\x00",
             "Größe €", "emoji \U0001F600"]
    places = tuple(scio.PlaceSpec(f"p{i}", n) for i, n in enumerate(names))
    transitions = (
        scio.TransitionSpec("t0", 'fork "\\\t"', ("p0",), ("p1", "p2")),
        scio.TransitionSpec("t1", "join \n\x00", ("p1", "p2"), ("p3",)),
        scio.TransitionSpec("t2", "ß \U0001F680", ("p3",), ("p4",)),
        scio.TransitionSpec("t3", "", ("p4",), ("p5", "p6")),
    )
    return scio.PetriNetDocument(places, transitions)


def _writer_cases():
    for fx in load_corpus():
        if fx.expected is not None:
            yield pytest.param(lambda fx=fx: fx.net, id=f"fixture-{fx.name}")
    for places, seed in ((5, 0), (60, 1), (400, 2), (2000, 3)):
        yield pytest.param(
            lambda p=places, s=seed: generate_sp_net(GenSpec(p, s)),
            id=f"sp{places}_{seed}",
        )
    yield pytest.param(
        lambda: _shuffled(generate_sp_net(GenSpec(400, 7)), seed=7),
        id="sp400_7-shuffled",
    )
    for depth in (1, 10, 60, 200):
        yield pytest.param(
            lambda d=depth: nested_fork_join_net(d), id=f"spine{depth}"
        )
    yield pytest.param(_escape_net, id="escaped-names")


@pytest.mark.parametrize("make_net", _writer_cases())
def test_writer_bytes_match_json_dumps_reference(make_net):
    sc, result = create_statechart(scio.store_from_petri_net(make_net()))
    assert result.ok
    doc = scio.document_from_statechart(sc)
    assert scio.statechart_document_to_bytes(doc) == (
        reference_statechart_bytes(doc)
    )


def _order_cases():
    for places in (20, 100, 1000):
        for seed in (0, 1, 2):
            yield pytest.param(
                lambda p=places, s=seed: generate_sp_net(GenSpec(p, s)),
                id=f"sp{places}_{seed}",
            )
    yield pytest.param(lambda: nested_fork_join_net(12), id="spine12")
    yield pytest.param(lambda: nested_fork_join_net(8, 8), id="spines8x2")


@pytest.mark.parametrize("make_net", _order_cases())
def test_output_does_not_depend_on_input_order(make_net):
    net = make_net()
    sc, result = create_statechart(scio.store_from_petri_net(net))
    data = scio.write_statechart(sc, result)
    for seed in range(3):
        shuffled, shuffled_result = create_statechart(
            scio.store_from_petri_net(_shuffled(net, seed))
        )
        assert scio.write_statechart(shuffled, shuffled_result) == data
        assert validate_full(shuffled, sc).passed
