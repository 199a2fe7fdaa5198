from __future__ import annotations

import json
import sys
import threading
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_DIR,
    PARTNER_CHANGES,
    build_net,
    chain_document,
    corpus_entry,
    json_nodes,
    load_corpus,
    mutated_statechart,
    nested_fork_join_net,
    net_document,
    reference_statechart_bytes,
    rotated_ors,
    shuffled_net,
    statechart_cases,
)
from pn2sc import io as scio
from pn2sc.flat import transform_net
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



_PLACES = [{"id": "a", "name": "a"}, {"id": "b", "name": "b"}]


def _transition(**fields) -> list[dict]:
    """Transition t from a to b, with ``fields`` changed; a field given as
    ``...`` is left out."""
    entry = {"id": "t", "name": "t", "pre": ["a"], "post": ["b"], **fields}
    return [{k: v for k, v in entry.items() if v is not ...}]


def _net(places=_PLACES, transitions=None) -> str:
    """A net with places a and b and, unless given, transition t."""
    return json.dumps({"places": places,
                       "transitions": transitions or _transition()})


@pytest.mark.parametrize("data, message", [
    (_net(places=["a"]), "place must be an object"),
    (_net(transitions=[["a"]]), "transition must be an object"),
    (_net(places=[{"id": "a", "name": "a", "x": 1}]),
     "place has unknown fields: ['x']"),
    (_net(transitions=_transition(guard=True)),
     "transition has unknown fields: ['guard']"),
    (_net(places=[{"id": "a"}]), "place is missing fields: ['name']"),
    (_net(transitions=_transition(post=...)),
     "transition is missing fields: ['post']"),
    (_net(places=[{"id": 1, "name": "a"}]), "place id must be a string"),
    (_net(places=[{"id": "a", "name": None}]),
     "place name must be a string"),
    (_net(transitions=_transition(id=["t"])),
     "transition id must be a string"),
    (_net(transitions=_transition(name=0)), "name must be a string"),
    (_net(transitions=_transition(pre=[0])),
     "entry of pre of 't' must be a string"),
    (_net(transitions=_transition(post=["b", ["a"]])),
     "entry of post of 't' must be a string"),
    (_net(transitions=_transition(pre="a")), "pre of 't' must be a list"),
    (_net(transitions=_transition(post={"b": 1})),
     "post of 't' must be a list"),
    (_net(places=_PLACES + [{"id": "a", "name": "c"}]), "duplicate id 'a'"),
    (_net(transitions=_transition(id="b")), "duplicate id 'b'"),
    (_net(transitions=_transition() * 2), "duplicate id 't'"),
    (_net(transitions=_transition(pre=["a", "a"])),
     "duplicate pre entry on 't'"),
    (_net(transitions=_transition(post=["b", "a", "b"])),
     "duplicate post entry on 't'"),
    (_net(transitions=_transition(post=["z"])),
     "transition 't' references unknown place 'z'"),
    # With several faults in one entry, the first check names the error.
    (_net(transitions=_transition(id=1, pre="a")),
     "transition id must be a string"),
    (_net(transitions=_transition(name=0, post=["z"])),
     "transition 't' references unknown place 'z'"),
    (_net(transitions=_transition(pre=["z", "z"])),
     "duplicate pre entry on 't'"),
    (_net(transitions=_transition(pre=["z"], post=[3])),
     "entry of post of 't' must be a string"),
    (_net(places=_PLACES + [{"id": "a", "name": 5}]), "duplicate id 'a'"),
    (_net(transitions=_transition() + _transition(pre="a")),
     "duplicate id 't'"),
    (_net(transitions=_transition(pre=["z"], post="b")),
     "post of 't' must be a list"),
    (_net(transitions=_transition(pre=["z"], post=["b", "b"])),
     "transition 't' references unknown place 'z'"),
    (_net(transitions=_transition(pre=[{"id": "a"}])),
     "entry of pre of 't' must be a string"),
], ids=lambda value: None if isinstance(value, str) and value[:1] == "{"
   else value)
def test_malformed_petri_net_entry_message(data, message):
    with pytest.raises(scio.DocumentError) as info:
        scio.parse_petri_net(data)
    assert str(info.value) == message


def _chain_statechart():
    return create_statechart(
        scio.store_from_petri_net(corpus_entry("chain").net)
    )


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


@pytest.mark.parametrize("targets", [[True], [1, False], ["3"], [3.0], "3"])
def test_next_must_be_a_list_of_integers(targets):
    data = (GOLDEN_DIR / "chain.statechart.json").read_bytes()
    doc = json.loads(data)
    edge = next(node for node, _ in json_nodes(doc)
                if node["kind"] == "HyperEdge")
    edge["next"] = targets
    with pytest.raises(scio.DocumentError, match="next must be a list"):
        scio.parse_statechart(json.dumps(doc))


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
        lambda: shuffled_net(generate_sp_net(GenSpec(400, 7)), seed=7),
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


def test_chunks_join_to_the_golden_bytes():
    for fx in load_corpus():
        if fx.expected is None:
            continue
        golden = (GOLDEN_DIR / f"{fx.name}.statechart.json").read_bytes()
        doc, _ = transform_net(fx.net)
        assert b"".join(scio.statechart_document_chunks(doc)) == golden


_REDUCIBLE_NETS = (
    st.builds(lambda places, seed: generate_sp_net(GenSpec(places, seed)),
              st.integers(1, 300), st.integers(0, 2 ** 32))
    | st.builds(nested_fork_join_net, st.integers(1, 30))
    | st.builds(nested_fork_join_net, st.integers(1, 8), st.integers(1, 8))
)


@given(net=_REDUCIBLE_NETS, max_bytes=st.integers(1, 4096))
@settings(max_examples=80, deadline=None)
def test_chunks_join_to_the_reference_bytes(net, max_bytes):
    doc, result = transform_net(net)
    assert result.ok
    reference = reference_statechart_bytes(doc)
    assert b"".join(scio.statechart_document_chunks(doc)) == reference
    assert scio.statechart_document_to_bytes(doc) == reference
    # small bounds split even these nets at many places
    with mock.patch.object(scio, "_CHUNK_BYTES", max_bytes):
        chunks = list(scio.statechart_document_chunks(doc))
    assert all(chunks)
    assert b"".join(chunks) == reference
    # A chunk is cut before the node or closing bracket that would take it
    # past the bound, so it holds less than the bound plus one of those,
    # and a node is at most one line per field.
    node_text = (8 + max(map(len, doc.links))) * (
        max(map(len, reference.split(b"\n"))) + 1)
    counts_text = len(reference) - reference.rindex(b',\n  "counts"')
    for chunk in chunks[:-1]:
        assert len(chunk) <= max_bytes + node_text
    assert len(chunks[-1]) <= max_bytes + node_text + counts_text


def test_chunks_of_a_deep_spine_stay_near_the_bound():
    # too deep for the json.dumps reference; the bytes are checked above
    doc, _ = transform_net(nested_fork_join_net(300))
    chunks = list(scio.statechart_document_chunks(doc))
    text = b"".join(chunks)
    assert len(text) > 20 * scio._CHUNK_BYTES
    # One node's text is its opening line, its uid, kind and name lines,
    # one line per next target and two around them, its children line and
    # its closing line; no line is longer than the longest of the file.
    longest_line = max(map(len, text.split(b"\n"))) + 1
    node_text = (8 + max(map(len, doc.links))) * longest_line
    assert max(map(len, chunks)) <= scio._CHUNK_BYTES + node_text


def test_chunks_of_a_wide_hyperedge_stay_near_the_bound():
    # A fork of 5 000 parallel places: the forking HyperEdge is one node
    # of 5 000 next targets, some 15 000 pieces.
    width = 5000
    branches = [f"b{i}" for i in range(width)]
    doc, result = transform_net(net_document(
        ["s", "e", *branches], [("t0", ["s"], branches),
                                ("t1", branches, ["e"])]))
    assert result.ok
    assert max(map(len, doc.links)) == width
    reference = scio.statechart_document_to_bytes(doc)
    chunks = list(scio.statechart_document_chunks(doc))
    assert len(chunks) > 1
    assert b"".join(chunks) == reference == reference_statechart_bytes(doc)
    longest_line = max(map(len, reference.split(b"\n"))) + 1
    node_text = (8 + width) * longest_line
    counts_text = len(reference) - reference.rindex(b',\n  "counts"')
    assert max(map(len, chunks[:-1])) <= scio._CHUNK_BYTES + node_text
    assert len(chunks[-1]) <= scio._CHUNK_BYTES + node_text + counts_text


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
            scio.store_from_petri_net(shuffled_net(net, seed))
        )
        assert scio.write_statechart(shuffled, shuffled_result) == data
        assert validate_full(shuffled, sc).passed


@pytest.mark.parametrize("name, data", statechart_cases(),
                         ids=[name for name, _ in statechart_cases()])
def test_store_flattens_back_to_the_document(name, data):
    # Written files read back to the same bytes, and a store built from a
    # document lays out as that document: same node numbers, lists and
    # ranks. The store's elements are numbered in node order, so its uids
    # map back to the document's.
    assert scio.statechart_document_to_bytes(scio.parse_statechart(data)) == (
        data
    )
    for change in PARTNER_CHANGES:
        partner = mutated_statechart(data, change, seed=1)
        if partner is None:
            continue
        doc = scio.parse_statechart(partner)
        store = scio.store_from_statechart(doc)
        flat = scio._store_document(store)
        assert [doc.uids[eid] for eid in flat.uids] == doc.uids
        assert (flat.kinds, flat.names, flat.children, flat.links) == (
            doc.kinds, doc.names, doc.children, doc.links)
        assert scio.rank_statecharts(store) == scio.rank_statecharts(doc)


def test_parse_numbers_nodes_breadth_first():
    doc = scio.parse_statechart(
        (GOLDEN_DIR / "fork_join.statechart.json").read_bytes()
    )
    assert doc.kinds[:4] == ["Statechart", "AND", "OR", "AND"]
    assert [list(kids) for kids in doc.children[:4]] == [
        [1], [2], [3, 4, 5, 6, 7], [8, 9],
    ]
    assert doc.uids[:4] == [0, 1, 2, 3]
    assert sorted(doc.uids) == list(range(len(doc.uids)))
    edge = doc.kinds.index("HyperEdge")
    assert [doc.kinds[t] for t in doc.links[edge]] == ["Basic", "Basic"]
    assert doc.count_of_kind(ElementKind.BASIC) == 4
    assert doc.kinds.count("Basic") == 4
    assert doc.count_of_kind(ElementKind.PLACE) == 0
    store = scio.store_from_statechart(doc)
    for kind in ElementKind:
        assert doc.count_of_kind(kind) == store.count_of_kind(kind), kind


def _hand_built(kinds: list[str],
                children: list) -> scio.StatechartDocument:
    return scio.StatechartDocument(
        list(range(len(kinds))), kinds, [""] * len(kinds), children,
        [()] * len(kinds))


@pytest.mark.parametrize("doc", [
    # the top AND lists the Statechart as its child
    _hand_built(["Statechart", "AND"], [range(1, 2), [0]]),
    # numbered in preorder: the second OR's Basic comes before it
    _hand_built(["Statechart", "AND", "OR", "Basic", "Basic", "OR", "Basic"],
                [range(1, 2), [2, 5], range(3, 5), (), (), [6], ()]),
    # the AND names Basic 2 twice and Basic 3 not at all
    _hand_built(["Statechart", "AND", "Basic", "Basic"],
                [range(1, 2), [2, 2], (), ()]),
    # negative numbers, which would index nodes 2 and 3 from the end
    _hand_built(["Statechart", "AND", "Basic", "Basic"],
                [range(1, 2), [-2, -1], (), ()]),
], ids=["cyclic", "preorder", "child-twice", "negative"])
def test_documents_not_numbered_depth_by_depth_are_rejected(doc):
    good = scio.parse_statechart(
        (GOLDEN_DIR / "fork_join.statechart.json").read_bytes())
    calls = [
        lambda: scio.rank_statecharts(doc),
        lambda: scio.rank_statecharts(good, doc),
        lambda: scio.rank_statecharts(doc, good),
        lambda: scio.canonical_document(doc),
        lambda: validate_full(doc, doc),
        lambda: validate_full(good, doc),
    ]
    for call in calls:
        started = time.perf_counter()
        with pytest.raises(scio.DocumentError,
                           match="not numbered depth by depth"):
            call()
        assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("doc", [
    chain_document(2),
    rotated_ors(3, 1),
    rotated_ors(4, 2, ("x", "x")),
    _hand_built(["Statechart", "AND", "OR", "OR", "Basic", "Basic", "Basic"],
                [range(1, 2), range(2, 4), range(4, 6), range(6, 7),
                 (), (), ()]),
], ids=["chain2", "rotated3", "rotated4-shared", "two-ors"])
def test_hand_built_documents_read_back_as_written(doc):
    # A document holds no counts of its own, so the writer's counts are
    # its tree's and the reader takes the file back.
    assert scio.parse_statechart(scio.statechart_document_to_bytes(doc)) == (
        doc)


@pytest.mark.parametrize("children, links, fault", [
    ([range(1, 2), range(2, 3), ()], [(), (), (99,)], "links"),
    ([range(1, 2), range(2, 3), ()], [(), (), (-1,)], "links"),
    ([range(1, 2), range(2, 3), ()], [(), (), (True,)], "links"),
    ([range(1, 2), range(2, 3), ()], [(), (), (2.0,)], "links"),
    ([range(1, 2), [2.0], ()], [(), (), ()], "children"),
    ([range(1, 2), [True], ()], [(), (), ()], "children"),
], ids=["past-the-end", "negative", "bool", "float", "float-child",
        "bool-child"])
def test_ranking_rejects_links_and_children_that_are_not_node_numbers(
        children, links, fault):
    kinds = ["Statechart", "AND", "Basic"]
    doc = scio.StatechartDocument([0, 1, 2], kinds, ["", "", "p"],
                                  children, links)
    good = scio.parse_statechart(
        (GOLDEN_DIR / "fork_join.statechart.json").read_bytes())
    # the same three nodes with sound children and links
    clean = scio.StatechartDocument([0, 1, 2], kinds, ["", "", "p"],
                                    [range(1, 2), range(2, 3), ()],
                                    [(), (), ()])
    for call in (lambda: scio.canonical_document(doc),
                 lambda: validate_full(doc, doc),
                 lambda: validate_full(good, doc),
                 lambda: validate_full(clean, doc),
                 lambda: validate_full(doc, clean)):
        with pytest.raises(scio.DocumentError,
                           match=f"document {fault} must be int node"):
            call()


def test_deep_document_is_read_with_the_recursion_limit_unchanged():
    # JSON nested about 1 200 deep: past what json.loads reads under the
    # default recursion limit before Python 3.13
    doc = chain_document(600)
    data = scio.statechart_document_to_bytes(doc)
    limits = sys.getrecursionlimit(), threading.stack_size()
    assert scio.parse_statechart(data) == doc
    # the fallback reports what it finds past where json.loads stopped
    with pytest.raises(scio.DocumentError, match="JSON parse error"):
        scio.parse_statechart(data[:-100])
    nesting = 100_001  # past any bound of the json module: read, then checked
    with pytest.raises(scio.DocumentError, match="document must be an object"):
        scio.parse_statechart("[" * nesting + "]" * nesting)
    assert (sys.getrecursionlimit(), threading.stack_size()) == limits


def test_text_nested_past_100_000_levels_is_read():
    nesting = 200_000
    value = scio._decode("[" * nesting + "]" * nesting)
    unwrapped = 0
    while value:  # unwrapped by hand: == on it would recurse
        (value,) = value
        unwrapped += 1
    assert value == [] and unwrapped == nesting - 1
    # a statechart 50 001 levels deep is JSON 100 004 deep; indented, it
    # would run to terabytes, so it is written compactly
    depth = 50_001
    doc = chain_document(depth)
    heads = "".join(f'{{"uid":{node},"kind":"{kind}","name":"","children":['
                    for node, kind in enumerate(doc.kinds[:depth]))
    leaf = f'{{"uid":{depth},"kind":"Basic","name":"","children":[],"next":[]}}'
    text = ('{"root":' + heads + leaf + "]}" * depth
            + ',"counts":' + json.dumps(scio.kind_counts(doc.kinds)) + "}")
    assert scio.parse_statechart(text) == doc


def _chunked(data: bytes, size: int) -> list[bytes]:
    return [data[at:at + size] for at in range(0, len(data), size)]


def _dumped(value: object, indent: int | str | None, ascii_only: bool,
            crlf: bool) -> bytes:
    text = json.dumps(value, indent=indent, ensure_ascii=ascii_only)
    if crlf:  # a raw line break occurs only between tokens
        text = text.replace("\n", "\r\n")
    return text.encode("utf-8")


_LAYOUTS = dict(indent=st.sampled_from((None, 1, 2, "\t")),
                ascii_only=st.booleans(), crlf=st.booleans(),
                size=st.integers(1, 7))
_NAMES = st.text(max_size=6) | st.sampled_from(
    ["two words", "  lead", "trail  ", "a\nb", "\n  indented", 'say "hi"',
     "back\\slash", "café", "漢字", " "])
_SCHART_NETS = (
    st.builds(lambda places, seed: generate_sp_net(GenSpec(places, seed)),
              st.integers(1, 40), st.integers(0, 2 ** 32))
    | st.builds(nested_fork_join_net, st.integers(1, 6))
)


@given(net=_SCHART_NETS, names=st.data(), **_LAYOUTS)
@settings(max_examples=150, deadline=None)
def test_text_without_indentation_parses_to_the_same_document(
        net, names, indent, ascii_only, crlf, size):
    doc, _ = transform_net(net)
    value = json.loads(scio.statechart_document_to_bytes(doc))
    for node, _ in json_nodes(value):
        node["name"] = names.draw(_NAMES)
    data = _dumped(value, indent, ascii_only, crlf)
    text = scio.statechart_text(_chunked(data, size))
    assert text == scio.statechart_text([data])
    if indent is None:  # one line, with nothing to drop
        assert text == data
    assert b"\n " not in text
    assert text.count(b"\n") == data.count(b"\n")
    assert scio.parse_statechart(text) == scio.parse_statechart(data)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | _NAMES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_NAMES, inner, max_size=4)),
    max_leaves=12,
)


@given(value=_JSON_VALUES, **_LAYOUTS)
@settings(max_examples=300, deadline=None)
def test_text_without_indentation_loads_to_the_same_value(
        value, indent, ascii_only, crlf, size):
    data = _dumped(value, indent, ascii_only, crlf)
    assert json.loads(scio.statechart_text(_chunked(data, size))) == (
        json.loads(data)
    )


def _same_json(left: object, right: object) -> bool:
    """``left == right`` for values from json.loads, walked with a list so
    that deep values compare, and with NaN equal to NaN."""
    pairs = [(left, right)]
    while pairs:
        left, right = pairs.pop()
        if type(left) is not type(right):
            return False
        if type(left) is list:
            if len(left) != len(right):
                return False
            pairs.extend(zip(left, right))
        elif type(left) is dict:
            if list(left) != list(right):
                return False
            pairs.extend((left[key], right[key]) for key in left)
        elif left != right and not (left != left and right != right):
            return False
    return True


def _outcome(load, text: str) -> tuple[str, object]:
    try:
        return "value", load(text)
    except json.JSONDecodeError as exc:
        return "rejected", (exc.msg, exc.pos)
    except ValueError:  # an integer over the digit limit
        return "unreadable", None


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers(-10 ** 80, 10 ** 80)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3) | _NAMES, inner,
                                     max_size=4)),
    max_leaves=16,
)
#: The characters an edit puts in, and a digit run past Python's limit
_EDIT_CHARS = st.sampled_from(sorted(set(
    '{}[],:"0123456789-.eE \t\n\r' + "truefalsenullNaNInfinity"))
    + ["1" * 4400])


@st.composite
def _edited_json(draw) -> str:
    """A JSON value as ``json.dumps`` lays it out, with up to three edits,
    each of which inserts, deletes or replaces one character."""
    text = json.dumps(draw(_ANY_JSON),
                      indent=draw(st.sampled_from((None, 0, 1, 2, "\t"))),
                      ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char, cut = draw(st.sampled_from(
            [("", 1), (draw(_EDIT_CHARS), 0), (draw(_EDIT_CHARS), 1)]))
        text = text[:at] + char + text[at + cut:]
    return text


@given(text=_edited_json())
@settings(max_examples=2000, deadline=None)
def test_iterative_fallback_reads_as_json_loads_does(text):
    expected = _outcome(json.loads, text)
    actual = _outcome(scio._loads_iteratively, text)
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] == "value":
        assert _same_json(actual[1], expected[1])
    else:
        assert actual == expected


def _loaded(data: bytes) -> tuple[bool, object]:
    try:
        return True, json.loads(data)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return False, None


@given(data=st.lists(st.sampled_from(
    [b" ", b"\n", b"\r", b"\t", b'"', b"\\", b"n", b"1", b"-", b"[", b"]",
     b"{", b"}", b":", b",", b"true", b"\xc3\xa9", b"\xc3"]), max_size=24
).map(b"".join), size=st.integers(1, 7))
@settings(max_examples=500, deadline=None)
def test_text_without_indentation_accepts_exactly_what_json_accepts(data,
                                                                    size):
    assert _loaded(scio.statechart_text(_chunked(data, size))) == (
        _loaded(data)
    )


def test_a_line_break_inside_a_name_is_still_rejected():
    data = (GOLDEN_DIR / "chain.statechart.json").read_bytes()
    assert data.count(b'"name": "P1"') == 1
    broken = data.replace(b'"name": "P1"', b'"name": "P\n    1"')
    text = scio.statechart_text(_chunked(broken, 3))
    assert b'"P\n1"' in text
    for raw in (broken, text):
        with pytest.raises(scio.DocumentError,
                           match="Invalid control character"):
            scio.parse_statechart(raw)


def test_reading_a_deep_spine_holds_neither_its_indentation_nor_its_bytes(
        tmp_path):
    path = tmp_path / "spine300.json"
    doc, _ = transform_net(nested_fork_join_net(300))
    with open(path, "wb") as handle:
        handle.writelines(scio.statechart_document_chunks(doc))
    del doc
    assert path.stat().st_size > 23 << 20
    tracemalloc.start()
    try:
        with open(path, "rb") as handle:
            text = scio.statechart_text(
                iter(lambda: handle.read(scio._CHUNK_BYTES), b"")
            )
        read = scio.parse_statechart(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.count_of_kind(ElementKind.BASIC) == 3 * 300 + 1
    assert peak < 5 << 20, peak
