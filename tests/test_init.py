from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_net, element_named, kind_counts
from pn2sc.init import initialize_statechart
from pn2sc.model import ElementKind

B = ElementKind.BASIC
H = ElementKind.HYPER_EDGE


def test_chain_place_rule_wiring():
    pn, ids = build_net(
        ["P1", "P2"], [("T1", ["P1"], ["P2"])]
    )
    sc, or_of_place = initialize_statechart(pn)
    o1 = or_of_place[ids["P1"]]
    b1 = element_named(sc, B, "P1")
    edge = element_named(sc, H, "T1")
    assert sc.kind_of(o1) is ElementKind.OR
    assert sc.name_of(b1) == "P1"
    assert sc.refs(o1, "contains") == (b1,)
    assert sc.refs_as_set(b1, "next") == {edge}
    assert sc.refs_as_set(b1, "rnext") == frozenset()
    # the other side of the arc
    b2 = element_named(sc, B, "P2")
    assert sc.refs_as_set(edge, "next") == {b2}
    assert sc.refs_as_set(edge, "rnext") == {b1}


def test_isolated_place_has_no_links():
    pn, _ = build_net(["P"], [])
    sc, _ = initialize_statechart(pn)
    basic = element_named(sc, B, "P")
    assert sc.refs(basic, "next") == ()
    assert sc.refs(basic, "rnext") == ()


def test_hyperedge_named_after_transition():
    pn, _ = build_net(["P"], [("t1", ["P"], [])])
    sc, _ = initialize_statechart(pn)
    (edge,) = sc.all_of_kind(H)
    assert sc.name_of(edge) == "t1"
    assert sc.kind_of(edge) is ElementKind.HYPER_EDGE


def test_empty_net():
    pn, _ = build_net([], [])
    sc, or_of_place = initialize_statechart(pn)
    assert kind_counts(sc) == {kind.value: 0 for kind in ElementKind}
    assert or_of_place == {}


def test_fork_wiring():
    pn, _ = build_net(
        ["P0", "P1", "P2"], [("T1", ["P0"], ["P1", "P2"])]
    )
    sc, _ = initialize_statechart(pn)
    edge = element_named(sc, H, "T1")
    expected = {element_named(sc, B, "P1"), element_named(sc, B, "P2")}
    assert sc.refs_as_set(edge, "next") == expected


def test_isolated_transition_still_gets_hyperedge():
    pn, _ = build_net(["P"], [("T", [], [])])
    sc, _ = initialize_statechart(pn)
    edge = element_named(sc, H, "T")
    assert sc.refs(edge, "next") == ()
    assert sc.refs(edge, "rnext") == ()


def test_creation_order():
    # p0 first sees t2 as a producer and t1 as a consumer; t3 is a self-loop
    # on p1; t5 only consumes; t0 and t4 touch no place
    pn, ids = build_net(
        ["p0", "p1", "p2", "p3"],
        [
            ("t0", [], []),
            ("t1", ["p0"], ["p2"]),
            ("t2", ["p1"], ["p0"]),
            ("t3", ["p1"], ["p1"]),
            ("t4", [], []),
            ("t5", ["p3"], []),
            ("t6", ["p2"], ["p1", "p3"]),
        ],
    )
    sc, or_of_place = initialize_statechart(pn)
    created = sorted(
        eid for kind in ElementKind for eid in sc.all_of_kind(kind)
    )
    elements = [(eid, sc.kind_of(eid).value, sc.name_of(eid)) for eid in created]
    assert elements == [
        (0, "OR", ""), (1, "Basic", "p0"), (2, "HyperEdge", "t2"),
        (3, "HyperEdge", "t1"), (4, "OR", ""), (5, "Basic", "p1"),
        (6, "HyperEdge", "t3"), (7, "HyperEdge", "t6"), (8, "OR", ""),
        (9, "Basic", "p2"), (10, "OR", ""), (11, "Basic", "p3"),
        (12, "HyperEdge", "t5"), (13, "HyperEdge", "t0"),
        (14, "HyperEdge", "t4"),
    ]
    for or_state, basic in ((0, 1), (4, 5), (8, 9), (10, 11)):
        assert sc.refs(or_state, "contains") == (basic,)
        assert sc.ref(basic, "rcontains") == or_state
    links = {
        eid: (sc.refs(eid, "next"), sc.refs(eid, "rnext"))
        for eid in created
        if sc.kind_of(eid) is not ElementKind.OR
    }
    assert links == {
        1: ((3,), (2,)),
        2: ((1,), (5,)),
        3: ((9,), (1,)),
        5: ((2, 6), (6, 7)),
        6: ((5,), (5,)),
        7: ((5, 11), (9,)),
        9: ((7,), (3,)),
        11: ((12,), (7,)),
        12: ((), (11,)),
        13: ((), ()),
        14: ((), ()),
    }
    assert or_of_place == {
        ids["p0"]: 0, ids["p1"]: 4, ids["p2"]: 8, ids["p3"]: 10
    }


@st.composite
def random_nets(draw):
    n_places = draw(st.integers(0, 6))
    n_transitions = draw(st.integers(0, 6))
    place_names = [f"p{i}" for i in range(n_places)]
    transitions = []
    for i in range(n_transitions):
        pre = draw(st.sets(st.sampled_from(place_names), max_size=n_places)
                   ) if n_places else set()
        post = draw(st.sets(st.sampled_from(place_names), max_size=n_places)
                    ) if n_places else set()
        transitions.append((f"t{i}", sorted(pre), sorted(post)))
    return place_names, transitions


@given(random_nets())
@settings(max_examples=80)
def test_count_law_and_arc_bijection(net):
    place_names, transition_specs = net
    pn, ids = build_net(place_names, transition_specs)
    sc, or_of_place = initialize_statechart(pn)
    assert sc.count_of_kind(ElementKind.OR) == len(place_names)
    assert sc.count_of_kind(ElementKind.BASIC) == len(place_names)
    assert sc.count_of_kind(ElementKind.HYPER_EDGE) == len(transition_specs)
    # arcs map one-to-one onto next/rnext links
    for tname, pre, post in transition_specs:
        edge = element_named(sc, H, tname)
        assert sc.refs_as_set(edge, "rnext") == {
            element_named(sc, B, p) for p in pre
        }
        assert sc.refs_as_set(edge, "next") == {
            element_named(sc, B, p) for p in post
        }
    # every Basic sits in exactly one OR and nothing else is contained
    for pname in place_names:
        basic = element_named(sc, B, pname)
        or_state = or_of_place[ids[pname]]
        assert sc.ref(basic, "rcontains") == or_state
        assert sc.refs(or_state, "contains") == (basic,)
        assert sc.ref(or_state, "rcontains") is None
    sc.check_invariants()
