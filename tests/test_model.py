from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_net
from pn2sc.io import ElementKind
from store_reference import LivenessError, ModelError, ModelStore

P = ElementKind.PLACE
T = ElementKind.TRANSITION
B = ElementKind.BASIC
OR = ElementKind.OR
AND = ElementKind.AND
H = ElementKind.HYPER_EDGE
SC = ElementKind.STATECHART


def test_create_assigns_monotonic_ids():
    store = ModelStore()
    first = store.create(P, "P1")
    second = store.create(T, "T1")
    assert first == 0
    assert second == 1
    assert store.kind_of(first) is P
    assert store.name_of(first) == "P1"


def test_kind_fixed_and_empty_name_allowed():
    store = ModelStore()
    eid = store.create(OR, "")
    assert store.kind_of(eid) is OR
    assert store.name_of(eid) == ""


def test_create_takes_a_kind_name_and_nothing_else():
    store = ModelStore()
    eid = store.create("OR")
    assert store.kind_of(eid) == OR
    assert store.all_of_kind(OR) == [eid]
    for kind in ("Foo", None):
        with pytest.raises(ModelError,
                           match=f"^not an element kind: {kind!r}$"):
            store.create(kind)
    assert store.count_of_kind(OR) == 1


def test_ids_not_reused_after_delete():
    store = ModelStore()
    first = store.create(P)
    store.delete(first)
    second = store.create(P)
    assert second > first


def test_add_ref_maintains_opposite():
    sc = ModelStore()
    basic = sc.create(B, "b")
    edge = sc.create(H, "h")
    sc.add_ref(basic, "next", edge)
    assert sc.refs(edge, "rnext") == (basic,)


def test_add_ref_is_duplicate_free():
    sc = ModelStore()
    o = sc.create(OR)
    basic = sc.create(B, "b")
    sc.add_ref(o, "contains", basic)
    sc.add_ref(o, "contains", basic)
    assert sc.refs(o, "contains") == (basic,)


def test_single_valued_replacement_detaches_old_container():
    sc = ModelStore()
    o1 = sc.create(OR)
    o2 = sc.create(OR)
    basic = sc.create(B, "b")
    sc.set_ref(basic, "rcontains", o1)
    sc.set_ref(basic, "rcontains", o2)
    assert sc.refs(o1, "contains") == ()
    assert sc.refs(o2, "contains") == (basic,)
    assert sc.ref(basic, "rcontains") == o2


def test_containment_steal_via_contains_side():
    sc = ModelStore()
    o1 = sc.create(OR)
    o2 = sc.create(OR)
    basic = sc.create(B)
    sc.add_ref(o1, "contains", basic)
    sc.add_ref(o2, "contains", basic)
    assert sc.refs(o1, "contains") == ()
    assert sc.ref(basic, "rcontains") == o2


def test_illegal_slot_and_target_kind_rejected():
    store = ModelStore()
    place = store.create(P)
    other = store.create(P)
    transition = store.create(T)
    with pytest.raises(ModelError):
        store.add_ref(place, "contains", other)
    with pytest.raises(ModelError):
        store.add_ref(place, "pret", other)  # target must be a Transition
    store.add_ref(place, "pret", transition)


def test_delete_clears_incoming_references():
    pn, ids = build_net(["P1"], [("T1", ["P1"], [])])
    pn.delete(ids["T1"])
    assert pn.refs(ids["P1"], "postt") == ()


def test_delete_place_shrinks_transition_postp():
    # frozen from a hand-trace of the parallel-collapse deletion step
    pn, ids = build_net(["P1", "P2"], [("T1", [], ["P1", "P2"])])
    assert pn.refs(ids["T1"], "postp") == (ids["P1"], ids["P2"])
    pn.delete(ids["P2"])
    assert pn.refs(ids["T1"], "postp") == (ids["P1"],)


def test_dead_access_raises():
    store = ModelStore()
    eid = store.create(P)
    store.delete(eid)
    with pytest.raises(LivenessError):
        store.delete(eid)
    with pytest.raises(LivenessError):
        store.kind_of(eid)
    with pytest.raises(LivenessError):
        store.refs(eid, "pret")


def test_ref_to_dead_element_rejected():
    store = ModelStore()
    place = store.create(P)
    transition = store.create(T)
    store.delete(transition)
    with pytest.raises(LivenessError):
        store.add_ref(place, "pret", transition)


def test_all_of_kind_ascending_and_filtered():
    store = ModelStore()
    assert store.all_of_kind(T) == []
    t1 = store.create(T, "T1")
    t2 = store.create(T, "T2")
    store.create(P, "P1")
    store.delete(t1)
    assert store.all_of_kind(T) == [t2]


def test_refs_as_set_is_order_insensitive():
    pn1, ids1 = build_net(["P"], [("T1", [], ["P"]), ("T2", [], ["P"])])
    pn2, ids2 = build_net(["P"], [("T2", [], ["P"]), ("T1", [], ["P"])])
    set1 = pn1.refs_as_set(ids1["P"], "pret")
    assert set1 == {ids1["T1"], ids1["T2"]}
    assert pn1.refs_as_set(pn1.create(P), "pret") == frozenset()
    # fork: both places feed the same transition
    pn3, ids3 = build_net(["P1", "P2"], [("T", ["P1", "P2"], [])])
    assert pn3.refs_as_set(ids3["T"], "prep") == {ids3["P1"], ids3["P2"]}


def test_remove_ref_detaches_both_sides():
    sc = ModelStore()
    basic = sc.create(B)
    edge = sc.create(H)
    sc.add_ref(edge, "next", basic)
    sc.remove_ref(edge, "next", basic)
    assert sc.refs(edge, "next") == ()
    assert sc.refs(basic, "rnext") == ()
    with pytest.raises(ModelError):
        sc.remove_ref(edge, "next", basic)


def test_topstate_cleared_when_target_deleted():
    sc = ModelStore()
    chart = sc.create(SC)
    top = sc.create(AND)
    sc.set_ref(chart, "topState", top)
    sc.delete(top)
    assert sc.ref(chart, "topState") is None
    sc.check_invariants()


def test_containment_cycle_rejected():
    sc = ModelStore()
    outer = sc.create(OR)
    inner = sc.create(AND)
    sc.add_ref(outer, "contains", inner)
    with pytest.raises(ModelError):
        sc.add_ref(inner, "contains", outer)
    with pytest.raises(ModelError):
        sc.add_ref(outer, "contains", outer)


@st.composite
def net_edit_scripts(draw):
    """A small net plus a random sequence of arc edits and deletions."""
    n_places = draw(st.integers(1, 5))
    n_transitions = draw(st.integers(0, 5))
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["arc_in", "arc_out", "del_p", "del_t"]),
                st.integers(0, n_places - 1),
                st.integers(0, max(n_transitions - 1, 0)),
            ),
            max_size=25,
        )
    )
    return n_places, n_transitions, edits


@given(net_edit_scripts())
@settings(max_examples=60)
def test_random_edit_scripts_keep_invariants(script):
    n_places, n_transitions, edits = script
    store = ModelStore()
    places = [store.create(P, f"p{i}") for i in range(n_places)]
    transitions = [store.create(T, f"t{i}") for i in range(n_transitions)]
    for action, pi, ti in edits:
        if not transitions:
            break
        place, transition = places[pi], transitions[ti]
        if action == "arc_in" and store.is_live(place) and store.is_live(transition):
            store.add_ref(transition, "postp", place)
        elif action == "arc_out" and store.is_live(place) and store.is_live(transition):
            store.add_ref(transition, "prep", place)
        elif action == "del_p" and store.is_live(place):
            store.delete(place)
        elif action == "del_t" and store.is_live(transition):
            store.delete(transition)
    store.check_invariants()
    live = store.all_of_kind(P)
    assert live == sorted(live)
