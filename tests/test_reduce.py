from __future__ import annotations

import time

import pytest
from hypothesis import given, settings

from helpers import (
    arbitrary_nets,
    assert_single_tree,
    build_net,
    corpus_entry,
    differential_nets,
    disjoint_union,
    element_named,
    nca_oracle,
    nested_fork_join_net,
    net_document,
    scan_fixpoint,
)
from pn2sc.init import initialize_statechart
from pn2sc.io import PetriNetDocument, store_from_petri_net, write_statechart
from pn2sc.model import ElementKind
from pn2sc.reduce import (
    AndFiring,
    OrFiring,
    ReductionError,
    ReductionStatus,
    Side,
    and_rule,
    assign_hyperedges,
    create_statechart,
    create_top,
    fixpoint,
    or_rule,
    run_rounds,
)

P = ElementKind.PLACE
T = ElementKind.TRANSITION
B = ElementKind.BASIC
OR = ElementKind.OR
AND = ElementKind.AND
H = ElementKind.HYPER_EDGE
SC = ElementKind.STATECHART

FORK_JOIN = (
    ["P0", "P1", "P2", "P3"],
    [("T1", ["P0"], ["P1", "P2"]), ("T2", ["P1", "P2"], ["P3"])],
)


def initialized(places, transitions):
    pn, ids = build_net(places, transitions)
    sc, or_of_place = initialize_statechart(pn)
    return pn, sc, or_of_place, ids


class TestAndRule:
    def test_parallel_collapse_on_post_side(self):
        pn, sc, or_of_place, ids = initialized(*FORK_JOIN)
        or_p1 = or_of_place[ids["P1"]]
        or_p2 = or_of_place[ids["P2"]]
        assert and_rule(pn, sc, Side.POST, or_of_place) is True
        assert not pn.is_live(ids["P2"])
        assert pn.refs(ids["T1"], "postp") == (ids["P1"],)
        assert pn.refs(ids["T2"], "prep") == (ids["P1"],)
        new_or = or_of_place[ids["P1"]]
        assert new_or != or_p1
        (new_and,) = sc.refs(new_or, "contains")
        assert sc.kind_of(new_and) is AND
        assert sc.refs(new_and, "contains") == (or_p1, or_p2)

    def test_pre_side_matches_at_join(self):
        pn, sc, or_of_place, ids = initialized(*FORK_JOIN)
        assert and_rule(pn, sc, Side.PRE, or_of_place) is True
        assert not pn.is_live(ids["P2"])
        assert pn.is_live(ids["P1"])

    def test_single_place_side_is_no_match(self):
        pn, sc, or_of_place, _ = initialized(
            ["P1", "P2"], [("T1", ["P1"], ["P2"])])
        assert and_rule(pn, sc, Side.PRE, or_of_place) is False
        assert and_rule(pn, sc, Side.POST, or_of_place) is False
        assert pn.count_of_kind(P) == 2

    def test_differing_pre_transition_sets_block_match(self):
        pn, sc, or_of_place, ids = initialized(
            ["P1", "P2"],
            [("Ta", [], ["P1"]), ("Tb", [], ["P2"]), ("T", ["P1", "P2"], [])],
        )
        assert and_rule(pn, sc, Side.PRE, or_of_place) is False
        assert pn.count_of_kind(P) == 2
        assert pn.count_of_kind(T) == 3

    def test_firing_delta(self):
        pn, sc, or_of_place, _ = initialized(*FORK_JOIN)
        before = (sc.count_of_kind(OR), sc.count_of_kind(AND),
                  pn.count_of_kind(P), pn.count_of_kind(T))
        events = []
        and_rule(pn, sc, Side.PRE, or_of_place, events.append)
        assert events == [AndFiring(transition=pn.all_of_kind(T)[-1],
                                    side=Side.PRE, merged_places=2)]
        after = (sc.count_of_kind(OR), sc.count_of_kind(AND),
                 pn.count_of_kind(P), pn.count_of_kind(T))
        k = events[0].merged_places
        assert after == (before[0] + 1, before[1] + 1,
                         before[2] - (k - 1), before[3])


class TestOrRule:
    def test_sequence_collapse(self):
        pn, sc, or_of_place, ids = initialized(
            ["P1", "P2"], [("T1", ["P1"], ["P2"])])
        b1 = element_named(sc, B, "P1")
        b2 = element_named(sc, B, "P2")
        assert or_rule(pn, sc, or_of_place) is True
        assert pn.all_of_kind(P) == [ids["P1"]]
        assert pn.all_of_kind(T) == []
        assert pn.refs(ids["P1"], "pret") == ()
        assert pn.refs(ids["P1"], "postt") == ()
        merged_or = or_of_place[ids["P1"]]
        assert sc.refs_as_set(merged_or, "contains") == {b1, b2}
        assert sc.count_of_kind(OR) == 1

    def test_self_loop_identity_branch(self):
        pn, sc, or_of_place, ids = initialized(["P"], [("T", ["P"], ["P"])])
        basic = element_named(sc, B, "P")
        assert or_rule(pn, sc, or_of_place) is True
        assert pn.is_live(ids["P"])
        assert pn.all_of_kind(T) == []
        or_state = or_of_place[ids["P"]]
        assert sc.refs(or_state, "contains") == (basic,)
        assert sc.count_of_kind(OR) == 1

    def test_double_arc_pair_collapses_in_one_pass(self):
        # mechanically evaluated on the literal match condition: the lower
        # transition merges R into Q and turns the other transition into a
        # self-loop, which then fires via the identity branch
        pn, sc, or_of_place, ids = initialized(
            ["Q", "R"], [("T1", ["Q"], ["R"]), ("T2", ["Q"], ["R"])]
        )
        events = []
        assert or_rule(pn, sc, or_of_place, events.append) is True
        assert events == [
            OrFiring(ids["T1"], identity=False),
            OrFiring(ids["T2"], identity=True),
        ]
        assert pn.all_of_kind(P) == [ids["Q"]]
        assert pn.all_of_kind(T) == []
        assert sc.count_of_kind(OR) == 1

    def test_blocked_when_co_outputs_of_shared_producer(self):
        pn, sc, or_of_place, _ = initialized(
            ["Q", "R"], [("TF", [], ["Q", "R"]), ("T", ["Q"], ["R"])]
        )
        assert or_rule(pn, sc, or_of_place) is False
        assert pn.count_of_kind(P) == 2
        assert pn.count_of_kind(T) == 2

    def test_blocked_when_co_inputs_of_shared_consumer(self):
        pn, sc, or_of_place, _ = initialized(
            ["Q", "R"], [("TJ", ["Q", "R"], []), ("T", ["Q"], ["R"])]
        )
        assert or_rule(pn, sc, or_of_place) is False
        assert pn.count_of_kind(P) == 2
        assert pn.count_of_kind(T) == 2

    def test_merge_delta(self):
        pn, sc, or_of_place, _ = initialized(
            ["P1", "P2"], [("T1", ["P1"], ["P2"])])
        before = (sc.count_of_kind(OR), sc.count_of_kind(AND),
                  pn.count_of_kind(P), pn.count_of_kind(T))
        or_rule(pn, sc, or_of_place)
        after = (sc.count_of_kind(OR), sc.count_of_kind(AND),
                 pn.count_of_kind(P), pn.count_of_kind(T))
        assert after == (before[0] - 1, before[1], before[2] - 1, before[3] - 1)


class TestFixpoint:
    def test_already_reduced_net_is_stable(self):
        pn, sc, or_of_place, _ = initialized(["P"], [])
        events = []
        fixpoint(pn, sc, or_of_place, events.append)
        assert events == []

    @pytest.mark.parametrize("length", [2, 3, 7, 20])
    def test_chain_reduces_to_single_place(self, length):
        places = [f"P{i}" for i in range(length)]
        transitions = [
            (f"T{i}", [f"P{i}"], [f"P{i + 1}"]) for i in range(length - 1)
        ]
        pn, sc, or_of_place, _ = initialized(places, transitions)
        fixpoint(pn, sc, or_of_place)
        assert pn.count_of_kind(P) == 1
        assert pn.count_of_kind(T) == 0
        assert sc.count_of_kind(OR) == 1

    def test_fork_join_reduces_fully(self):
        pn, sc, or_of_place, _ = initialized(*FORK_JOIN)
        fixpoint(pn, sc, or_of_place)
        assert pn.count_of_kind(P) == 1
        assert pn.count_of_kind(T) == 0
        assert sc.count_of_kind(OR) == 3
        assert sc.count_of_kind(AND) == 1

    def test_live_places_stay_traced_to_live_top_level_ors(self):
        pn, sc, or_of_place, _ = initialized(*FORK_JOIN)
        fixpoint(pn, sc, or_of_place)
        for place in pn.all_of_kind(P):
            or_state = or_of_place[place]
            assert sc.is_live(or_state)
            assert sc.ref(or_state, "rcontains") is None


class TestCreateTop:
    def test_reduced_chain_gets_statechart_and_top(self):
        pn, sc, or_of_place, _ = initialized(
            ["P1", "P2"], [("T1", ["P1"], ["P2"])])
        fixpoint(pn, sc, or_of_place)
        result = create_top(pn, sc)
        assert result.status is ReductionStatus.SUCCESS
        assert result.statechart_root is not None
        assert sc.kind_of(result.statechart_root) is SC
        top = sc.ref(result.statechart_root, "topState")
        assert sc.kind_of(top) is AND
        (only_or,) = sc.refs(top, "contains")
        assert sc.kind_of(only_or) is OR

    def test_two_isolated_places_are_irreducible(self):
        pn, sc, or_of_place, _ = initialized(["P1", "P2"], [])
        fixpoint(pn, sc, or_of_place)
        result = create_top(pn, sc)
        assert result.status is ReductionStatus.IRREDUCIBLE
        assert result.statechart_root is None
        assert result.top_or_count == 2
        assert result.remaining_places == 2
        assert result.remaining_transitions == 0
        assert sc.count_of_kind(SC) == 0
        assert sc.count_of_kind(AND) == 0

    def test_empty_model_is_irreducible(self):
        pn, sc, or_of_place, _ = initialized([], [])
        result = create_top(pn, sc)
        assert result.status is ReductionStatus.IRREDUCIBLE
        assert result.top_or_count == 0


class TestAssignHyperedges:
    def test_chain_hyperedge_lands_in_merged_or(self):
        pn, sc, or_of_place, ids = initialized(
            ["P1", "P2"], [("T1", ["P1"], ["P2"])])
        edge = element_named(sc, H, "T1")
        fixpoint(pn, sc, or_of_place)
        assert create_top(pn, sc).ok
        assign_hyperedges(sc)
        assert sc.ref(edge, "rcontains") == or_of_place[ids["P1"]]

    def test_fork_join_hyperedges_land_in_outer_or(self):
        pn, sc, or_of_place, ids = initialized(*FORK_JOIN)
        e1 = element_named(sc, H, "T1")
        e2 = element_named(sc, H, "T2")
        fixpoint(pn, sc, or_of_place)
        assert create_top(pn, sc).ok
        assign_hyperedges(sc)
        outer = or_of_place[ids["P0"]]
        assert sc.ref(e1, "rcontains") == outer
        assert sc.ref(e2, "rcontains") == outer

    def test_single_member_uses_immediate_container(self):
        pn, sc, or_of_place, ids = initialized(
            ["P1", "P2"], [("T1", ["P1"], [])])
        edge = element_named(sc, H, "T1")
        # P2 is unconnected, so this net cannot reduce; connect it first
        pn.delete(ids["P2"])
        fixpoint(pn, sc, or_of_place)
        # drop the orphaned OR so exactly one top OR remains
        orphan = or_of_place[ids["P2"]]
        sc.delete(element_named(sc, B, "P2"))
        sc.delete(orphan)
        assert create_top(pn, sc).ok
        assign_hyperedges(sc)
        basic = element_named(sc, B, "P1")
        assert sc.ref(edge, "rcontains") == sc.ref(basic, "rcontains")

    def test_unconnected_hyperedge_goes_to_top(self):
        pn, sc, or_of_place, ids = initialized(["P"], [("T", [], [])])
        edge = element_named(sc, H, "T")
        fixpoint(pn, sc, or_of_place)
        result = create_top(pn, sc)
        assert result.ok
        assign_hyperedges(sc)
        top = sc.ref(result.statechart_root, "topState")
        assert sc.ref(edge, "rcontains") == top

    def test_requires_created_top(self):
        pn, sc, or_of_place, _ = initialized(["P1", "P2"], [])
        fixpoint(pn, sc, or_of_place)
        with pytest.raises(ReductionError):
            assign_hyperedges(sc)


class TestCreateStatechart:
    def test_chain_counts(self):
        pn = store_from_petri_net(corpus_entry("chain").net)
        sc, result = create_statechart(pn)
        assert result.ok
        counts = tuple(
            sc.count_of_kind(kind) for kind in (SC, AND, OR, B, H)
        )
        assert counts == (1, 1, 1, 2, 1)

    def test_fork_join_counts(self):
        pn, _ = build_net(*FORK_JOIN)
        sc, result = create_statechart(pn)
        assert result.ok
        counts = tuple(
            sc.count_of_kind(kind) for kind in (SC, AND, OR, B, H)
        )
        assert counts == (1, 2, 3, 4, 2)
        top = sc.ref(result.statechart_root, "topState")
        assert_single_tree(sc, top)

    def test_empty_net_is_irreducible(self):
        pn, _ = build_net([], [])
        _, result = create_statechart(pn)
        assert result.status is ReductionStatus.IRREDUCIBLE

    def test_conservation_of_basics_and_hyperedges(self):
        pn, _ = build_net(*FORK_JOIN)
        sc, or_of_place = initialize_statechart(pn)
        basics_before = sc.all_of_kind(B)
        edges_before = sc.all_of_kind(H)
        fixpoint(pn, sc, or_of_place)
        result = create_top(pn, sc)
        assert result.ok
        assign_hyperedges(sc)
        assert sc.all_of_kind(B) == basics_before
        assert sc.all_of_kind(H) == edges_before

    def test_determinism_byte_identical_output(self):
        runs = []
        for _ in range(2):
            pn, _ = build_net(*FORK_JOIN)
            sc, result = create_statechart(pn)
            runs.append(write_statechart(sc, result))
        assert runs[0] == runs[1]

    def test_nca_matches_bruteforce_oracle_on_fixtures(self):
        for net in (
            (["P1", "P2"], [("T1", ["P1"], ["P2"])]),
            (["P"], [("T", ["P"], ["P"])]),
            FORK_JOIN,
        ):
            pn, _ = build_net(*net)
            sc, result = create_statechart(pn)
            assert result.ok
            for edge in sc.all_of_kind(H):
                assert sc.ref(edge, "rcontains") == nca_oracle(sc, edge)


@given(arbitrary_nets())
@settings(max_examples=120, deadline=None)
def test_pipeline_on_arbitrary_nets(net):
    names, transitions = net
    pn, _ = build_net(names, transitions)
    sc, or_of_place = initialize_statechart(pn)
    events = []
    fixpoint(pn, sc, or_of_place, events.append)
    assert len(events) <= len(names) + len(transitions)
    result = create_top(pn, sc)
    # conservation regardless of outcome
    assert sc.count_of_kind(B) == len(names)
    assert sc.count_of_kind(H) == len(transitions)
    assert result.remaining_places == pn.count_of_kind(P)
    assert result.remaining_transitions == pn.count_of_kind(T)
    if result.ok:
        assign_hyperedges(sc)
        top = sc.ref(result.statechart_root, "topState")
        assert_single_tree(sc, top)
        for edge in sc.all_of_kind(H):
            assert sc.ref(edge, "rcontains") == nca_oracle(sc, edge)
    sc.check_invariants()
    pn.check_invariants()


def _reduced(reduce_net, net: PetriNetDocument):
    """Reduce ``net`` on a store pair with ``reduce_net``; return the firing
    events, the result and the written statechart (None when the net is
    irreducible)."""
    pn = store_from_petri_net(net)
    sc, or_of_place = initialize_statechart(pn)
    events = []
    reduce_net(pn, sc, or_of_place, events.append)
    result = create_top(pn, sc)
    if not result.ok:
        return events, result, None
    assign_hyperedges(sc)
    return events, result, write_statechart(sc, result)


def _assert_same_as_scan(net: PetriNetDocument) -> None:
    """The store worklist gives the scan's firing events, its result and its
    bytes; ``test_flat`` holds the flat core to the store route."""
    assert _reduced(fixpoint, net) == _reduced(scan_fixpoint, net)


@pytest.mark.parametrize("net", differential_nets())
def test_worklist_fires_like_the_scan(net):
    _assert_same_as_scan(net)


def _sweeps(starts, fires) -> list[tuple[str, int]]:
    """The checks ``run_rounds`` makes with two passes, a and b, from
    ``starts``; ``fires`` maps (pass, transition) to the marks a firing
    there gives passes a and b, and every other check fails."""
    calls = []

    def step(name):
        def check(transition):
            calls.append((name, transition))
            return fires.pop((name, transition), None)
        return check

    run_rounds((step("a"), step("b")), starts)
    return calls


def test_run_rounds_sweeps_each_pass_in_order():
    """Each pass checks its dirty transitions in ascending number, a mark
    for another pass is checked in that pass's next sweep, a mark for the
    running pass is dropped, and a round that fires nothing ends the run."""
    calls = _sweeps(((4, 2, 0, 1, 3, 5),) * 2, {
        ("a", 2): ((5, 1), (4, 1)),
        ("b", 4): ((3, 0), (2,)),
    })
    first_round = [(name, t) for name in "ab" for t in range(6)]
    assert calls == first_round + [("a", 0), ("a", 3)]


def test_run_rounds_starts_each_pass_from_its_own_set():
    """A pass's first sweep checks exactly its start and the marks other
    passes gave it, never a mark it gave itself."""
    calls = _sweeps(((5, 1, 3), {2, 0}), {
        ("a", 3): ((0,), (4, 1)),
        ("b", 1): ((2,), (3,)),
    })
    assert calls == [("a", 1), ("a", 3), ("a", 5),
                     ("b", 0), ("b", 1), ("b", 2), ("b", 4),
                     ("a", 2)]


def test_disjoint_spines_are_irreducible():
    net = disjoint_union(nested_fork_join_net(6), nested_fork_join_net(9))
    _, result, _ = _reduced(fixpoint, net)
    assert result.status is ReductionStatus.IRREDUCIBLE
    assert result.top_or_count == 2


@given(arbitrary_nets())
@settings(max_examples=200, deadline=None)
def test_worklist_fires_like_the_scan_on_arbitrary_nets(net):
    _assert_same_as_scan(net_document(*net))


def test_deep_spine_reduces_in_linear_time():
    pn = store_from_petri_net(nested_fork_join_net(1500))
    started = time.perf_counter()
    sc, result = create_statechart(pn)
    elapsed = time.perf_counter() - started
    assert result.ok
    assert elapsed < 10.0, f"depth-1500 spine took {elapsed:.1f} s"
    edges = sc.all_of_kind(H)
    sample = edges[:: max(1, len(edges) // 60)]
    assert len(sample) >= 50
    for edge in sample:
        assert sc.ref(edge, "rcontains") == nca_oracle(sc, edge)
