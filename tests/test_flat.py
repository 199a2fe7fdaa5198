"""The flat transform core against the store pipeline of
``store_reference``: same firings, same bytes, same irreducible counts;
and its writer against the reference ranking
(``rank_reference.written_bytes``)."""

from __future__ import annotations

import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank_reference
from helpers import (
    GOLDEN_DIR,
    arbitrary_nets,
    assert_schedule_free,
    choice_net,
    differential_nets,
    nested_fork_join_net,
    net_document,
    random_schedule,
    renamed,
)
from pn2sc.flat import FlatModel, transform_net
from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.io import (
    PetriNetDocument,
    kind_counts,
    parse_statechart,
    statechart_document_to_bytes,
)
from pn2sc.rank import canonical_document
from store_reference import (
    create_statechart,
    document_from_statechart,
    store_from_petri_net,
    write_statechart,
)


def _store_route(net: PetriNetDocument):
    events = []
    sc, result = create_statechart(store_from_petri_net(net), events.append)
    return events, result, write_statechart(sc, result) if result.ok else None


def _flat_route(net: PetriNetDocument):
    events = []
    doc, result = transform_net(net, events.append)
    return (events, result,
            statechart_document_to_bytes(doc) if doc is not None else None)


def _assert_same_as_store(net: PetriNetDocument) -> None:
    store_events, store_result, store_bytes = _store_route(net)
    flat_events, flat_result, flat_bytes = _flat_route(net)
    assert flat_events == store_events
    assert flat_result == store_result
    assert flat_bytes == store_bytes
    rank_reference.assert_written_as_reference(net)


@pytest.mark.parametrize("net", differential_nets())
def test_flat_core_fires_like_the_store(net):
    _assert_same_as_store(net)


@given(arbitrary_nets())
@settings(max_examples=200, deadline=None)
def test_flat_core_fires_like_the_store_on_arbitrary_nets(net):
    _assert_same_as_store(net_document(*net))


@given(arbitrary_nets(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_any_schedule_of_the_passes_and_sweeps_gives_the_same_result(
        net, one_name):
    net = net_document(*net)
    assert_schedule_free(renamed(net, "x") if one_name else net)


def test_a_random_schedule_reorders_the_firings():
    # Else the schedule tests would hold the shipped order to itself.
    net = generate_sp_net(GenSpec(300, 4))
    shipped = _flat_route(net)
    with random_schedule(0):
        shuffled = _flat_route(net)
    assert shuffled[0] != shipped[0]
    assert shuffled[2] == shipped[2]


@pytest.mark.parametrize("net", differential_nets())
def test_transforming_a_net_twice_leaves_it_and_its_arcs_as_they_were(net):
    # The model's live arcs share the tuples of its original arcs, and
    # ``cli.run_bench`` builds a model from one net once per repetition.
    before = copy.deepcopy(net)
    assert _flat_route(net) == _flat_route(net)
    assert net == before
    model = FlatModel(net)
    model.fixpoint()
    fresh = FlatModel(net)
    assert (model.pre, model.post) == (fresh.pre, fresh.post)


@pytest.mark.parametrize("net", [
    pytest.param(generate_sp_net(GenSpec(3000, 0)), id="sp3000-0"),
    pytest.param(generate_sp_net(GenSpec(3000, 1)), id="sp3000-1"),
    pytest.param(nested_fork_join_net(200), id="spine200"),
])
def test_writer_gives_the_reference_bytes_at_scale(net):
    rank_reference.assert_written_as_reference(net)


def test_counts_tally_the_tree_not_the_merged_ors():
    # An OR merge leaves the merged place's OR in the model's element
    # lists with no container; the counts object must not count it.
    model = FlatModel(choice_net(20))
    assert model.reduce().ok
    doc = model.document()
    assert model.kinds.count("OR") > doc.kinds.count("OR")
    data = statechart_document_to_bytes(doc)
    counts = json.loads(data)["counts"]
    tally = {key: 0 for key in counts}
    stack = [json.loads(data)["root"]]
    while stack:
        node = stack.pop()
        tally[node["kind"].lower()] += 1
        stack += node["children"]
    assert counts == tally == kind_counts(doc.kinds)


def test_choice_net_reduces_in_linear_time():
    net = choice_net(8000)
    started = time.perf_counter()
    doc, result = transform_net(net)
    elapsed = time.perf_counter() - started
    assert result.ok
    assert elapsed < 5.0, f"8000-branch choice net took {elapsed:.1f} s"
    assert doc.kinds.count("Basic") == len(net.places)
    assert doc.kinds.count("HyperEdge") == len(net.transitions)


def test_deep_spine_gives_the_store_route_document():
    net = nested_fork_join_net(1500)
    started = time.perf_counter()
    doc, result = transform_net(net)
    elapsed = time.perf_counter() - started
    assert result.ok
    assert elapsed < 5.0, f"depth-1500 spine took {elapsed:.1f} s"
    sc, store_result = create_statechart(store_from_petri_net(net))
    assert result == store_result
    assert doc == document_from_statechart(sc)


@pytest.mark.parametrize(
    "name", ["chain", "double_arc", "fork_join", "self_loop"])
def test_canonical_document_of_a_written_file_is_itself(name):
    data = (GOLDEN_DIR / f"{name}.statechart.json").read_bytes()
    doc = parse_statechart(data)
    assert statechart_document_to_bytes(canonical_document(doc)) == data
