"""Every small net, not a sample of them, through the whole pipeline.

By the small-scope hypothesis (Jackson, *Software Abstractions*, 2006)
most faults show on small instances, and the AND and OR rules fire on
patterns of one to three places, so small nets reach every precondition
and every blocking case. ``small_nets`` enumerates every net up to a
bound and ``sweep`` checks each one twice: with unique names, and with
every place and every transition named alike (``renamed``). For each:

- the flat route fires what the store reference fires, in the same
  order, with the same result and the same bytes;
- ``rank_reference.canonical_document`` writes the store's document to
  those bytes too, so a change to the order in which
  ``canonical_document`` breaks ties between siblings of equal rank
  shows here, where both routes would share it;
- the writer gives the bytes of the model's breadth-first document
  through the reference ranking's ``canonical_document``, for the net and
  for a shuffled copy (``rank_reference.written_bytes``);
- the output validates against a copy with its uids relabelled and its
  children shuffled;
- every HyperEdge of the output maps configurations to configurations
  (``helpers.firing_faults``), a check of what AND and OR mean that
  rests on neither the rules nor the ranking;
- with unique names only, the bytes, or for an irreducible net the
  counts of places and transitions left, are the same under every order
  of the places and the transitions. With repeated names some nets give
  order-dependent bytes (see README, "Limits");
- the verdict and the counts left are the same under three random
  schedules of the reduction's passes and sweeps
  (``helpers.assert_schedule_free``), and so are the bytes with unique
  names; with repeated names the output validates against the shipped
  order's.

Tier-1 runs 3 places with at most 2 transitions. A wider bound runs as
a script, for instance::

    PYTHONPATH=src:tests python -c \\
        'from test_small_scope import sweep; print(sweep(3, 3))'
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)

import pytest

import rank_reference
from helpers import (
    assert_schedule_free,
    firing_faults,
    load_corpus,
    mutated_statechart,
    net_document,
    renamed,
)
from pn2sc.flat import transform_net
from pn2sc.io import (
    PetriNetDocument,
    StatechartDocument,
    parse_statechart,
    statechart_document_to_bytes,
)
from pn2sc.validate import validate_full
from store_reference import (
    _store_document,
    create_statechart,
    store_from_petri_net,
    write_statechart,
)


def small_nets(places: int,
               max_transitions: int) -> Iterator[PetriNetDocument]:
    """Every net with the places ``p0`` to ``p{places - 1}`` and one to
    ``max_transitions`` transitions ``t0``, ``t1``, ..., each with a
    non-empty pre-set and post-set. The transitions are taken as a
    multiset: nets that differ only in the order of their transitions
    are yielded once."""
    names = [f"p{i}" for i in range(places)]
    sides = [side for size in range(1, places + 1)
             for side in combinations(names, size)]
    arcs = list(product(sides, repeat=2))
    for size in range(1, max_transitions + 1):
        for chosen in combinations_with_replacement(arcs, size):
            yield net_document(names, [
                (f"t{i}", pre, post) for i, (pre, post) in enumerate(chosen)
            ])


def _outcome(net: PetriNetDocument) -> bytes | tuple[int, int]:
    """The bytes ``transform`` writes for ``net``, or the places and
    transitions left when it is irreducible."""
    doc, result = transform_net(net)
    if doc is None:
        return result.remaining_places, result.remaining_transitions
    return statechart_document_to_bytes(doc)


def check_net(net: PetriNetDocument, unique_names: bool) -> None:
    """Every check of the module docstring on one net."""
    store_events: list = []
    sc, store_result = create_statechart(store_from_petri_net(net),
                                         store_events.append)
    flat_events: list = []
    doc, flat_result = transform_net(net, flat_events.append)
    assert (flat_events, flat_result) == (store_events, store_result), net
    if doc is not None:
        data = statechart_document_to_bytes(doc)
        assert data == write_statechart(sc, store_result), net
        assert data == statechart_document_to_bytes(
            rank_reference.canonical_document(_store_document(sc))), net
        copy = mutated_statechart(data, "reordered", seed=len(data))
        assert validate_full(parse_statechart(copy),
                             parse_statechart(data)).passed, net
        assert firing_faults(doc) == [], net
    rank_reference.assert_written_as_reference(net)
    assert_schedule_free(net)
    if unique_names:
        outcome = _outcome(net)
        for places, transitions in product(permutations(net.places),
                                           permutations(net.transitions)):
            assert _outcome(PetriNetDocument(places, transitions)) == (
                outcome), net


def sweep(places: int, max_transitions: int) -> int:
    """Check every net of ``small_nets(places, max_transitions)``, with
    unique names and named alike; return how many nets there were."""
    nets = 0
    for net in small_nets(places, max_transitions):
        check_net(net, unique_names=True)
        check_net(renamed(net, "x"), unique_names=False)
        nets += 1
    return nets


def test_every_net_of_three_places_and_two_transitions():
    # 7 non-empty sides make 49 transitions: 49 nets of one transition
    # and 49 * 50 / 2 of two.
    assert sweep(3, 2) == 1274


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
def test_golden_hyperedges_fire_between_configurations(entry):
    if entry.expected is None:  # irreducible: no statechart to fire
        assert transform_net(entry.net)[0] is None
    else:
        assert firing_faults(entry.expected) == []


def _mutants(doc: StatechartDocument
             ) -> Iterator[tuple[str, StatechartDocument]]:
    """Each single change of one class to ``doc``, with its class: a
    state below the top AND with two or more children that are states
    flipped between AND and OR (one such child would make the flip mean
    nothing), a Basic moved into a sibling of its container, or one
    target dropped from a HyperEdge's next."""
    kinds, children, links = doc.kinds, doc.children, doc.links
    parents = [-1] * len(kinds)
    for node, kids in enumerate(children):
        for kid in kids:
            parents[kid] = node
    for node in range(2, len(kinds)):
        states = [kid for kid in children[node] if kinds[kid] != "HyperEdge"]
        if len(states) >= 2:
            flipped = list(kinds)
            flipped[node] = "OR" if kinds[node] == "AND" else "AND"
            yield "flip", doc._replace(kinds=flipped)
    for node in [node for node, kind in enumerate(kinds) if kind == "Basic"]:
        container = parents[node]
        for sibling in children[parents[container]]:
            if sibling != container and kinds[sibling] in ("AND", "OR"):
                moved = [list(kids) for kids in children]
                moved[container].remove(node)
                moved[sibling].append(node)
                yield "move", doc._replace(children=moved)
    for node in [node for node, kind in enumerate(kinds)
                 if kind == "HyperEdge"]:
        targets = links[node]
        for at in range(len(targets)):
            dropped = list(links)
            dropped[node] = targets[:at] + targets[at + 1:]
            yield "drop", doc._replace(links=dropped)


def test_every_mutant_of_a_swept_output_breaks_a_firing():
    outputs = [doc for net in small_nets(3, 2)
               for doc, _ in (transform_net(net),
                              transform_net(renamed(net, "x")))
               if doc is not None]
    outputs += [entry.expected for entry in load_corpus()
                if entry.expected is not None]
    made = {"flip": 0, "move": 0, "drop": 0}
    for doc in outputs:
        for change, mutant in _mutants(doc):
            made[change] += 1
            assert firing_faults(mutant), (change, mutant)
    assert min(made.values()) > 0, made
