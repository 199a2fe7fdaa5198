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
- the output validates against a copy with its uids relabelled and its
  children shuffled;
- with unique names only, the bytes, or for an irreducible net the
  counts of places and transitions left, are the same under every order
  of the places and the transitions. With repeated names some nets give
  order-dependent bytes (see README, "Limits").

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

import rank_reference
from helpers import mutated_statechart, net_document, renamed
from pn2sc.flat import transform_net
from pn2sc.io import (
    PetriNetDocument,
    _store_document,
    parse_statechart,
    statechart_document_to_bytes,
    store_from_petri_net,
    write_statechart,
)
from pn2sc.reduce import create_statechart
from pn2sc.validate import validate_full


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
