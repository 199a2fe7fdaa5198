"""Reduction of an initialized net/statechart pair into a hierarchy.

Two rewrite rules shrink the Petri net while growing the statechart's
containment tree: the AND rule collapses places that share identical
pre- and post-transition sets into a parallel composition, and the OR
rule collapses place-transition-place sequences by merging their OR
states. A driver applies both as long as possible, then wraps the single
surviving top-level OR in a Statechart with an AND top state and assigns
every hyperedge to the nearest compound state containing all Basics it
connects.

Each rule's precondition and rewrite is written once, for one transition
(``_and_step``, ``_or_step``). ``and_rule`` and ``or_rule`` run one of
them over every transition, and ``fixpoint`` hands all three to
``flat.run_rounds``, the loop of sorted sweeps that ``flat.FlatModel``
runs too. A firing here marks every transition next to the surviving place
for the other passes: a rule check reads only a transition's arcs and
the pre- and post-transition sets of the places on them, and a firing
changes those only for the transitions next to the surviving place.

The rules find each place's OR state in ``or_of_place``, the plain dict
from place id to OR id that ``initialize_statechart`` returns, and
rewrite it when they merge places; entries of deleted places go stale.

These functions on ``ModelStore`` pairs are the reference implementation.
``pn2sc transform`` runs ``flat.transform_net`` instead, which fires the
same rules in the same order on flat lists, with finer marks; the marks
here make ``fixpoint`` quadratic in the fan-out of one place.

Wherever the rules need "the first" element of an unordered collection,
the minimum element id is used, so runs are reproducible.
"""

from __future__ import annotations

from collections.abc import Callable

from .flat import (AndFiring, FiringObserver, OrFiring, ReductionResult,
                   ReductionStatus, Side, run_rounds)
from .init import initialize_statechart
from .io import ElementKind
from .model import ModelStore


class ReductionError(Exception):
    """The reduction pipeline was driven from an illegal state."""


def _and_step(
    pn: ModelStore,
    sc: ModelStore,
    side: str,
    or_of_place: dict[int, int],
    transition: int,
    on_fire: FiringObserver | None,
) -> tuple[tuple[int, ...], ...] | None:
    """Apply the AND rule to one transition if it is live and matches;
    return ``_marks`` of the surviving place, or None."""
    if not pn.is_live(transition):
        return None
    companions = pn.view(transition, side)
    if len(companions) <= 1:
        return None
    ordered = sorted(companions)
    survivor = ordered[0]
    pre_set = pn.view(survivor, "pret")
    post_set = pn.view(survivor, "postt")
    for other in ordered[1:]:
        if (pn.view(other, "pret") != pre_set
                or pn.view(other, "postt") != post_set):
            return None
    new_or = sc.create(ElementKind.OR)
    new_and = sc.create(ElementKind.AND)
    for place in ordered:
        sc.add_ref(new_and, "contains", or_of_place[place])
    sc.add_ref(new_or, "contains", new_and)
    or_of_place[survivor] = new_or
    for other in ordered[1:]:
        pn.delete(other)
    if on_fire is not None:
        on_fire(AndFiring(transition, side, len(ordered)))
    return _marks(pn, survivor)


def _or_step(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    transition: int,
    on_fire: FiringObserver | None,
) -> tuple[tuple[int, ...], ...] | None:
    """Apply the OR rule to one transition if it is live and matches;
    return ``_marks`` of the surviving place q, or None."""
    if not pn.is_live(transition):
        return None
    preps = pn.view(transition, "prep")
    if len(preps) != 1:
        return None
    postps = pn.view(transition, "postp")
    if len(postps) != 1:
        return None
    (q,) = preps
    (r,) = postps
    if q != r:
        # r is a co-output of a producer of q exactly when that producer
        # is also a producer of r; likewise for co-inputs and consumers
        if not pn.view(q, "pret").isdisjoint(pn.view(r, "pret")):
            return None
        if not pn.view(q, "postt").isdisjoint(pn.view(r, "postt")):
            return None
        merger = or_of_place[q]
        mergee = or_of_place[r]
        for producer in pn.refs(r, "pret"):
            pn.add_ref(q, "pret", producer)
        for consumer in pn.refs(r, "postt"):
            pn.add_ref(q, "postt", consumer)
        pn.delete(r)
        # adding to the merger steals each child from the mergee, so
        # iterate over a copy
        for child in sc.refs(mergee, "contains"):
            sc.add_ref(merger, "contains", child)
        sc.delete(mergee)
    pn.delete(transition)
    if on_fire is not None:
        on_fire(OrFiring(transition, identity=q == r))
    return _marks(pn, q)


def _marks(pn: ModelStore, place: int) -> tuple[tuple[int, ...], ...]:
    """Every transition next to ``place``, for each of the three passes."""
    touched = (*pn.view(place, "pret"), *pn.view(place, "postt"))
    return touched, touched, touched


def _one_pass(pn: ModelStore, step: Callable[[int], object]) -> bool:
    """Run ``step`` on every transition; True iff it fired at least once."""
    applied = False
    for transition in pn.all_of_kind(ElementKind.TRANSITION):
        if step(transition) is not None:
            applied = True
    return applied


def and_rule(
    pn: ModelStore,
    sc: ModelStore,
    side: str,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> bool:
    """One pass of the AND rule over a snapshot of all transitions.

    A transition matches on the chosen side when it has more than one
    pre-place (POST: post-place) and all of them share identical pre- and
    post-transition sets. The minimum-id place survives; the others are
    deleted after their OR states are grouped under a fresh AND inside a
    fresh OR, which becomes the survivor's OR in ``or_of_place``.

    Returns True iff at least one transition matched.
    """
    return _one_pass(
        pn, lambda t: _and_step(pn, sc, side, or_of_place, t, on_fire))


def or_rule(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> bool:
    """One pass of the OR rule over a snapshot of all transitions.

    A transition with exactly one pre-place q and one post-place r matches
    when q and r are the same place, or when r is neither a co-output of
    one of q's producing transitions nor a co-input of one of q's
    consuming transitions. On a match with q != r, q absorbs r's arcs and
    r's OR is merged into q's OR before r disappears; either way the
    transition is deleted.

    Returns True iff at least one transition matched.
    """
    return _one_pass(
        pn, lambda t: _or_step(pn, sc, or_of_place, t, on_fire))


def fixpoint(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> None:
    """Apply [AND on pre-places, AND on post-places, OR] rounds through
    ``run_rounds`` until none of the three passes fires."""
    run_rounds((
        lambda t: _and_step(pn, sc, Side.PRE, or_of_place, t, on_fire),
        lambda t: _and_step(pn, sc, Side.POST, or_of_place, t, on_fire),
        lambda t: _or_step(pn, sc, or_of_place, t, on_fire),
    ), (pn.all_of_kind(ElementKind.TRANSITION),) * 3)


def create_top(pn: ModelStore, sc: ModelStore) -> ReductionResult:
    """Wrap the unique container-less OR in a Statechart with an AND top.

    With exactly one top-level OR the result is Success and the Statechart
    element id is returned; otherwise the statechart model is left alone
    and an Irreducible result reports what is left over.
    """
    top_ors = [
        or_state
        for or_state in sc.all_of_kind(ElementKind.OR)
        if sc.ref(or_state, "rcontains") is None
    ]
    remaining_places = pn.count_of_kind(ElementKind.PLACE)
    remaining_transitions = pn.count_of_kind(ElementKind.TRANSITION)
    if len(top_ors) != 1:
        return ReductionResult(
            ReductionStatus.IRREDUCIBLE,
            None,
            remaining_places,
            remaining_transitions,
            len(top_ors),
        )
    root = sc.create(ElementKind.STATECHART)
    top = sc.create(ElementKind.AND)
    sc.set_ref(root, "topState", top)
    sc.add_ref(top, "contains", top_ors[0])
    return ReductionResult(
        ReductionStatus.SUCCESS,
        root,
        remaining_places,
        remaining_transitions,
        1,
    )


def assign_hyperedges(sc: ModelStore) -> None:
    """Contain every hyperedge in the nearest compound state that is an
    ancestor of all Basics on its next and rnext links.

    One walk down from the top state records every state's parent and
    depth. Each hyperedge then starts from the parent of one linked Basic
    and, for every other linked Basic, climbs from the deeper side until
    it meets that Basic's parent. Hyperedges connected to nothing go
    directly into the top AND state. Requires a successfully created top
    state.
    """
    statecharts = sc.all_of_kind(ElementKind.STATECHART)
    if len(statecharts) != 1:
        raise ReductionError(
            f"hyperedge assignment needs exactly one Statechart, "
            f"found {len(statecharts)}"
        )
    top = sc.ref(statecharts[0], "topState")
    if top is None:
        raise ReductionError("Statechart has no top state")
    parent: dict[int, int] = {}
    depth = {top: 0}
    stack = [top]
    while stack:
        node = stack.pop()
        below = depth[node] + 1
        for child in sc.view(node, "contains"):
            parent[child] = node
            depth[child] = below
            stack.append(child)
    for edge in sc.all_of_kind(ElementKind.HYPER_EDGE):
        container: int | None = None
        for member in (*sc.view(edge, "next"), *sc.view(edge, "rnext")):
            other = parent.get(member)
            if other is None:
                raise ReductionError(
                    f"no common ancestor for hyperedge {edge}; "
                    f"containment is not a single tree"
                )
            if container is None:
                container = other
                continue
            while container != other:
                if depth[container] >= depth[other]:
                    container = parent[container]
                else:
                    other = parent[other]
        sc.set_ref(edge, "rcontains", top if container is None else container)


def create_statechart(
    pn: ModelStore, on_fire: FiringObserver | None = None
) -> tuple[ModelStore, ReductionResult]:
    """Full pipeline: initialize, reduce to fixpoint, create the top state,
    and (on success) assign hyperedge containers."""
    sc, or_of_place = initialize_statechart(pn)
    fixpoint(pn, sc, or_of_place, on_fire)
    result = create_top(pn, sc)
    if result.ok:
        assign_hyperedges(sc)
    return sc, result
