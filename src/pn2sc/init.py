"""Initialization pass from a Petri net to statechart parts.

Every place becomes an OR state wrapping one Basic state, every transition
becomes a HyperEdge, and the net's arcs are mirrored as next/rnext links
between Basics and HyperEdges. The pass returns the new statechart store
and a plain dict from place id to the id of its OR, which the reduction
rules read and rewrite.
"""

from __future__ import annotations

from .io import ElementKind
from .model import ModelStore


def initialize_statechart(pn: ModelStore) -> tuple[ModelStore, dict[int, int]]:
    """Build the statechart parts of a whole net in one pass.

    Places are visited in ascending id. Each gets its OR, then its Basic;
    the HyperEdge of an adjacent transition is created when the transition
    is first seen, producers (``pret``) before consumers (``postt``).
    Transitions that no place touches get their HyperEdges last, in
    ascending id.
    """
    sc = ModelStore()
    or_of_place: dict[int, int] = {}
    edge_of: dict[int, int] = {}
    for place in pn.all_of_kind(ElementKind.PLACE):
        or_state = or_of_place[place] = sc.create(ElementKind.OR)
        basic = sc.create(ElementKind.BASIC, pn.name_of(place))
        sc.add_ref(basic, "rcontains", or_state)
        for arcs, link in (("pret", "rnext"), ("postt", "next")):
            for transition in pn.view(place, arcs):
                edge = edge_of.get(transition)
                if edge is None:
                    edge = edge_of[transition] = sc.create(
                        ElementKind.HYPER_EDGE, pn.name_of(transition))
                sc.add_ref(basic, link, edge)
    for transition in pn.all_of_kind(ElementKind.TRANSITION):
        if transition not in edge_of:
            sc.create(ElementKind.HYPER_EDGE, pn.name_of(transition))
    return sc, or_of_place
