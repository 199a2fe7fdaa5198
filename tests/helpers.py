"""Shared test utilities: net builders and independent oracles."""

from __future__ import annotations

import json

from pn2sc.io import (
    PetriNetDocument,
    PlaceSpec,
    ScNode,
    StatechartDocument,
    TransitionSpec,
)
from pn2sc.model import ElementKind, ModelStore


def build_net(
    places: list[str], transitions: list[tuple[str, list[str], list[str]]]
) -> tuple[ModelStore, dict[str, int]]:
    """Build a Petri net store from (name, pre names, post names) triples."""
    pn = ModelStore()
    ids: dict[str, int] = {}
    for name in places:
        ids[name] = pn.create(ElementKind.PLACE, name)
    for name, pre, post in transitions:
        tid = pn.create(ElementKind.TRANSITION, name)
        ids[name] = tid
        for p in pre:
            pn.add_ref(tid, "prep", ids[p])
        for p in post:
            pn.add_ref(tid, "postp", ids[p])
    return pn, ids


def kind_counts(store: ModelStore) -> dict[str, int]:
    return {kind.value: store.count_of_kind(kind) for kind in ElementKind}


def ancestors_of(sc: ModelStore, element: int) -> list[int]:
    """Strict containment ancestors, nearest first."""
    chain = []
    node = sc.ref(element, "rcontains")
    while node is not None:
        chain.append(node)
        node = sc.ref(node, "rcontains")
    return chain


def nca_oracle(sc: ModelStore, edge: int) -> int:
    """Brute-force nearest-common-ancestor oracle for one hyperedge.

    Intersects the full ancestor sets of every linked Basic and picks the
    deepest member; hyperedges linked to nothing map to the top AND.
    """
    members = sc.refs_as_set(edge, "next") | sc.refs_as_set(edge, "rnext")
    if not members:
        (statechart,) = sc.all_of_kind(ElementKind.STATECHART)
        top = sc.ref(statechart, "topState")
        assert top is not None
        return top
    common: set[int] | None = None
    depth: dict[int, int] = {}
    for member in members:
        chain = ancestors_of(sc, member)
        for position, node in enumerate(chain):
            # depth from the root: later chain entries are shallower
            depth[node] = len(chain) - position
        common = set(chain) if common is None else common & set(chain)
    assert common, f"hyperedge {edge} has no common ancestor"
    return max(common, key=lambda node: (depth[node], -node))


def assert_single_tree(sc: ModelStore, top: int) -> None:
    """Every Basic/OR/AND/HyperEdge must sit in the tree rooted at top;
    AND children are ORs and Basic containers are ORs."""
    for kind in (
        ElementKind.BASIC,
        ElementKind.OR,
        ElementKind.AND,
        ElementKind.HYPER_EDGE,
    ):
        for eid in sc.all_of_kind(kind):
            if eid == top:
                continue
            chain = ancestors_of(sc, eid)
            assert chain and chain[-1] == top, (
                f"{kind.value} {eid} not rooted at the top AND"
            )
    for and_state in sc.all_of_kind(ElementKind.AND):
        for child in sc.refs(and_state, "contains"):
            if sc.kind_of(child) is not ElementKind.HYPER_EDGE:
                assert sc.kind_of(child) is ElementKind.OR
    for basic in sc.all_of_kind(ElementKind.BASIC):
        container = sc.ref(basic, "rcontains")
        assert container is not None
        assert sc.kind_of(container) is ElementKind.OR


def reference_statechart_bytes(doc: StatechartDocument) -> bytes:
    """Reference encoder for statechart documents: ``json.dumps`` with
    ``indent=2`` over a plain dict payload, plus a trailing newline."""

    def encode(node: ScNode) -> dict:
        payload: dict[str, object] = {
            "uid": node.uid,
            "kind": node.kind,
            "name": node.name,
        }
        if node.kind in ("Basic", "HyperEdge"):
            payload["next"] = list(node.next)
        payload["children"] = [encode(c) for c in node.children]
        return payload

    payload = {
        "root": encode(doc.root),
        "counts": {
            key: doc.counts[key]
            for key in ("statechart", "and", "or", "basic", "hyperedge")
        },
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def nested_fork_join_net(depth: int) -> PetriNetDocument:
    """One fork/join spine nested ``depth`` deep (3 * depth + 1 places).

    Each level wraps the level inside it in ``s -> {x, entry}``,
    ``{x, exit} -> e``; the fixpoint reduces it one level per round and
    the statechart nests about two levels per spine level.
    """
    places = [PlaceSpec("p0", "p0")]
    transitions: list[TransitionSpec] = []
    entry = exit_ = "p0"
    for _ in range(depth):
        start, side, end = (f"p{len(places) + k}" for k in range(3))
        places += [PlaceSpec(pid, pid) for pid in (start, side, end)]
        fork, join = f"t{len(transitions)}", f"t{len(transitions) + 1}"
        transitions += [
            TransitionSpec(fork, fork, (start,), (side, entry)),
            TransitionSpec(join, join, (side, exit_), (end,)),
        ]
        entry, exit_ = start, end
    return PetriNetDocument(tuple(places), tuple(transitions))
