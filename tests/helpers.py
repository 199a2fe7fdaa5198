"""Shared test utilities: net builders and independent oracles."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from pn2sc.io import (
    PetriNetDocument,
    PlaceSpec,
    ScNode,
    StatechartDocument,
    TransitionSpec,
    parse_petri_net,
    parse_statechart,
)
from pn2sc.init import TraceMap
from pn2sc.model import ElementKind, ModelStore
from pn2sc.reduce import FiringObserver, Side, and_rule, or_rule

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class CorpusEntry:
    """A fixture net with its expected statechart, or with
    ``expected=None`` when the net must come out irreducible."""

    name: str
    net: PetriNetDocument
    expected: StatechartDocument | None


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


def scan_fixpoint(
    pn: ModelStore,
    sc: ModelStore,
    trace: TraceMap,
    on_fire: FiringObserver | None = None,
) -> None:
    """Reference reduction loop: full passes of the AND rule on
    pre-places, the AND rule on post-places and the OR rule, in rounds,
    until a round fires nothing."""
    while True:
        fired = and_rule(pn, sc, Side.PRE, trace, on_fire)
        fired = and_rule(pn, sc, Side.POST, trace, on_fire) or fired
        fired = or_rule(pn, sc, trace, on_fire) or fired
        if not fired:
            return


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


def nested_fork_join_net(*depths: int) -> PetriNetDocument:
    """Fork/join spines side by side under one top fork and join.

    A spine of depth d has 3 * d + 1 places: each level wraps the level
    inside it in ``s -> {x, entry}``, ``{x, exit} -> e``. The fixpoint
    reduces a spine one level per round, and the statechart nests about
    two levels per spine level. One spine alone has no top fork.
    """
    places: list[PlaceSpec] = []
    transitions: list[TransitionSpec] = []

    def place() -> str:
        pid = f"p{len(places)}"
        places.append(PlaceSpec(pid, pid))
        return pid

    def transition(pre: list[str], post: list[str]) -> None:
        tid = f"t{len(transitions)}"
        transitions.append(TransitionSpec(tid, tid, tuple(pre), tuple(post)))

    ends = []
    for depth in depths:
        entry = exit_ = place()
        for _ in range(depth):
            start, side, end = place(), place(), place()
            transition([start], [side, entry])
            transition([side, exit_], [end])
            entry, exit_ = start, end
        ends.append((entry, exit_))
    if len(ends) > 1:
        top, bottom = place(), place()
        transition([top], [entry for entry, _ in ends])
        transition([exit_ for _, exit_ in ends], [bottom])
    return PetriNetDocument(tuple(places), tuple(transitions))


def shuffled_net(doc: PetriNetDocument, seed: int) -> PetriNetDocument:
    """The same net with its places and transitions in a seeded random
    order."""
    rng = random.Random(seed)
    places, transitions = list(doc.places), list(doc.transitions)
    rng.shuffle(places)
    rng.shuffle(transitions)
    return PetriNetDocument(tuple(places), tuple(transitions))


def disjoint_union(left: PetriNetDocument,
                   right: PetriNetDocument) -> PetriNetDocument:
    """Two nets side by side, unconnected; ids and names get an ``a`` or
    ``b`` prefix so that they stay unique."""

    def tagged(doc: PetriNetDocument, tag: str):
        places = tuple(PlaceSpec(tag + p.id, tag + p.name) for p in doc.places)
        transitions = tuple(
            TransitionSpec(tag + t.id, tag + t.name,
                           tuple(tag + p for p in t.pre),
                           tuple(tag + p for p in t.post))
            for t in doc.transitions
        )
        return places, transitions

    left_places, left_transitions = tagged(left, "a")
    right_places, right_transitions = tagged(right, "b")
    return PetriNetDocument(left_places + right_places,
                            left_transitions + right_transitions)


def load_corpus() -> list[CorpusEntry]:
    """The fixture corpus in ``tests/golden``, sorted by name.

    Every ``<name>.net.json`` is an entry; its expected statechart is
    ``<name>.statechart.json``, or ``None`` where that file is absent
    because the net must come out irreducible.
    """
    entries = []
    for net_path in sorted(GOLDEN_DIR.glob("*.net.json")):
        name = net_path.name.removesuffix(".net.json")
        chart_path = GOLDEN_DIR / f"{name}.statechart.json"
        expected = (
            parse_statechart(chart_path.read_bytes())
            if chart_path.exists() else None
        )
        entries.append(
            CorpusEntry(name, parse_petri_net(net_path.read_bytes()), expected)
        )
    return entries
