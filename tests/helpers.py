"""Shared test utilities: net builders and independent oracles."""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.io import (
    PetriNetDocument,
    PlaceSpec,
    StatechartDocument,
    TransitionSpec,
    parse_petri_net,
    parse_statechart,
    store_from_petri_net,
    write_statechart,
)
from pn2sc.model import ElementKind, ModelStore
from pn2sc.reduce import (
    FiringObserver,
    Side,
    and_rule,
    create_statechart,
    or_rule,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class CorpusEntry:
    """A fixture net with its expected statechart, or with
    ``expected=None`` when the net must come out irreducible."""

    name: str
    net: PetriNetDocument
    expected: StatechartDocument | None


def net_document(places: list[str],
                 transitions: list[tuple[str, list[str], list[str]]]
                 ) -> PetriNetDocument:
    """A Petri net document from place names and (name, pre names, post
    names) triples; names double as ids."""
    return PetriNetDocument(
        tuple(PlaceSpec(name, name) for name in places),
        tuple(TransitionSpec(name, name, tuple(pre), tuple(post))
              for name, pre, post in transitions),
    )


def build_net(
    places: list[str], transitions: list[tuple[str, list[str], list[str]]]
) -> tuple[ModelStore, dict[str, int]]:
    """The store of ``net_document(places, transitions)`` and the id of
    every place and transition by name (places first, then transitions,
    in argument order)."""
    pn = store_from_petri_net(net_document(places, transitions))
    ids = {pn.name_of(eid): eid
           for kind in (ElementKind.PLACE, ElementKind.TRANSITION)
           for eid in pn.all_of_kind(kind)}
    return pn, ids


def kind_counts(store: ModelStore) -> dict[str, int]:
    return {kind.value: store.count_of_kind(kind) for kind in ElementKind}


def element_named(store: ModelStore, kind: ElementKind, name: str) -> int:
    """The one live element of ``kind`` called ``name``."""
    (found,) = [
        eid for eid in store.all_of_kind(kind) if store.name_of(eid) == name
    ]
    return found


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


#: ``configurations`` gives up where a node has more than this many.
CONFIGURATION_CAP = 10_000


def configurations(doc: StatechartDocument) -> set[frozenset[int]] | None:
    """The configurations of a statechart document, as sets of Basic node
    numbers, or None where a node has more than ``CONFIGURATION_CAP``.

    A Basic is itself; an AND or the Statechart takes one configuration
    of each child that is not a HyperEdge; an OR takes the configurations
    of any one such child. Every node is numbered after its parent, as in
    any document, so one walk from the last node up meets each child
    before its parent."""
    of: list[list[frozenset[int]] | None] = [None] * len(doc.kinds)
    for node in range(len(doc.kinds) - 1, -1, -1):
        kind = doc.kinds[node]
        if kind == "Basic":
            of[node] = [frozenset((node,))]
        elif kind != "HyperEdge":
            parts = [of[kid] for kid in doc.children[node]
                     if doc.kinds[kid] != "HyperEdge"]
            if kind == "OR":
                found = [config for part in parts for config in part]
            else:
                found = [frozenset()]
                for part in parts:
                    if len(found) * len(part) > CONFIGURATION_CAP:
                        return None
                    found = [left | right for left in found for right in part]
            if len(found) > CONFIGURATION_CAP:
                return None
            of[node] = found
    return set(of[0])


def firing_faults(doc: StatechartDocument) -> list[str]:
    """Where the HyperEdges of ``doc`` break its configurations.

    A HyperEdge's sources S are the Basics that link to it and its
    targets T the Basics it links to. S must lie within some
    configuration, and so must T, and for every configuration C that
    holds S, (C - S) | T must be a configuration: firing it from any
    state that enables it leads to a state. This rests on neither the
    reduction rules nor the ranking, and reads node numbers, not names.
    """
    configs = configurations(doc)
    assert configs is not None, "too many configurations to enumerate"
    sources: dict[int, set[int]] = {}
    for node, targets in enumerate(doc.links):
        if doc.kinds[node] == "Basic":
            for target in targets:
                sources.setdefault(target, set()).add(node)
    faults = []
    for node, kind in enumerate(doc.kinds):
        if kind != "HyperEdge":
            continue
        edge = f"HyperEdge {doc.uids[node]} ({doc.names[node]!r})"
        before = frozenset(sources.get(node, ()))
        after = frozenset(doc.links[node])
        enabled = [config for config in configs if before <= config]
        if not enabled:
            faults.append(f"{edge}: its sources lie in no configuration")
        if not any(after <= config for config in configs):
            faults.append(f"{edge}: its targets lie in no configuration")
        for config in enabled:
            if (config - before) | after not in configs:
                faults.append(f"{edge}: firing it from {sorted(config)} "
                              f"leads to no configuration")
                break
    return faults


def scan_fixpoint(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> None:
    """Reference reduction loop: full passes of the AND rule on
    pre-places, the AND rule on post-places and the OR rule, in rounds,
    until a round fires nothing."""
    while True:
        fired = and_rule(pn, sc, Side.PRE, or_of_place, on_fire)
        fired = and_rule(pn, sc, Side.POST, or_of_place, on_fire) or fired
        fired = or_rule(pn, sc, or_of_place, on_fire) or fired
        if not fired:
            return


def reference_statechart_bytes(doc: StatechartDocument) -> bytes:
    """Reference encoder for statechart documents: ``json.dumps`` with
    ``indent=2`` over a plain dict payload rebuilt from the document's
    lists, plus a trailing newline."""

    def encode(node: int) -> dict:
        payload: dict[str, object] = {
            "uid": doc.uids[node],
            "kind": doc.kinds[node],
            "name": doc.names[node],
        }
        if doc.kinds[node] in ("Basic", "HyperEdge"):
            payload["next"] = [doc.uids[t] for t in doc.links[node]]
        payload["children"] = [encode(c) for c in doc.children[node]]
        return payload

    payload = {
        "root": encode(0),
        "counts": {
            kind.lower(): doc.kinds.count(kind)
            for kind in ("Statechart", "AND", "OR", "Basic", "HyperEdge")
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


def corpus_entry(name: str) -> CorpusEntry:
    """The fixture called ``name`` from ``load_corpus``."""
    return next(fx for fx in load_corpus() if fx.name == name)


@functools.cache
def statechart_cases() -> list[tuple[str, bytes]]:
    """Written statecharts, by name: the golden ones, SP nets transformed
    as generated and shuffled, and spines. Built once per session."""
    cases = [
        (f"golden-{fx.name}", (GOLDEN_DIR / f"{fx.name}.statechart.json")
         .read_bytes())
        for fx in load_corpus() if fx.expected is not None
    ]
    nets = [
        ("sp60_0", generate_sp_net(GenSpec(60, 0))),
        ("sp400_1", generate_sp_net(GenSpec(400, 1))),
        ("sp400_1-shuffled",
         shuffled_net(generate_sp_net(GenSpec(400, 1)), seed=5)),
        ("spine1", nested_fork_join_net(1)),
        ("spine12", nested_fork_join_net(12)),
        ("spines5x9", nested_fork_join_net(5, 9)),
    ]
    for name, net in nets:
        sc, result = create_statechart(store_from_petri_net(net))
        cases.append((name, write_statechart(sc, result)))
    return cases


def past_json_depth() -> int:
    """A nesting that ``json.loads`` does not read where it is called
    (hypothesis raises the recursion limit while a test runs)."""
    depth = 1_000
    while depth <= 1 << 17:
        try:
            json.loads("[" * depth + "]" * depth)
        except RecursionError:
            return depth
        depth *= 2
    raise AssertionError(f"json.loads read {depth // 2} levels")


def json_nodes(doc: dict) -> list[tuple[dict, dict | None]]:
    """Every node of a statechart JSON object with its parent, in
    preorder."""
    found = []
    stack: list[tuple[dict, dict | None]] = [(doc["root"], None)]
    while stack:
        node, parent = stack.pop()
        found.append((node, parent))
        stack += [(kid, node) for kid in reversed(node["children"])]
    return found


#: Changes ``mutated_statechart`` makes. The first two keep the statechart
#: equal; the others each make one difference.
PARTNER_CHANGES = ("none", "reordered", "basic-renamed", "hyperedge-moved",
                   "basic-moved", "link-dropped")


def mutated_statechart(data: bytes, change: str, seed: int) -> bytes | None:
    """A statechart file with one seeded change from ``PARTNER_CHANGES``,
    or None where the chart offers no place for it (no node of the kind
    to change, a Basic with no other OR to move to, or no link to drop).

    "reordered" shuffles every children list and renumbers the uids at
    random; the moves take a node out of its parent and append it to
    another OR (or, for a HyperEdge, another OR or AND).
    """
    rng = random.Random(seed)
    doc = json.loads(data)
    nodes = json_nodes(doc)

    def pick(kind: str) -> tuple[dict, dict] | None:
        found = [(n, p) for n, p in nodes if n["kind"] == kind]
        return rng.choice(found) if found else None

    if change == "reordered":
        fresh = list(range(len(nodes)))
        rng.shuffle(fresh)
        uid_map = {node["uid"]: uid for (node, _), uid in zip(nodes, fresh)}
        for node, _ in nodes:
            rng.shuffle(node["children"])
            node["uid"] = uid_map[node["uid"]]
            if "next" in node:
                node["next"] = [uid_map[uid] for uid in node["next"]]
    elif change == "basic-renamed":
        picked = pick("Basic")
        if picked is None:
            return None
        picked[0]["name"] += ".renamed"
    elif change in ("hyperedge-moved", "basic-moved"):
        kind, hosts = (("HyperEdge", ("OR", "AND"))
                       if change == "hyperedge-moved" else ("Basic", ("OR",)))
        picked = pick(kind)
        if picked is None:
            return None
        node, parent = picked
        targets = [n for n, _ in nodes
                   if n["kind"] in hosts and n is not parent]
        if not targets:
            return None
        parent["children"] = [n for n in parent["children"] if n is not node]
        rng.choice(targets)["children"].append(node)
    elif change == "link-dropped":
        linked = [n for n, _ in nodes if n.get("next")]
        if not linked:
            return None
        node = rng.choice(linked)
        node["next"].pop(rng.randrange(len(node["next"])))
    elif change != "none":
        raise ValueError(f"unknown change {change!r}")
    return json.dumps(doc).encode("utf-8")


def edge_moved_up(data: bytes, seed: int) -> bytes | None:
    """``data`` with one HyperEdge under a state below the top AND moved
    into the top AND, as perfbench's mutant moves one: a move that changes
    its depth. None where every HyperEdge is in the top AND."""
    doc = json.loads(data)
    top = doc["root"]["children"][0]
    edges = [(node, parent) for node, parent in json_nodes(doc)
             if node["kind"] == "HyperEdge" and parent is not top]
    if not edges:
        return None
    node, parent = random.Random(seed).choice(edges)
    parent["children"].remove(node)
    top["children"].append(node)
    return json.dumps(doc).encode()


def chain_document(depth: int) -> StatechartDocument:
    """A statechart whose states nest ``depth`` levels below the root: a
    chain of alternating AND and OR states that ends in one Basic."""
    count = depth + 1
    kinds = ["Statechart"] + [
        "AND" if level % 2 else "OR" for level in range(1, depth)
    ] + ["Basic"]
    children = [range(node + 1, node + 2) for node in range(depth)] + [()]
    return StatechartDocument(list(range(count)), kinds, [""] * count,
                              children, [()] * count)


def twin_regions(move: bool) -> ModelStore:
    """A top AND over two unnamed ORs, holding Basics a1-a3 and b1-b3;
    with ``move``, a1 sits in the second OR instead."""
    sc = ModelStore()
    chart = sc.create(ElementKind.STATECHART)
    top = sc.create(ElementKind.AND)
    sc.set_ref(chart, "topState", top)
    regions = []
    for names in (("a1", "a2", "a3"), ("b1", "b2", "b3")):
        region = sc.create(ElementKind.OR)
        sc.add_ref(top, "contains", region)
        for name in names:
            sc.add_ref(region, "contains",
                       sc.create(ElementKind.BASIC, name))
        regions.append(region)
    if move:
        a1 = element_named(sc, ElementKind.BASIC, "a1")
        sc.set_ref(a1, "rcontains", regions[1])
    return sc


def rotated_ors(width: int, shift: int,
                 shared: tuple[str, ...] = ()) -> StatechartDocument:
    """A top AND over ``width`` unnamed ORs; OR i holds Basics ``a{i}`` and
    ``b{(i + shift) % width}``, then one Basic for each name in
    ``shared``."""
    size = 2 + len(shared)  # Basics per OR
    basics = size * width
    kinds = ["Statechart", "AND"] + ["OR"] * width + ["Basic"] * basics
    names = [""] * (width + 2)
    children = [range(1, 2), range(2, width + 2)]
    for i in range(width):
        names += [f"a{i}", f"b{(i + shift) % width}", *shared]
        first = width + 2 + size * i
        children.append(range(first, first + size))
    children += [()] * basics
    return StatechartDocument(list(range(len(kinds))), kinds, names,
                              children, [()] * len(kinds))


def choice_net(branches: int) -> PetriNetDocument:
    """A choice place ``q`` with ``branches`` branches ``q -> t_i -> r_i ->
    u_i -> s``. Every OR firing at ``q`` adds to its fan-out, which makes
    this the net on which marking every neighbour of ``q`` is quadratic."""
    places = [PlaceSpec("q", "q"), PlaceSpec("s", "s")] + [
        PlaceSpec(f"r{i}", f"r{i}") for i in range(branches)
    ]
    transitions = [
        TransitionSpec(f"t{i}", f"t{i}", ("q",), (f"r{i}",))
        for i in range(branches)
    ] + [
        TransitionSpec(f"u{i}", f"u{i}", (f"r{i}",), ("s",))
        for i in range(branches)
    ]
    return PetriNetDocument(tuple(places), tuple(transitions))


def renamed(doc: PetriNetDocument, name: str) -> PetriNetDocument:
    """The same net with every place and transition called ``name``; ids
    stay unique. Sibling subtrees then tie in rank, and their order
    follows the model."""
    return PetriNetDocument(
        tuple(PlaceSpec(p.id, name) for p in doc.places),
        tuple(TransitionSpec(t.id, name, t.pre, t.post)
              for t in doc.transitions),
    )


def differential_nets():
    """Nets on which the reduction routes must agree, as pytest params:
    SP nets plain and shuffled, spines, a disjoint union of two spines
    (irreducible), choice nets, an SP net whose names all repeat, and the
    golden corpus."""
    for places in (100, 1000):
        net = generate_sp_net(GenSpec(places, 3))
        yield pytest.param(net, id=f"sp{places}")
        yield pytest.param(
            shuffled_net(net, places), id=f"sp{places}-shuffled"
        )
    for depths in ((1,), (5,), (40,), (3, 7), (12, 30, 20)):
        yield pytest.param(
            nested_fork_join_net(*depths),
            id="spines" + "-".join(map(str, depths)),
        )
    yield pytest.param(
        disjoint_union(nested_fork_join_net(6), nested_fork_join_net(9)),
        id="two-spines-disjoint",
    )
    for branches in (20, 200):
        yield pytest.param(choice_net(branches), id=f"choice{branches}")
    yield pytest.param(renamed(generate_sp_net(GenSpec(300, 4)), "x"),
                       id="sp300-one-name")
    # An OR merge moves a join with two pre-places over to the surviving
    # place; a later firing at that place must still wake the join.
    yield pytest.param(net_document(
        [f"p{i}" for i in range(7)],
        [("t0", [], []), ("t1", ["p4", "p5"], ["p2"]), ("t2", ["p5"], ["p1"]),
         ("t3", [], ["p0", "p4", "p5"]), ("t4", ["p3"], ["p3"]),
         ("t5", [], []), ("t6", ["p3", "p6"], ["p5"])],
    ), id="join-moved-by-merge")
    for entry in load_corpus():
        yield pytest.param(entry.net, id=f"golden-{entry.name}")


@st.composite
def arbitrary_nets(draw):
    """Small nets as ``build_net`` arguments: up to 7 places and 7
    transitions with any arcs, self-loops and empty sides included."""
    n_places = draw(st.integers(0, 7))
    n_transitions = draw(st.integers(0, 7))
    names = [f"p{i}" for i in range(n_places)]
    transitions = []
    for i in range(n_transitions):
        pre = sorted(draw(st.sets(st.sampled_from(names)))) if names else []
        post = sorted(draw(st.sets(st.sampled_from(names)))) if names else []
        transitions.append((f"t{i}", pre, post))
    return names, transitions


def named_from(net: PetriNetDocument, pool: list[str],
               rng: random.Random) -> PetriNetDocument:
    """The same net with every place and transition named from ``pool``,
    so names repeat; ids stay unique."""
    return PetriNetDocument(
        tuple(PlaceSpec(p.id, rng.choice(pool)) for p in net.places),
        tuple(TransitionSpec(t.id, rng.choice(pool), t.pre, t.post)
              for t in net.transitions),
    )


#: Generated SP nets, spines and arbitrary small nets.
NETS = (
    st.builds(lambda places, seed: generate_sp_net(GenSpec(places, seed)),
              st.integers(1, 120), st.integers(0, 2 ** 32))
    | st.builds(nested_fork_join_net, st.integers(1, 12), st.integers(1, 6))
    | arbitrary_nets().map(lambda net: net_document(*net))
)
