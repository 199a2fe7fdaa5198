"""JSON documents for Petri nets and statecharts.

Petri net files::

    {
      "places": [{"id": "p0", "name": "p0"}, ...],
      "transitions": [{"id": "t0", "name": "t0",
                       "pre": ["p0"], "post": ["p1"]}, ...]
    }

Statechart files hold the containment tree under "root" plus a per-kind
tally. Every node has "uid", "kind", "name" and "children"; Basic and
HyperEdge nodes additionally carry "next", the uids of their successors
(hyperedges for a Basic, Basics for a HyperEdge). Each link is stored
once, on its source node; the rnext slots are the derived opposites and
are not stored::

    {
      "root": {"uid": 0, "kind": "Statechart", "name": "", "children": [...]},
      "counts": {"statechart": 1, "and": 1, "or": 1, "basic": 2,
                 "hyperedge": 1}
    }

Writing is canonical: children appear in structural order (see
``rank_statecharts``, which the validator uses too), uids are assigned in
preorder over the ordered tree and next lists are ascending, so equal
models produce identical bytes whatever the order of their elements.
(Sibling subtrees equal in kinds, names and links, which only repeated
names can produce, keep the model's order.) The writer emits the bytes
of ``json.dumps(payload, indent=2)`` directly and iteratively, so
statecharts of any depth can be written. Readers accept any well-formed
document but reject unknown fields; a document nested deeper than the
``json`` module can parse is rejected with a DocumentError.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .model import ElementKind, ModelStore
from .reduce import ReductionResult

__all__ = [
    "DocumentError",
    "PlaceSpec",
    "TransitionSpec",
    "PetriNetDocument",
    "ScNode",
    "StatechartDocument",
    "parse_petri_net",
    "store_from_petri_net",
    "read_petri_net",
    "petri_net_to_bytes",
    "RankedTrees",
    "rank_statecharts",
    "document_from_statechart",
    "statechart_document_to_bytes",
    "write_statechart",
    "parse_statechart",
    "store_from_statechart",
    "read_statechart",
]


class DocumentError(ValueError):
    """A document failed to parse or violated its schema."""


# --- Petri net documents ---------------------------------------------------


@dataclass(frozen=True)
class PlaceSpec:
    id: str
    name: str


@dataclass(frozen=True)
class TransitionSpec:
    id: str
    name: str
    pre: tuple[str, ...]
    post: tuple[str, ...]


@dataclass(frozen=True)
class PetriNetDocument:
    places: tuple[PlaceSpec, ...]
    transitions: tuple[TransitionSpec, ...]


def _decode(data: bytes | str) -> object:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"JSON parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError(
            "document nests too deeply to read: its JSON nesting exceeds "
            "the json module's recursion limit"
        ) from None


def _expect_object(value: object, what: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{what} must be an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise DocumentError(f"{what} has unknown fields: {sorted(unknown)}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise DocumentError(f"{what} is missing fields: {missing}")
    return value


def _expect_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be a string")
    return value


def _expect_str_list(value: object, what: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list")
    return tuple(_expect_str(item, f"entry of {what}") for item in value)


def parse_petri_net(data: bytes | str) -> PetriNetDocument:
    """Parse and schema-check a Petri net document."""
    raw = _expect_object(_decode(data), "document", ("places", "transitions"))
    if not isinstance(raw["places"], list) or not isinstance(
        raw["transitions"], list
    ):
        raise DocumentError("'places' and 'transitions' must be lists")
    seen_ids: set[str] = set()

    def claim(eid: str) -> str:
        if eid in seen_ids:
            raise DocumentError(f"duplicate id {eid!r}")
        seen_ids.add(eid)
        return eid

    places = tuple(
        PlaceSpec(
            claim(_expect_str(entry["id"], "place id")),
            _expect_str(entry["name"], "place name"),
        )
        for entry in (
            _expect_object(item, "place", ("id", "name"))
            for item in raw["places"]
        )
    )
    place_ids = {p.id for p in places}

    def resolve(pid: str, owner: str) -> str:
        if pid not in place_ids:
            raise DocumentError(
                f"transition {owner!r} references unknown place {pid!r}"
            )
        return pid

    transitions = []
    for item in raw["transitions"]:
        entry = _expect_object(item, "transition", ("id", "name", "pre", "post"))
        tid = claim(_expect_str(entry["id"], "transition id"))
        pre = _expect_str_list(entry["pre"], f"pre of {tid!r}")
        post = _expect_str_list(entry["post"], f"post of {tid!r}")
        for bucket, pids in (("pre", pre), ("post", post)):
            if len(set(pids)) != len(pids):
                raise DocumentError(f"duplicate {bucket} entry on {tid!r}")
            for pid in pids:
                resolve(pid, tid)
        transitions.append(
            TransitionSpec(tid, _expect_str(entry["name"], "name"), pre, post)
        )
    return PetriNetDocument(places, tuple(transitions))


def store_from_petri_net(doc: PetriNetDocument) -> ModelStore:
    """Materialize a document: places first, then transitions, then arcs."""
    pn = ModelStore()
    by_doc_id: dict[str, int] = {}
    for place in doc.places:
        by_doc_id[place.id] = pn.create(ElementKind.PLACE, place.name)
    for transition in doc.transitions:
        tid = pn.create(ElementKind.TRANSITION, transition.name)
        for pid in transition.pre:
            pn.add_ref(tid, "prep", by_doc_id[pid])
        for pid in transition.post:
            pn.add_ref(tid, "postp", by_doc_id[pid])
    return pn


def read_petri_net(data: bytes | str) -> ModelStore:
    """Parse a Petri net document into a fresh model store."""
    return store_from_petri_net(parse_petri_net(data))


def petri_net_to_bytes(doc: PetriNetDocument) -> bytes:
    payload = {
        "places": [{"id": p.id, "name": p.name} for p in doc.places],
        "transitions": [
            {"id": t.id, "name": t.name, "pre": list(t.pre),
             "post": list(t.post)}
            for t in doc.transitions
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


# --- Statechart documents ----------------------------------------------------


@dataclass(frozen=True)
class ScNode:
    uid: int
    kind: str
    name: str
    children: tuple["ScNode", ...] = ()
    next: tuple[int, ...] = field(default=())


@dataclass(frozen=True)
class StatechartDocument:
    root: ScNode
    counts: dict[str, int]


_COUNT_KEYS = ("statechart", "and", "or", "basic", "hyperedge")
_KIND_TO_COUNT_KEY = {
    ElementKind.STATECHART: "statechart",
    ElementKind.AND: "and",
    ElementKind.OR: "or",
    ElementKind.BASIC: "basic",
    ElementKind.HYPER_EDGE: "hyperedge",
}
_KIND_BY_NAME = {kind.value: kind for kind in _KIND_TO_COUNT_KEY}
_LINKED_KINDS = (ElementKind.BASIC, ElementKind.HYPER_EDGE)
_LINKED_KIND_NAMES = tuple(kind.value for kind in _LINKED_KINDS)
_KIND_NAME = {kind: kind.value for kind in ElementKind}


@dataclass
class RankedTrees:
    """The containment trees of one or more statechart models, flattened.

    Nodes are numbered level by level, model after model, and every list
    is indexed by node number. ``roots`` holds each model's root node.
    Each ``children`` list is in canonical order, and ``links`` holds the
    node numbers of a Basic's or HyperEdge's ``next`` targets.

    Both kinds of rank are dense, distinct between levels and shared by
    all models ranked together. Two nodes have equal ``paths`` ranks exactly
    when the kinds and names from the root down to them are equal, and
    equal ``ranks`` exactly when they sit at one depth and their subtrees
    are equal in kinds, names and the name paths of the Basics each
    HyperEdge links to and from.
    """

    roots: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    children: list[list[int]] = field(default_factory=list)
    links: list[tuple[int, ...]] = field(default_factory=list)
    paths: list[int] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)


def _rank_level(level: list[int], keys: list[tuple], out: list[int],
                base: int) -> int:
    """Rank the nodes of one level densely, from ``base`` up, in the
    sorted order of their keys; return the first rank left unused."""
    table = {key: rank for rank, key in enumerate(sorted(set(keys)), base)}
    for node, key in zip(level, keys):
        out[node] = table[key]
    return base + len(table)


def _append_tree(sc: ModelStore, trees: RankedTrees,
                 levels: list[list[int]]) -> None:
    """Append the containment tree of ``sc`` to the node lists of
    ``trees``, and its node numbers to ``levels``, one list per depth."""
    charts = sc.all_of_kind(ElementKind.STATECHART)
    if len(charts) != 1:
        raise DocumentError(
            f"expected exactly one Statechart element, found {len(charts)}"
        )
    top = sc.ref(charts[0], "topState")
    if top is None:
        raise DocumentError("Statechart has no top state")
    kinds, names, children, links = (
        trees.kinds, trees.names, trees.children, trees.links
    )
    trees.roots.append(len(kinds))
    node_of: dict[int, int] = {}
    pending: list[tuple[int, int, tuple[int, ...]]] = []
    # The children of one level are numbered, in order, right after it,
    # so the children of a node form a consecutive range.
    level, level_parents = [charts[0]], [-1]
    depth = 0
    while level:
        start = len(kinds)
        if depth == len(levels):
            levels.append([])
        levels[depth] += range(start, start + len(level))
        trees.parents += level_parents
        links += [()] * len(level)
        below: list[int] = []
        below_parents: list[int] = []
        for node, eid in enumerate(level, start):
            node_of[eid] = node
            kind = sc.kind_of(eid)
            kinds.append(_KIND_NAME[kind])
            names.append(sc.name_of(eid))
            if kind in _LINKED_KINDS:
                pending.append((node, eid, sc.refs(eid, "next")))
                children.append([])
                continue
            if kind is ElementKind.STATECHART:
                kids: tuple[int, ...] = (top,)
            else:
                kids = sc.refs(eid, "contains")
            first = start + len(level) + len(below)
            children.append(list(range(first, first + len(kids))))
            below += kids
            below_parents += [node] * len(kids)
        level, level_parents = below, below_parents
        depth += 1
    for node, eid, targets in pending:
        try:
            links[node] = tuple([node_of[t] for t in targets])
        except KeyError:
            raise DocumentError(
                f"element {eid} links outside the containment tree"
            ) from None


def rank_statecharts(*models: ModelStore) -> RankedTrees:
    """Rank the containment trees of ``models`` into one canonical form.

    This is the level-by-level tree isomorphism scheme of Aho, Hopcroft
    and Ullman, with flat keys and no recursion:

    1. One breadth-first walk of each model records every node's level,
       parent, kind, name, children and links.
    2. Top down, level by level, each node gets a name-path rank from its
       parent's name-path rank, its kind and its name.
    3. Bottom up, level by level, each node gets a structural rank from
       its kind, its name, its link signatures and the sorted ranks of
       its children. A HyperEdge's link signatures are the sorted
       name-path ranks of the Basics it links to and from.

    Every model must contain exactly one Statechart element with a top
    state, and every link must stay inside the containment tree;
    otherwise a DocumentError is raised.
    """
    trees = RankedTrees()
    levels: list[list[int]] = []
    for sc in models:
        _append_tree(sc, trees, levels)
    kinds, names, parents, children, links = (
        trees.kinds, trees.names, trees.parents, trees.children, trees.links
    )

    count = len(kinds)
    paths = trees.paths = [0] * count
    base = 0
    for level in levels:
        base = _rank_level(level, [
            (paths[parents[node]] if parents[node] >= 0 else -1,
             kinds[node], names[node])
            for node in level
        ], paths, base)

    hyper_edge = ElementKind.HYPER_EDGE.value
    sources: dict[int, list[int]] = {}
    for node, targets in enumerate(links):
        if targets and kinds[node] != hyper_edge:
            for target in targets:
                sources.setdefault(target, []).append(node)

    def signature(basics) -> tuple[int, ...]:
        return tuple(sorted([paths[b] for b in basics]))

    ranks = trees.ranks = [0] * count
    base = 0
    for level in reversed(levels):
        keys = []
        for node in level:
            kids = children[node]
            if kids:
                kids.sort(key=ranks.__getitem__)
                keys.append((kinds[node], names[node], (), (),
                             tuple([ranks[kid] for kid in kids])))
            elif kinds[node] == hyper_edge:
                keys.append((kinds[node], names[node],
                             signature(links[node]),
                             signature(sources.get(node, ())), ()))
            else:
                keys.append((kinds[node], names[node], (), (), ()))
        base = _rank_level(level, keys, ranks, base)
    return trees


def document_from_statechart(sc: ModelStore) -> StatechartDocument:
    """Build the canonical document for a statechart model.

    The model must contain exactly one Statechart element; the tree is the
    containment hierarchy reachable from it, with the top state as the
    Statechart's single child. Children appear in canonical order (see
    ``rank_statecharts``) and a node's uid is its preorder index.
    """
    trees = rank_statecharts(sc)
    # Keep only what the document needs; the ranks, paths and parents
    # are freed before the nodes are built.
    kinds, names, children, links = (
        trees.kinds, trees.names, trees.children, trees.links
    )
    root = trees.roots[0]
    del trees
    order: list[int] = []
    uids = [0] * len(kinds)
    stack = [root]
    while stack:
        node = stack.pop()
        uids[node] = len(order)
        order.append(node)
        stack.extend(reversed(children[node]))

    # Build bottom-up, in reverse preorder, so every child exists before
    # its parent.
    built: list[ScNode | None] = [None] * len(kinds)
    for node in reversed(order):
        built[node] = ScNode(
            uid=uids[node],
            kind=kinds[node],
            name=names[node],
            children=tuple([built[kid] for kid in children[node]]),
            next=tuple(sorted([uids[t] for t in links[node]])),
        )
    tally = Counter(kinds)
    counts = {
        key: tally[kind.value] for kind, key in _KIND_TO_COUNT_KEY.items()
    }
    return StatechartDocument(built[root], counts)


def _level_pieces(depth: int) -> tuple[bytes, ...]:
    """Fixed byte pieces of a node at tree depth ``depth`` (root: depth 0).

    With ``indent=2`` a node at depth d opens at JSON nesting 2d + 1 (each
    tree level is one object inside one ``children`` list), so its keys
    sit at indent 2d + 2 and its list items at 2d + 3.
    """
    close = "\n" + "  " * (2 * depth + 1)
    keys = close + "  "
    items = keys + "  "
    return tuple(text.encode("ascii") for text in (
        "{" + keys + '"uid": ',
        "," + keys + '"kind": ',
        "," + keys + '"name": ',
        "," + keys + '"next": ',
        "," + keys + '"children": ',
        "[" + items,
        "," + items,
        keys + "]",
        "[]" + close + "}",
        keys + "]" + close + "}",
    ))


def statechart_document_to_bytes(doc: StatechartDocument) -> bytes:
    """Encode a document to exactly the bytes of
    ``json.dumps(payload, indent=2) + "\\n"``, where ``payload`` holds each
    node's fields in the order uid, kind, name, next (Basic and HyperEdge
    only), children.

    The text is written directly, with an explicit stack instead of
    recursion, so documents of any depth encode. It is collected as ASCII
    byte pieces and joined once, so the output is never held twice (as str
    and as bytes). Indentation and separator pieces are built once per
    depth and shared by every node at that depth.
    """
    encode_str = encode_basestring_ascii
    linked = _LINKED_KIND_NAMES
    levels: list[tuple[bytes, ...]] = []
    out = [b'{\n  "root": ']
    # Items are (node, depth) pairs to encode, or literal text to append.
    stack: list[tuple[ScNode, int] | bytes] = [(doc.root, 0)]
    while stack:
        item = stack.pop()
        if type(item) is bytes:
            out.append(item)
            continue
        node, depth = item
        if depth == len(levels):
            levels.append(_level_pieces(depth))
        (head, kind_key, name_key, next_key, children_key, list_open,
         list_sep, next_close, leaf_close, branch_close) = levels[depth]
        out += (head, b"%d" % node.uid, kind_key,
                encode_str(node.kind).encode("ascii"),
                name_key, encode_str(node.name).encode("ascii"))
        if node.kind in linked:
            out.append(next_key)
            if node.next:
                uids = list_sep.join([b"%d" % uid for uid in node.next])
                out += (list_open, uids, next_close)
            else:
                out.append(b"[]")
        out.append(children_key)
        children = node.children
        if not children:
            out.append(leaf_close)
            continue
        out.append(list_open)
        stack.append(branch_close)
        child_depth = depth + 1
        for position in range(len(children) - 1, 0, -1):
            stack.append((children[position], child_depth))
            stack.append(list_sep)
        stack.append((children[0], child_depth))
    counts = ",\n    ".join(
        f'"{key}": {doc.counts[key]}' for key in _COUNT_KEYS
    )
    out.append(f',\n  "counts": {{\n    {counts}\n  }}\n}}\n'.encode("ascii"))
    return b"".join(out)


def write_statechart(sc: ModelStore, result: ReductionResult) -> bytes:
    """Serialize a successfully reduced statechart to canonical bytes."""
    if not result.ok:
        raise DocumentError(
            "refusing to serialize an irreducible result: "
            f"{result.top_or_count} top-level OR states, "
            f"{result.remaining_places} places and "
            f"{result.remaining_transitions} transitions remain"
        )
    return statechart_document_to_bytes(document_from_statechart(sc))


def parse_statechart(data: bytes | str) -> StatechartDocument:
    """Parse and schema-check a statechart document."""
    raw = _expect_object(_decode(data), "document", ("root", "counts"))
    counts_raw = _expect_object(raw["counts"], "counts", _COUNT_KEYS)
    counts = {}
    for key in _COUNT_KEYS:
        value = counts_raw[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"count {key!r} must be an integer")
        counts[key] = value

    seen_uids: set[int] = set()
    tally = dict.fromkeys(_COUNT_KEYS, 0)
    uid_kinds: dict[int, ElementKind] = {}
    pending_next: list[tuple[int, ElementKind, tuple[int, ...]]] = []

    def parse_node(value: object, at_root: bool) -> ScNode:
        keys = ("uid", "kind", "name", "children")
        if isinstance(value, dict) and value.get("kind") in _LINKED_KIND_NAMES:
            keys = ("uid", "kind", "name", "next", "children")
        node = _expect_object(value, "node", keys)
        uid = node["uid"]
        if not isinstance(uid, int) or isinstance(uid, bool) or uid < 0:
            raise DocumentError("node uid must be a non-negative integer")
        if uid in seen_uids:
            raise DocumentError(f"duplicate uid {uid}")
        seen_uids.add(uid)
        kind_name = _expect_str(node["kind"], "node kind")
        kind = _KIND_BY_NAME.get(kind_name)
        if kind is None:
            raise DocumentError(f"unknown kind {kind_name!r}")
        if (kind is ElementKind.STATECHART) != at_root:
            raise DocumentError(
                "Statechart must appear exactly at the document root"
            )
        name = _expect_str(node["name"], "node name")
        raw_children = node["children"]
        if not isinstance(raw_children, list):
            raise DocumentError("children must be a list")
        nxt: tuple[int, ...] = ()
        if kind_name in _LINKED_KIND_NAMES:
            raw_next = node["next"]
            if not isinstance(raw_next, list) or not all(
                isinstance(u, int) and not isinstance(u, bool)
                for u in raw_next
            ):
                raise DocumentError("next must be a list of uids")
            nxt = tuple(raw_next)
            pending_next.append((uid, kind, nxt))
            if raw_children:
                raise DocumentError(f"{kind_name} nodes cannot have children")
        children = tuple(parse_node(c, at_root=False) for c in raw_children)
        if kind is ElementKind.STATECHART:
            if len(children) != 1 or children[0].kind != "AND":
                raise DocumentError(
                    "Statechart must have exactly one AND child (its top "
                    "state)"
                )
        uid_kinds[uid] = kind
        tally[_KIND_TO_COUNT_KEY[kind]] += 1
        return ScNode(uid, kind_name, name, children, nxt)

    root = parse_node(raw["root"], at_root=True)
    for owner, owner_kind, targets in pending_next:
        want = (
            ElementKind.BASIC
            if owner_kind is ElementKind.HYPER_EDGE
            else ElementKind.HYPER_EDGE
        )
        for uid in targets:
            if uid_kinds.get(uid) is not want:
                raise DocumentError(
                    f"{owner_kind.value} {owner} links to uid {uid}, "
                    f"which is not a {want.value} in the tree"
                )
    if tally != counts:
        raise DocumentError(
            f"counts object {counts} does not match the tree {tally}"
        )
    return StatechartDocument(root, counts)


def store_from_statechart(doc: StatechartDocument) -> ModelStore:
    """Materialize a statechart document as a model store."""
    sc = ModelStore()
    by_uid: dict[int, int] = {}
    linked: list[tuple[int, tuple[int, ...]]] = []

    def build(node: ScNode, container: int | None) -> None:
        eid = sc.create(_KIND_BY_NAME[node.kind], node.name)
        by_uid[node.uid] = eid
        if container is not None:
            if sc.kind_of(container) is ElementKind.STATECHART:
                sc.set_ref(container, "topState", eid)
            else:
                sc.add_ref(container, "contains", eid)
        if node.kind in _LINKED_KIND_NAMES:
            linked.append((eid, node.next))
        for child in node.children:
            build(child, eid)

    build(doc.root, None)
    for eid, targets in linked:
        for uid in targets:
            sc.add_ref(eid, "next", by_uid[uid])
    return sc


def read_statechart(data: bytes | str) -> ModelStore:
    """Parse a statechart document into a fresh model store."""
    return store_from_statechart(parse_statechart(data))
