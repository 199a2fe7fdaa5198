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
statecharts of any depth can be written, and hands them out in chunks of
at most about 64 KB (``statechart_document_chunks``), so writing a file
holds one chunk at a time whatever the size of the output. Almost all of
a deep file is its indentation, so the counterpart ``statechart_text``
reads a file's chunks back without the spaces that follow each line
break: reading holds one chunk and the text that is left, which on
four nested fork/join spines 60 to 100 deep is 195 KB of a 7.7 MB file.

In memory a statechart document is flat (``StatechartDocument``): per-node
lists of uids, kinds, names, children and links, numbered depth by depth.
The reader fills them in one breadth-first pass, the writer walks them
with an explicit stack, and ``rank_statecharts`` ranks them as they stand
and rejects any other numbering, so ``pn2sc validate`` goes from bytes to
ranks without building a ``ModelStore``; ``store_from_statechart`` builds
one, with no recursion, for callers that want a store.
``canonical_document`` puts a document in the canonical written form.
Both transform routes end in it: ``document_from_statechart`` numbers a
store's nodes, and ``flat.transform_net`` its flat lists, breadth-first in
containment order. Readers accept any well-formed document but reject
unknown fields. A document nested past what ``json.loads`` reads is read
by ``_loads_iteratively``: memory is the only bound on depth. One with an
integer over Python's digit limit is a DocumentError.

The converters to and from ``ModelStore`` import ``pn2sc.model`` when
they run, so importing this module loads no store code.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from itertools import compress, count
from io import BytesIO
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .flat import ReductionResult
    from .model import ModelStore

__all__ = [
    "DocumentError",
    "ElementKind",
    "PlaceSpec",
    "TransitionSpec",
    "PetriNetDocument",
    "StatechartDocument",
    "parse_petri_net",
    "store_from_petri_net",
    "read_petri_net",
    "petri_net_to_bytes",
    "RankedTrees",
    "rank_statecharts",
    "canonical_document",
    "STATECHART_KINDS",
    "kind_counts",
    "document_from_statechart",
    "statechart_document_chunks",
    "statechart_document_to_bytes",
    "write_statechart",
    "statechart_text",
    "parse_statechart",
    "store_from_statechart",
    "read_statechart",
]


class DocumentError(ValueError):
    """A document failed to parse or violated its schema."""


class _TextError(DocumentError):
    """A document is not UTF-8 or not JSON, at a position the error names."""


class ElementKind(Enum):
    """The element kinds, by the names the file formats give them."""

    PLACE = "Place"
    TRANSITION = "Transition"
    BASIC = "Basic"
    OR = "OR"
    AND = "AND"
    HYPER_EDGE = "HyperEdge"
    STATECHART = "Statechart"


# --- Petri net documents ---------------------------------------------------


class PlaceSpec(NamedTuple):
    id: str
    name: str


class TransitionSpec(NamedTuple):
    id: str
    name: str
    pre: tuple[str, ...]
    post: tuple[str, ...]


class PetriNetDocument(NamedTuple):
    places: tuple[PlaceSpec, ...]
    transitions: tuple[TransitionSpec, ...]


_SCAN_SCALAR = json.scanner.make_scanner(json.JSONDecoder())
_SKIP = json.decoder.WHITESPACE.match
#: From Python 3.13 on, json names a comma before a closing bracket.
_NAMES_TRAILING_COMMA = sys.version_info >= (3, 13)


def _loads_iteratively(text: str) -> object:
    """``json.loads(text)`` with the open containers on a list, not on the
    C stack, so that any depth reads. Rejected text raises the JSONDecodeError
    of ``json.loads``, message and position alike (bar a leading BOM)."""
    fail = json.JSONDecodeError
    opened: list[list] = []  # [members, key of the next one, "]" or "}"]
    at, keyed = _SKIP(text, 0).end(), False
    while True:
        if keyed:  # a member of the innermost object starts at ``at``
            if text[at:at + 1] != '"':
                raise fail("Expecting property name enclosed in double "
                           "quotes", text, at)
            opened[-1][1], at = json.decoder.scanstring(text, at + 1)
            at = _SKIP(text, at).end()
            if text[at:at + 1] != ":":
                raise fail("Expecting ':' delimiter", text, at)
            at = _SKIP(text, at + 1).end()
        char = text[at:at + 1]
        if char == "[" or char == "{":
            close = "]" if char == "[" else "}"
            at = _SKIP(text, at + 1).end()
            if text[at:at + 1] != close:  # read its first member next
                opened.append([[], None, close])  # an object's as pairs
                keyed = close == "}"
                continue
            value, at = ([] if close == "]" else {}), at + 1
        else:  # the scanner recurses only into containers
            try:
                value, at = _SCAN_SCALAR(text, at)
            except StopIteration as stop:
                raise fail("Expecting value", text, stop.value) from None
        while opened:  # store the value, then close what ends after it
            members, key, close = opened[-1]
            members.append(value if close == "]" else (key, value))
            at = _SKIP(text, at).end()
            if text[at:at + 1] == ",":
                comma, at = at, _SKIP(text, at + 1).end()
                if _NAMES_TRAILING_COMMA and text[at:at + 1] == close:
                    raise fail("Illegal trailing comma before end of "
                               + ("array" if close == "]" else "object"),
                               text, comma)
                keyed = close == "}"
                break
            if text[at:at + 1] != close:
                raise fail("Expecting ',' delimiter", text, at)
            opened.pop()
            value, at = (members if close == "]" else dict(members)), at + 1
        else:
            at = _SKIP(text, at).end()
            if at != len(text):
                raise fail("Extra data", text, at)
            return value


def _decode(data: bytes | str) -> object:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _TextError(f"not valid UTF-8: {exc}") from None
    try:
        try:
            return json.loads(data)
        except RecursionError:  # nested past the json module's bound
            return _loads_iteratively(data)
    except json.JSONDecodeError as exc:
        raise _TextError(f"JSON parse error at line {exc.lineno} column "
                         f"{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal over the digit limit
        reason = str(exc).partition(";")[0]
        raise DocumentError(f"JSON integer not readable: {reason}") from None


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


_PLACE_FIELDS = ("id", "name")
_TRANSITION_FIELDS = ("id", "name", "pre", "post")
_PLACE_KEYS = frozenset(_PLACE_FIELDS)
_TRANSITION_KEYS = frozenset(_TRANSITION_FIELDS)


def _arc_fault(tid: str, pre: object, post: object,
               place_ids: frozenset[str]) -> str:
    """The message for the first fault in transition ``tid``'s arcs: each
    side must be a list of strings, then hold no place twice and only
    known places."""
    sides = (("pre", pre), ("post", post))
    for side, pids in sides:
        if type(pids) is not list:
            return f"{side} of {tid!r} must be a list"
        if any(type(pid) is not str for pid in pids):
            return f"entry of {side} of {tid!r} must be a string"
    for side, pids in sides:
        if len(set(pids)) != len(pids):
            return f"duplicate {side} entry on {tid!r}"
        for pid in pids:
            if pid not in place_ids:
                return f"transition {tid!r} references unknown place {pid!r}"
    raise AssertionError(f"the arcs of {tid!r} have no fault")


def parse_petri_net(data: bytes | str) -> PetriNetDocument:
    """Parse and schema-check a Petri net document.

    Each entry is checked once, in an order that makes its first fault
    name the DocumentError: a place's id, that the id is new, its name; a
    transition's id, that the id is new, its arcs (see ``_arc_fault``),
    its name. json.loads yields only exact types, so the tests are exact.
    """
    raw = _expect_object(_decode(data), "document", ("places", "transitions"))
    if not isinstance(raw["places"], list) or not isinstance(
        raw["transitions"], list
    ):
        raise DocumentError("'places' and 'transitions' must be lists")
    seen_ids: set[str] = set()
    places = []
    for item in raw["places"]:
        if type(item) is not dict or item.keys() != _PLACE_KEYS:
            _expect_object(item, "place", _PLACE_FIELDS)
        pid, name = item["id"], item["name"]
        if type(pid) is not str:
            raise DocumentError("place id must be a string")
        if pid in seen_ids:
            raise DocumentError(f"duplicate id {pid!r}")
        if type(name) is not str:
            raise DocumentError("place name must be a string")
        seen_ids.add(pid)
        places.append(PlaceSpec(pid, name))
    place_ids = frozenset(seen_ids)

    transitions = []
    for item in raw["transitions"]:
        if type(item) is not dict or item.keys() != _TRANSITION_KEYS:
            _expect_object(item, "transition", _TRANSITION_FIELDS)
        tid, name, pre, post = (item["id"], item["name"], item["pre"],
                                item["post"])
        if type(tid) is not str:
            raise DocumentError("transition id must be a string")
        if tid in seen_ids:
            raise DocumentError(f"duplicate id {tid!r}")
        try:
            arcs_ok = (type(pre) is list and type(post) is list
                       and place_ids.issuperset(pre)
                       and place_ids.issuperset(post)
                       and len(set(pre)) == len(pre)
                       and len(set(post)) == len(post))
        except TypeError:  # an unhashable entry
            arcs_ok = False
        if not arcs_ok:
            raise DocumentError(_arc_fault(tid, pre, post, place_ids))
        if type(name) is not str:
            raise DocumentError("name must be a string")
        seen_ids.add(tid)
        transitions.append(TransitionSpec(tid, name, tuple(pre), tuple(post)))
    return PetriNetDocument(tuple(places), tuple(transitions))


def store_from_petri_net(doc: PetriNetDocument) -> ModelStore:
    """Materialize a document: places first, then transitions, then arcs."""
    from .model import ModelStore

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


class StatechartDocument(NamedTuple):
    """A statechart's containment tree as flat lists indexed by node number.

    Node 0 is the Statechart. Nodes are numbered depth by depth: the nodes
    of each depth form one contiguous range that follows the shallower
    ones. ``uids`` holds each node's uid, ``children`` the node numbers of
    its children in order, and ``links`` the node numbers of a Basic's or
    HyperEdge's ``next`` targets, without repeats (empty for other kinds).
    ``counts`` is the per-kind tally of the tree, under the file's keys.
    Ranking requires the numbering and rejects a document without it.

    ``parse_statechart`` numbers the nodes breadth-first in file order.
    ``canonical_document`` gives the canonical document: children in rank
    order, uids in preorder and links in ascending uid order. Both
    transform routes end in it.
    """

    uids: list[int]
    kinds: list[str]
    names: list[str]
    children: list[Sequence[int]]
    links: list[tuple[int, ...]]
    counts: dict[str, int]

    def count_of_kind(self, kind: ElementKind) -> int:
        """The tally of one kind, as ``ModelStore.count_of_kind`` gives it
        for a store."""
        return self.counts.get(kind.value.lower(), 0)


#: The kinds a statechart file holds, in the order of its counts object.
STATECHART_KINDS = (ElementKind.STATECHART, ElementKind.AND, ElementKind.OR,
                    ElementKind.BASIC, ElementKind.HYPER_EDGE)
_COUNT_KEYS = tuple(kind.value.lower() for kind in STATECHART_KINDS)
_KIND_BY_NAME = {kind.value: kind for kind in STATECHART_KINDS}
#: One string object per kind name, which the reader stores for every node
#: of that kind: it holds one object, not one per node, and ranking reads
#: the same five objects throughout.
_KIND_TEXTS = {kind.value: kind.value for kind in STATECHART_KINDS}
_LINKED_KINDS = (ElementKind.BASIC, ElementKind.HYPER_EDGE)
_LINKED_KIND_NAMES = tuple(kind.value for kind in _LINKED_KINDS)
_NODE_FIELDS = ("uid", "kind", "name", "children")
_LINKED_NODE_FIELDS = ("uid", "kind", "name", "next", "children")
_NODE_KEYS = frozenset(_NODE_FIELDS)
_LINKED_NODE_KEYS = frozenset(_LINKED_NODE_FIELDS)
_INT_TYPE = frozenset((int,))  # exact: bool is a subclass, and rejected


def kind_counts(kinds: list[str]) -> dict[str, int]:
    """The counts object of a statechart whose nodes have the kind names
    ``kinds``: each statechart kind's tally under its count key, the
    lower-cased kind name, in file order."""
    tally = Counter(kinds)
    return {kind.value.lower(): tally[kind.value] for kind in STATECHART_KINDS}


def _store_document(sc: ModelStore) -> StatechartDocument:
    """Flatten the containment tree of a statechart model breadth-first, in
    containment order; the uids are the element ids.

    The model must contain exactly one Statechart element with a top
    state, and every link must stay inside the containment tree;
    otherwise a DocumentError is raised.
    """
    charts = sc.all_of_kind(ElementKind.STATECHART)
    if len(charts) != 1:
        raise DocumentError(
            f"expected exactly one Statechart element, found {len(charts)}"
        )
    top = sc.ref(charts[0], "topState")
    if top is None:
        raise DocumentError("Statechart has no top state")
    kinds: list[str] = []
    names: list[str] = []
    children: list[Sequence[int]] = []
    node_of: dict[int, int] = {}
    pending: list[tuple[int, int, tuple[int, ...]]] = []
    # ``uids`` is also the queue: appending a node's children as it is
    # read numbers every node breadth-first.
    uids = [charts[0]]
    for node, eid in enumerate(uids):
        node_of[eid] = node
        kind = sc.kind_of(eid)
        kinds.append(kind.value)
        names.append(sc.name_of(eid))
        if kind in _LINKED_KINDS:
            pending.append((node, eid, sc.refs(eid, "next")))
            children.append(())
            continue
        first = len(uids)
        if kind is ElementKind.STATECHART:
            uids.append(top)
        else:
            uids += sc.view(eid, "contains")
        children.append(range(first, len(uids)) if len(uids) > first else ())
    links: list[tuple[int, ...]] = [()] * len(uids)
    for node, eid, targets in pending:
        try:
            links[node] = tuple([node_of[t] for t in targets])
        except KeyError:
            raise DocumentError(
                f"element {eid} links outside the containment tree"
            ) from None
    return StatechartDocument(uids, kinds, names, children, links,
                              kind_counts(kinds))


class RankedTrees(NamedTuple):
    """The containment trees of one or more statechart models, flattened.

    Each model's nodes keep the numbers its document gives them, after the
    nodes of the models before it, and every list is indexed by node
    number. ``roots`` holds each model's root node, and each ``children``
    list is in canonical order.

    Both kinds of rank are dense, distinct between levels and shared by
    all models ranked together: ``paths`` ranks rise with depth and
    ``ranks`` fall with it. Two nodes have equal ``paths`` ranks exactly
    when the kinds and names from the root down to them are equal, and
    equal ``ranks`` exactly when they sit at one depth and their subtrees
    are equal in kinds, names and the name paths of the Basics each
    HyperEdge links to and from. Within a level, ``paths`` ranks follow
    the order of (parent's ``paths`` rank, kind, name) and ``ranks`` the
    order of (kind, name, the sorted ``paths`` ranks of the Basics a
    HyperEdge links to, of those that link to it, the sorted ``ranks`` of
    the children).
    """

    roots: list[int]
    kinds: list[str]
    names: list[str]
    parents: list[int]
    children: list[Sequence[int]]
    paths: list[int]
    ranks: list[int]


#: One depth of a document: its first node and the end of its range, both
#: shifted, and its nodes that have children, not shifted.
_Level = tuple[int, int, list[int]]
_NOT_DEPTH_NUMBERED = "document is not numbered depth by depth"


def _layout(children: list[Sequence[int]], offset: int,
            parents: list[int]) -> list[_Level]:
    """The levels of a document numbered depth by depth, shifted by
    ``offset``, with each node's parent set in ``parents`` (-1 on entry).
    A range of children that starts where the level's children so far end
    sets its parents at once, other children one at a time; a level's
    children must then be exactly the next node numbers, each once. A
    document numbered any other way raises a DocumentError."""
    levels: list[_Level] = []
    containers = list(compress(range(len(children)), children))
    start, end, expected, first, listed = 0, 1, 1, 0, False
    for at, node in enumerate(containers):
        while node >= end:  # the first container of a deeper level
            if expected == end or listed and (
                -1 in parents[offset + end:offset + expected]
            ):
                raise DocumentError(_NOT_DEPTH_NUMBERED)
            levels.append((start + offset, end + offset,
                           containers[first:at]))
            start, end, first, listed = end, expected, at, False
        kids = children[node]
        if type(kids) is range and kids.start == expected and (
            kids.step == 1
        ):
            parents[offset + expected:offset + kids.stop] = (
                [offset + node] * len(kids))
            expected = kids.stop
        else:
            if not end <= min(kids) <= max(kids) < len(children):
                raise DocumentError(_NOT_DEPTH_NUMBERED)
            for kid in kids:
                parents[offset + kid] = offset + node
            expected += len(kids)
            listed = True  # check the level's children when it closes
    misplaced = listed and -1 in parents[offset + end:offset + expected]
    while start < end:
        levels.append((start + offset, end + offset, containers[first:]))
        start, end, first = end, expected, len(containers)
    if misplaced or start != len(children):
        raise DocumentError(_NOT_DEPTH_NUMBERED)
    return levels


def _dense(keys: list, base: int, out: list[int],
           spans: list[tuple[int, int]]) -> int:
    """Rank ``keys`` densely from ``base`` up, in sorted key order, into
    the ranges ``spans`` of ``out``, which hold one key each in turn.
    Return the first rank left unused."""
    table = dict(zip(sorted(set(keys)), count(base)))
    at = 0
    for start, end in spans:
        out[start:end] = map(table.__getitem__, keys[at:at + end - start])
        at += end - start
    return base + len(table)


def rank_statecharts(*models: ModelStore | StatechartDocument) -> RankedTrees:
    """Rank the containment trees of ``models`` into one canonical form.

    This is the level-by-level tree isomorphism scheme of Aho, Hopcroft
    and Ullman (*The Design and Analysis of Computer Algorithms*, 1974,
    section 3.2), with integer keys and no recursion. A document is
    ranked as it stands, and a store once flattened breadth-first. Each
    level of each model is one range of nodes whose children are the next
    range (see ``_layout``), so the passes below read slices and never
    lay a tree out again:

    1. Top down, a level at a time: each node's label is the rank of its
       kind and name among the level's, and its name-path rank that of
       one int made of its parent's name-path rank and its label.
    2. One walk over the links of the Basics gathers, for each HyperEdge,
       the name-path ranks of the Basics linking to it; with those of the
       Basics it links to they make its signature. Only a HyperEdge whose
       name recurs at its level needs one, so a walk over unique names
       builds no lists.
    3. Bottom up, a level at a time: each container's children are sorted
       by rank, and the level's tails (each container's child ranks, each
       signature) are ranked together. A node's structural key is then
       one int, its label scaled above every tail rank plus its own, so
       each level sorts and hashes ints.

    A DocumentError is raised for a document not numbered depth by depth
    and for a store without exactly one Statechart element with a top
    state, or with a link outside the containment tree.
    """
    docs = [model if isinstance(model, StatechartDocument)
            else _store_document(model) for model in models]
    roots = []
    total = 0
    for doc in docs:
        roots.append(total)
        total += len(doc.kinds)
    parents = [-1] * total
    layouts = [_layout(doc.children, offset, parents)
               for doc, offset in zip(docs, roots)]
    kinds: list[str] = []
    names: list[str] = []
    for doc in docs:
        kinds += doc.kinds
        names += doc.names
    depths = max(map(len, layouts), default=0)
    kind_codes = {kind: code for code, kind in enumerate(sorted(set(kinds)))}

    labels = [0] * total
    paths = [0] * total
    repeated = [False] * total  # another node of the level has its name
    base = above = 0
    for depth in range(depths):
        spans = [levels[depth][:2] for levels in layouts
                 if depth < len(levels)]
        tally: Counter[str] = Counter()
        for start, end in spans:
            tally.update(names[start:end])
        name_ranks = dict(zip(sorted(tally), count()))
        width = len(name_ranks)
        spread = len(kind_codes) * width  # above every label
        keys: list[int] = []
        for start, end in spans:
            labels[start:end] = level = [
                kind_codes[kind] * width + name_ranks[name]
                for kind, name in zip(kinds[start:end], names[start:end])
            ]
            repeated[start:end] = [tally[name] > 1
                                   for name in names[start:end]]
            if depth:
                level = [(paths[parent] - above) * spread + label
                         for parent, label in zip(parents[start:end], level)]
            keys += level
        above = base
        base = _dense(keys, base, paths, spans)

    # Only a HyperEdge whose name is repeated at its level needs its
    # signature: a label alone at its level ranks the node by itself.
    hyper_edge = ElementKind.HYPER_EDGE.value
    signatures: dict[int, tuple[int, ...]] = {}
    for doc, offset in zip(docs, roots):
        links, doc_kinds = doc.links, doc.kinds
        path_of = paths[offset:offset + len(links)]
        shared = repeated[offset:offset + len(links)]
        incoming: list[list[int] | None] = [None] * len(links)
        edges = []
        for node in compress(range(len(links)), links):
            if doc_kinds[node] == hyper_edge:
                if shared[node]:
                    edges.append(node)
                continue
            path = path_of[node]
            for target in links[node]:
                if shared[target]:
                    sources = incoming[target]
                    if sources is None:
                        incoming[target] = [path]
                    else:
                        sources.append(path)
        # A signature is the sorted targets, -1, then the sorted sources,
        # which sorts as the pair of them does.
        for node in edges:
            targets = links[node]
            sources = incoming[node]
            incoming[node] = None
            if sources is None:
                sources = ()
            elif len(sources) > 1:
                sources.sort()
            signatures[offset + node] = (
                (path_of[targets[0]], -1, *sources) if len(targets) == 1
                else (*sorted([path_of[t] for t in targets]), -1, *sources)
            )
        for node in compress(range(len(links)), incoming):
            if doc_kinds[node] == hyper_edge:
                signatures[offset + node] = (-1, *sorted(incoming[node]))
    linked = sorted(signatures)

    ranks = [0] * total
    children: list[Sequence[int]] = [()] * total
    rank_of = ranks.__getitem__
    base = 0
    for depth in range(depths - 1, -1, -1):
        # The tails of the level: each container's children's ranks,
        # sorted, and each linked HyperEdge's signature, in node order.
        parts = []
        tails = []
        for levels, doc, offset in zip(layouts, docs, roots):
            if depth >= len(levels):
                continue
            start, end, containers = levels[depth]
            parts.append((start, end, containers, offset))
            doc_children = doc.children
            for node in containers:
                kids = doc_children[node]
                if offset:
                    kids = (range(kids.start + offset, kids.stop + offset,
                                  kids.step) if type(kids) is range
                            else [kid + offset for kid in kids])
                if len(kids) > 1:
                    kids = sorted(kids, key=rank_of)
                    tails.append(tuple(map(rank_of, kids)))
                else:
                    tails.append((ranks[kids[0]],))
                children[node + offset] = kids
            tails += map(signatures.__getitem__,
                         linked[bisect_left(linked, start):
                                bisect_left(linked, end)])
        # Each node's key is one int: its label times ``scale`` plus the
        # rank of its tail among the level's, from 1, or 0 for none.
        heads = dict(zip(sorted(set(tails)), count(1)))
        scale = len(heads) + 1
        ranked_tails = map(heads.__getitem__, tails)
        keys = []
        for start, end, containers, offset in parts:
            level = [label * scale for label in labels[start:end]]
            for node in containers:
                level[node + offset - start] += next(ranked_tails)
            for node in linked[bisect_left(linked, start):
                               bisect_left(linked, end)]:
                level[node - start] += next(ranked_tails)
            keys += level
        base = _dense(keys, base, ranks, [part[:2] for part in parts])
    return RankedTrees(roots, kinds, names, parents, children, paths, ranks)


def canonical_document(doc: StatechartDocument) -> StatechartDocument:
    """The canonical form of a document: children in canonical order (see
    ``rank_statecharts``), a node's uid its preorder index and each node's
    links in ascending uid order. ``doc`` itself is not changed.

    A document not numbered depth by depth is a DocumentError. One
    preorder walk numbers the uids; only two or more links are sorted.
    """
    trees = rank_statecharts(doc)
    # Keep only what the document needs; the ranks, paths and parents
    # are freed before the uids are numbered.
    kinds, names, children = trees.kinds, trees.names, trees.children
    del trees
    uids = [0] * len(kinds)
    stack = [0]
    pop = stack.pop
    for uid in range(len(kinds)):
        node = pop()
        uids[node] = uid
        kids = children[node]
        if kids:
            stack += reversed(kids)
    links = list(doc.links)
    for node, targets in enumerate(links):
        if len(targets) > 1:
            links[node] = tuple(sorted(targets, key=uids.__getitem__))
    return StatechartDocument(uids, kinds, names, children, links,
                              doc.counts)


def document_from_statechart(sc: ModelStore) -> StatechartDocument:
    """Build the canonical document for a statechart model.

    The model must contain exactly one Statechart element; the tree is the
    containment hierarchy reachable from it, with the top state as the
    Statechart's single child, laid out breadth-first in containment order
    and then put in canonical form by ``canonical_document``.
    """
    return canonical_document(_store_document(sc))


#: ``statechart_document_chunks`` joins what it holds into one chunk once
#: it may hold this many bytes. ``pn2sc validate`` reads files in chunks
#: of ``_CHUNK_BYTES`` too. ``statechart_text`` holds about 220
#: bytes per line of the chunk it cuts, some four times the chunk on a
#: shallow tree, so chunks of 1 MB made reading a 440 KB file cost more
#: than reading it whole, and 64 KB do not.
_CHUNK_BYTES = 1 << 16


def statechart_document_chunks(doc: StatechartDocument) -> Iterator[bytes]:
    """Encode a document to exactly the bytes of
    ``json.dumps(payload, indent=2) + "\\n"``, as a sequence of chunks.
    ``payload`` holds each node's fields in the order uid, kind, name, next
    (Basic and HyperEdge only), children, with children and next in the
    document's order.

    The text is written directly, with an explicit stack instead of
    recursion, so documents of any depth encode. It is collected as ASCII
    byte pieces. After each node's text and each closing bracket, once the
    pieces held may reach ``_CHUNK_BYTES`` bytes (the count takes every
    line at its longest), they are joined and handed out, so no chunk is
    longer than that bound plus one node's text (and the counts, in the
    last). The line breaks that indent the text are slices of one shared
    run of spaces, three per depth, so the memory held grows with neither
    the output nor the square of the depth.
    """
    encode_str = encode_basestring_ascii
    linked = _LINKED_KIND_NAMES
    max_bytes = _CHUNK_BYTES
    uids, kinds, names, children, links = (
        doc.uids, doc.kinds, doc.names, doc.children, doc.links
    )
    kind_text = {
        kind: b'"kind": %b,' % encode_str(kind).encode("ascii")
        for kind in _KIND_BY_NAME
    }
    # With indent=2 a node at tree depth d opens at JSON nesting 2d + 1
    # (each tree level is one object inside one "children" list), so its
    # closing brace sits at indent 4d + 2, its keys at 4d + 4 and its list
    # items at 4d + 6. levels[d] holds those three line breaks and a bound
    # on the bytes of one line at that depth, its text included, except a
    # name.
    pad = memoryview(b"")
    levels: list[tuple[memoryview, memoryview, memoryview, int]] = []
    out: list[bytes | memoryview] = [b'{\n  "root": ']
    held = len(out[0])  # at least the bytes in out
    # Items are (node, depth, after_sibling) triples to encode, or the
    # depth of a node whose children list is to be closed.
    stack: list[tuple[int, int, bool] | int] = [(0, 0, False)]
    while stack:
        if held >= max_bytes:
            yield b"".join(out)
            out.clear()
            held = 0
        item = stack.pop()
        if type(item) is int:
            close, keys, _, line = levels[item]
            out += (keys, b"]", close, b"}")
            held += 2 * line
            continue
        node, depth, after_sibling = item
        if depth == len(levels):
            width = 4 * depth + 7
            if len(pad) < width:
                pad = memoryview(b"\n" + b" " * (2 * width))
            levels.append((pad[:width - 4], pad[:width - 2], pad[:width],
                           width + 24))
        close, keys, items, line = levels[depth]
        if after_sibling:
            out += (b",", close)
        name = encode_str(names[node]).encode("ascii")
        kind = kinds[node]
        out += (b"{", keys, b'"uid": %d,' % uids[node], keys, kind_text[kind],
                keys, b'"name": ', name)
        # at most eight lines: the separator, uid, kind, name, next and its
        # closing, children, and the closing brace or the first child's
        # line break
        held += 8 * line + len(name)
        if kind in linked:
            out += (b",", keys, b'"next": ')
            targets = links[node]
            if targets:
                out.append(b"[")
                for target in targets:
                    out += (items, b"%d" % uids[target], b",")
                out[-1] = keys
                out.append(b"]")
                held += len(targets) * line
            else:
                out.append(b"[]")
        out += (b",", keys, b'"children": ')
        kids = children[node]
        if kids:
            out += (b"[", items)
            stack.append(depth)
            child_depth = depth + 1
            for position in range(len(kids) - 1, 0, -1):
                stack.append((kids[position], child_depth, True))
            stack.append((kids[0], child_depth, False))
        else:
            out += (b"[]", close, b"}")
    counts = ",\n    ".join(
        f'"{key}": {doc.counts[key]}' for key in _COUNT_KEYS
    )
    out.append(f',\n  "counts": {{\n    {counts}\n  }}\n}}\n'.encode("ascii"))
    yield b"".join(out)


def statechart_document_to_bytes(doc: StatechartDocument) -> bytes:
    """The chunks of ``statechart_document_chunks(doc)`` in one ``bytes``
    object, for callers that want the whole file in memory.

    The chunks go into a ``BytesIO``, whose buffer grows in place and is
    handed out without a copy, so the output is held once; ``b"".join``
    would hold every chunk and their join together, twice the output.
    """
    buffer = BytesIO()
    buffer.writelines(statechart_document_chunks(doc))
    return buffer.getvalue()


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


_INDENT = re.compile(rb"\n +")


def statechart_text(chunks: Iterable[bytes]) -> bytes:
    """The bytes of a file, given as ``chunks``, without the spaces that
    follow each line break, for ``parse_statechart``.

    ``json.loads`` rejects a raw line break inside a string, so in a
    document it can read every run dropped lies between two tokens. Each
    line break stays, so the tokens stay apart, a document reads as the
    same value and one it rejects stays rejected. Only the column and the
    offset an error names move. The bytes 0x0A and 0x20 occur in no
    multi-byte UTF-8 sequence, so the bytes can be cut before they are
    decoded.

    Each chunk is cut on its own, and a run split between two chunks is
    dropped too: no chunk is joined to the next, so a file of one line is
    read in time linear in its length.
    """
    out = BytesIO()
    after_break = False
    for chunk in chunks:
        if after_break:
            chunk = chunk.lstrip(b" ")
            if not chunk:
                continue
        chunk = _INDENT.sub(b"\n", chunk)
        out.write(chunk)
        after_break = chunk.endswith(b"\n")
    return out.getvalue()


def parse_statechart(data: bytes | str) -> StatechartDocument:
    """Parse and schema-check a statechart document.

    One breadth-first pass over the output of ``json.loads`` fills the
    document's lists, so no depth of tree needs recursion here. Repeated
    uids in a ``next`` list count once. ``data`` may be a file's bytes as
    they stand or as ``statechart_text`` gives them: both give the same
    document, and the same error, except for the column and the offset
    that a parse error names.
    """
    raw = _expect_object(_decode(data), "document", ("root", "counts"))
    counts_raw = _expect_object(raw["counts"], "counts", _COUNT_KEYS)
    counts = {}
    for key in _COUNT_KEYS:
        value = counts_raw[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"count {key!r} must be an integer")
        counts[key] = value

    uids: list[int] = []
    kinds: list[str] = []
    names: list[str] = []
    children: list[Sequence[int]] = []
    node_of: dict[int, int] = {}
    pending: list[tuple[int, list[int]]] = []
    # ``queue`` holds the raw nodes; appending a node's children as it is
    # read numbers every node breadth-first.
    queue = [raw["root"]]
    for node, value in enumerate(queue):
        # json.loads yields only exact dict, list, str and int types (bool
        # aside), so the type tests below are exact.
        linked = (type(value) is dict
                  and value.get("kind") in _LINKED_KIND_NAMES)
        keys = _LINKED_NODE_KEYS if linked else _NODE_KEYS
        if type(value) is not dict or value.keys() != keys:
            _expect_object(value, "node",
                           _LINKED_NODE_FIELDS if linked else _NODE_FIELDS)
        uid = value["uid"]
        if type(uid) is not int or uid < 0:
            raise DocumentError("node uid must be a non-negative integer")
        if uid in node_of:
            raise DocumentError(f"duplicate uid {uid}")
        node_of[uid] = node
        kind = value["kind"]
        if type(kind) is not str:
            raise DocumentError("node kind must be a string")
        if kind not in _KIND_TEXTS:
            raise DocumentError(f"unknown kind {kind!r}")
        kind = _KIND_TEXTS[kind]
        if (kind == "Statechart") != (node == 0):
            raise DocumentError(
                "Statechart must appear exactly at the document root"
            )
        name = value["name"]
        if type(name) is not str:
            raise DocumentError("node name must be a string")
        raw_children = value["children"]
        if type(raw_children) is not list:
            raise DocumentError("children must be a list")
        if linked:
            raw_next = value["next"]
            if type(raw_next) is not list or not _INT_TYPE.issuperset(
                map(type, raw_next)
            ):
                raise DocumentError("next must be a list of uids")
            if raw_next:
                pending.append((node, raw_next))
            if raw_children:
                raise DocumentError(f"{kind} nodes cannot have children")
        uids.append(uid)
        kinds.append(kind)
        names.append(name)
        if raw_children:
            first = len(queue)
            queue += raw_children
            children.append(range(first, len(queue)))
        else:
            children.append(())
    del queue, raw

    top = children[0]
    if len(top) != 1 or kinds[top[0]] != "AND":
        raise DocumentError(
            "Statechart must have exactly one AND child (its top state)"
        )
    links: list[tuple[int, ...]] = [()] * len(kinds)
    for owner, targets in pending:
        kind = kinds[owner]
        want = "Basic" if kind == "HyperEdge" else "HyperEdge"
        resolved = []
        for uid in targets:
            target = node_of.get(uid)
            if target is None or kinds[target] != want:
                raise DocumentError(
                    f"{kind} {uids[owner]} links to uid {uid}, which is "
                    f"not a {want} in the tree"
                )
            resolved.append(target)
        links[owner] = tuple(
            dict.fromkeys(resolved) if len(resolved) > 1 else resolved
        )
    tally = kind_counts(kinds)
    if tally != counts:
        raise DocumentError(
            f"counts object {counts} does not match the tree {tally}"
        )
    return StatechartDocument(uids, kinds, names, children, links, counts)


def store_from_statechart(doc: StatechartDocument) -> ModelStore:
    """Materialize a statechart document as a model store.

    Elements are created in node order. Containment is added deepest node
    first, so a container has no container of its own yet when it takes
    its children, and each cycle check stops at once.
    """
    from .model import ModelStore

    sc = ModelStore()
    eids = [sc.create(_KIND_BY_NAME[kind], name)
            for kind, name in zip(doc.kinds, doc.names)]
    children = doc.children
    for node in range(len(eids) - 1, 0, -1):
        owner = eids[node]
        for kid in children[node]:
            sc.add_ref(owner, "contains", eids[kid])
    for kid in children[0]:
        sc.set_ref(eids[0], "topState", eids[kid])
    for node, targets in enumerate(doc.links):
        for target in targets:
            sc.add_ref(eids[node], "next", eids[target])
    return sc


def read_statechart(data: bytes | str) -> ModelStore:
    """Parse a statechart document into a fresh model store."""
    return store_from_statechart(parse_statechart(data))
