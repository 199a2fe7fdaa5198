"""JSON documents for Petri nets and statecharts.

Petri net files::

    {
      "places": [{"id": "p0", "name": "p0"}, ...],
      "transitions": [{"id": "t0", "name": "t0",
                       "pre": ["p0"], "post": ["p1"]}, ...]
    }

The reader turns each well-formed place and transition into its record
as the JSON scanner closes the object, so it holds no dict per entry and
no list per arc side.

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

Writing is canonical: the document written is in the canonical form of
``pn2sc.rank``, so equal models produce identical bytes whatever the
order of their elements. The writer emits
the bytes of ``json.dumps(payload, indent=2)`` directly and iteratively,
so statecharts of any depth can be written, and hands them out in chunks of
at most about 64 KB (``statechart_document_chunks``), so writing a file
holds one chunk at a time whatever the size of the output. Almost all of
a deep file is its indentation, so the counterpart ``statechart_text``
reads a file's chunks back without the spaces that follow each line
break: reading holds one chunk and the text that is left, which on
four nested fork/join spines 60 to 100 deep is 195 KB of a 7.7 MB file.
``pn2sc validate`` reads a file through ``_read_squeezed`` first, which
turns each run of whitespace into one space with one ``bytes.split`` per
chunk, about twice as fast, and keeps the document only where no name
holds a space, since only a name can have been changed; any other file
is read again through ``statechart_text``.

In memory a statechart document is flat (``StatechartDocument``): per-node
lists of uids, kinds, names, children and links, numbered depth by depth.
The reader checks each node as the scanner closes it and keeps it as a
small tuple, not a dict, drops the text once it is loaded, then fills the
lists in one breadth-first pass that drops each tuple once read. The
writer walks the lists with an explicit stack, and the ranking takes
them as they stand, so ``pn2sc validate`` goes from bytes to a verdict
with no other model built. Readers accept any well-formed document but
reject unknown fields. A document nested past what the scanner reads is
read by ``_loads_iteratively``: memory is the only bound on depth. One
with an integer over Python's digit limit is a DocumentError.

Both readers parse through ``_loads``, which does what ``json.loads``
does, with the same value and the same error, by calling json's C
scanner (``_json.make_scanner``, one per object hook, made once); the
writer escapes names with ``_json.encode_basestring_ascii``. Importing
``json`` would compile six regular expressions that neither uses, so it
is imported only to raise a JSONDecodeError, to read text nested past
the scanner's bound and to write a Petri net; ``statechart_text`` alone
imports ``re``. Nothing imports ``enum``: ``ElementKind`` is a namedtuple
of the kind names as the files spell them.

The last section holds names that only perfbench imports, each a line
or two over ``flat.FlatModel``, the route ``pn2sc transform`` runs; they
import ``pn2sc.flat`` when they run, so importing this module loads
neither the transformation nor the ranking. They are not exported.
"""

from __future__ import annotations

import sys
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from io import BytesIO
from itertools import chain, compress, islice
from operator import itemgetter
from types import SimpleNamespace

from _json import encode_basestring_ascii, make_scanner

TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from .flat import FlatModel, ReductionResult

__all__ = [
    "DocumentError",
    "ElementKind",
    "PlaceSpec",
    "TransitionSpec",
    "PetriNetDocument",
    "StatechartDocument",
    "parse_petri_net",
    "petri_net_to_bytes",
    "STATECHART_KINDS",
    "kind_counts",
    "statechart_document_chunks",
    "statechart_document_to_bytes",
    "statechart_text",
    "parse_statechart",
]


class DocumentError(ValueError):
    """A document failed to parse or violated its schema."""


class _TextError(DocumentError):
    """A document is not UTF-8 or not JSON, at a position the error names."""


#: The element kinds, as the strings the file formats give them: an
#: immutable namespace that also iterates the seven names.
ElementKind = namedtuple(
    "ElementKind", "PLACE TRANSITION BASIC OR AND HYPER_EDGE STATECHART")(
    "Place", "Transition", "Basic", "OR", "AND", "HyperEdge", "Statechart")


# --- Petri net documents ---------------------------------------------------


class PlaceSpec(namedtuple("PlaceSpec", "id name")):
    """A place of a Petri net document.

    Fields: ``id: str``, ``name: str``.
    """

    __slots__ = ()


class TransitionSpec(namedtuple("TransitionSpec", "id name pre post")):
    """A transition of a Petri net document, with the place ids of its
    arcs.

    Fields: ``id: str``, ``name: str``, ``pre: tuple[str, ...]``,
    ``post: tuple[str, ...]``.
    """

    __slots__ = ()


class PetriNetDocument(namedtuple("PetriNetDocument", "places transitions")):
    """A Petri net document's entries in file order.

    Fields: ``places: tuple[PlaceSpec, ...]``,
    ``transitions: tuple[TransitionSpec, ...]``.
    """

    __slots__ = ()


#: From Python 3.13 on, json names a comma before a closing bracket.
_NAMES_TRAILING_COMMA = sys.version_info >= (3, 13)
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
_WHITESPACE = " \t\n\r"  # JSON's, which json.decoder.WHITESPACE matches


def _json_error(message: str, text: str, at: int) -> ValueError:
    """json's JSONDecodeError; json is imported only once a text fails."""
    from json import JSONDecodeError

    return JSONDecodeError(message, text, at)


def _scanner(hook: Callable[[dict], object] | None) -> Callable:
    """json's C scanner as ``json.JSONDecoder(object_hook=hook)`` makes it:
    ``make_scanner`` reads only these six attributes of the decoder."""
    return make_scanner(SimpleNamespace(
        strict=True, object_hook=hook, object_pairs_hook=None,
        parse_float=float, parse_int=int,
        parse_constant={"-Infinity": float("-inf"), "Infinity": float("inf"),
                        "NaN": float("nan")}.__getitem__))


def _skip(text: str, at: int) -> int:
    """Where the run of JSON whitespace at ``at`` ends, read 64 characters
    at a time, so that a long run is neither walked in Python nor
    copied whole."""
    while True:
        piece = text[at:at + 64]
        kept = piece.lstrip(_WHITESPACE)
        at += len(piece) - len(kept)
        if kept or not piece:
            return at


def _loads(text: str, hook: Callable[[dict], object] | None = None) -> object:
    """``json.loads(text, object_hook=hook)``: the BOM check of
    ``json.loads``, then what ``json.JSONDecoder.decode`` does, through
    the C scanner made once for each hook of the readers. Rejected text
    raises the JSONDecodeError of ``json.loads``, message and position
    alike."""
    if text.startswith("\ufeff"):
        raise _json_error(_BOM, text, 0)
    scan = _SCANNERS[hook]
    try:
        value, at = scan(text, _skip(text, 0))
    except StopIteration as stop:
        raise _json_error("Expecting value", text, stop.value) from None
    except SystemError:  # Python 3.10's scanner finds its error in json
        import json  # noqa: F401  (only a failed read gets here)

        return _loads(text, hook)
    at = _skip(text, at)
    if at != len(text):
        raise _json_error("Extra data", text, at)
    return value


def _loads_iteratively(text: str,
                       hook: Callable[[dict], object] | None = None) -> object:
    """``_loads(text, hook)`` with the open containers on a list, not on
    the C stack, so that any depth reads. Rejected text raises the
    JSONDecodeError of ``json.loads``, message and position alike. Only
    text nested past what the C scanner reads comes here, so only here
    is json imported to read."""
    import json

    fail, skip = json.JSONDecodeError, json.decoder.WHITESPACE.match
    scan_scalar = _SCANNERS[None]
    if text.startswith("\ufeff"):
        raise fail(_BOM, text, 0)
    opened: list[list] = []  # [members, key of the next one, "]" or "}"]
    at, keyed = skip(text, 0).end(), False
    while True:
        if keyed:  # a member of the innermost object starts at ``at``
            if text[at:at + 1] != '"':
                raise fail("Expecting property name enclosed in double "
                           "quotes", text, at)
            opened[-1][1], at = json.decoder.scanstring(text, at + 1)
            at = skip(text, at).end()
            if text[at:at + 1] != ":":
                raise fail("Expecting ':' delimiter", text, at)
            at = skip(text, at + 1).end()
        char = text[at:at + 1]
        if char == "[" or char == "{":
            close = "]" if char == "[" else "}"
            at = skip(text, at + 1).end()
            if text[at:at + 1] != close:  # read its first member next
                opened.append([[], None, close])  # an object's as pairs
                keyed = close == "}"
                continue
            value, at = ([] if close == "]" else {}), at + 1
            if hook is not None and close == "}":
                value = hook(value)
        else:  # the scanner recurses only into containers
            try:
                value, at = scan_scalar(text, at)
            except StopIteration as stop:
                raise fail("Expecting value", text, stop.value) from None
        while opened:  # store the value, then close what ends after it
            members, key, close = opened[-1]
            members.append(value if close == "]" else (key, value))
            at = skip(text, at).end()
            if text[at:at + 1] == ",":
                comma, at = at, skip(text, at + 1).end()
                if _NAMES_TRAILING_COMMA and text[at:at + 1] == close:
                    raise fail("Illegal trailing comma before end of "
                               + ("array" if close == "]" else "object"),
                               text, comma)
                keyed = close == "}"
                break
            if text[at:at + 1] != close:
                raise fail("Expecting ',' delimiter", text, at)
            opened.pop()
            if close == "]":
                value = members
            else:
                value = dict(members) if hook is None else hook(dict(members))
            at += 1
        else:
            at = skip(text, at).end()
            if at != len(text):
                raise fail("Extra data", text, at)
            return value


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _TextError(f"not valid UTF-8: {exc}") from None


def _decode(data: bytes | str,
            hook: Callable[[dict], object] | None = None) -> object:
    """The value of a JSON document, each object as ``hook`` returns it."""
    if isinstance(data, bytes):
        data = _utf8(data)
    try:
        try:
            return _loads(data, hook)
        except RecursionError:  # nested past the C scanner's bound
            return _loads_iteratively(data, hook)
    except ValueError as exc:
        from json import JSONDecodeError  # only a failed read loads json

        if isinstance(exc, JSONDecodeError):
            raise _TextError(f"JSON parse error at line {exc.lineno} column "
                             f"{exc.colno}: {exc.msg}") from None
        # an integer literal over the digit limit
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
# Records built with no Python frame per entry
_place = partial(tuple.__new__, PlaceSpec)
_transition = partial(tuple.__new__, TransitionSpec)


def _petri_entry(value: dict) -> object:
    """The ``object_hook`` of the Petri net reader: an object with exactly
    a place's keys and a string id and name as its ``PlaceSpec``; one with
    exactly a transition's keys, a string id and name and list arcs as its
    ``TransitionSpec``, with tuple arcs; any other object as it is.

    It neither raises nor hashes a value (an arc entry may be unhashable,
    and ``_decode`` words any ValueError as an unreadable integer):
    ``parse_petri_net`` words every fault.
    """
    size = len(value)
    if size != 2 and size != 4:
        return value
    eid, name = value.get("id"), value.get("name")
    if type(eid) is not str or type(name) is not str:
        return value
    if size == 2:
        return _place((eid, name))
    pre, post = value.get("pre"), value.get("post")
    if type(pre) is not list or type(post) is not list:
        return value
    return _transition((eid, name, tuple(pre), tuple(post)))


def _petri_object(value: object) -> object:
    """A record as the object it was read from; any other value as it is.
    So a record where no entry of its kind belongs reads as before."""
    if type(value) is PlaceSpec:
        return {"id": value.id, "name": value.name}
    if type(value) is TransitionSpec:
        return {"id": value.id, "name": value.name, "pre": list(value.pre),
                "post": list(value.post)}
    return value


def _arc_fault(tid: str, pre: object, post: object,
               place_ids: frozenset[str]) -> str | None:
    """The message for the first fault in transition ``tid``'s arcs, or
    None if they have none: each side must be a list of strings, then
    hold no place twice and only known places."""
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
    return None


def _net_sound(places: list, transitions: list) -> bool:
    """Whether the walk of ``parse_petri_net`` would pass the net, checked
    a column at a time, with no Python call per entry."""
    if not ({*map(type, places)} <= {PlaceSpec}
            and {*map(type, transitions)} <= {TransitionSpec}):
        return False
    place_ids = frozenset(map(itemgetter(0), places))
    ids = place_ids.union(map(itemgetter(0), transitions))
    if len(ids) != len(places) + len(transitions):  # an id is repeated
        return False
    try:
        for column in (itemgetter(2), itemgetter(3)):
            sides = list(map(column, transitions))
            if not place_ids.issuperset(chain.from_iterable(sides)):
                return False
            shared = list(compress(sides, map((1).__lt__, map(len, sides))))
            if list(map(len, map(set, shared))) != list(map(len, shared)):
                return False
    except TypeError:  # an unhashable arc entry
        return False
    return True


def parse_petri_net(data: bytes | str) -> PetriNetDocument:
    """Parse and schema-check a Petri net document.

    The scanner turns each well-formed entry into its record as it
    closes the object (``_petri_entry``), so an entry is held as a small
    tuple, not a dict, with tuple arcs, and a text decoded from bytes is
    dropped once it is loaded. ``_net_sound`` then checks, a column at a
    time, what needs more than the entry: that each id is new and that
    each side of a transition names known places, none twice. Only a net
    that fails is walked, each entry once as the object it was read from
    (``_petri_object``), in an order that makes its first fault name the
    DocumentError: a place's shape, id, that the id is new, its name; a
    transition's shape, id, that the id is new, its arcs (see
    ``_arc_fault``), its name.
    The scanner yields only exact types, so the tests are exact.
    """
    if isinstance(data, bytes):  # decoded here, so the bytes go with it
        data = _utf8(data)
    raw = _decode(data, _petri_entry)
    del data
    raw = _expect_object(_petri_object(raw), "document",
                         ("places", "transitions"))
    places, transitions = raw["places"], raw["transitions"]
    del raw
    if not isinstance(places, list) or not isinstance(transitions, list):
        raise DocumentError("'places' and 'transitions' must be lists")
    if not _net_sound(places, transitions):  # word its first fault
        seen_ids: set[str] = set()
        for item in map(_petri_object, places):
            _expect_object(item, "place", _PLACE_FIELDS)
            pid = item["id"]
            if type(pid) is not str:
                raise DocumentError("place id must be a string")
            if pid in seen_ids:
                raise DocumentError(f"duplicate id {pid!r}")
            if type(item["name"]) is not str:
                raise DocumentError("place name must be a string")
            seen_ids.add(pid)
        place_ids = frozenset(seen_ids)
        for item in map(_petri_object, transitions):
            _expect_object(item, "transition", _TRANSITION_FIELDS)
            tid = item["id"]
            if type(tid) is not str:
                raise DocumentError("transition id must be a string")
            if tid in seen_ids:
                raise DocumentError(f"duplicate id {tid!r}")
            fault = _arc_fault(tid, item["pre"], item["post"], place_ids)
            if fault is not None:
                raise DocumentError(fault)
            if type(item["name"]) is not str:
                raise DocumentError("name must be a string")
            seen_ids.add(tid)
    return PetriNetDocument(tuple(places), tuple(transitions))


def petri_net_to_bytes(doc: PetriNetDocument) -> bytes:
    """The bytes of ``json.dumps(payload, indent=2) + "\\n"``, ``payload``
    holding each entry as an object, in the document's order."""
    import json  # only writing a net loads it

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


class StatechartDocument(namedtuple("StatechartDocument",
                                    "uids kinds names children links")):
    """A statechart's containment tree as flat lists indexed by node number.

    Node 0 is the Statechart. Nodes are numbered depth by depth: the nodes
    of each depth form one contiguous range that follows the shallower
    ones. ``uids`` holds each node's uid, ``children`` the node numbers of
    its children in order, and ``links`` the node numbers of a Basic's or
    HyperEdge's ``next`` targets, without repeats (empty for other kinds).
    A file's counts object is not kept: ``count_of_kind`` tallies
    ``kinds``, and the writer writes that tally. Ranking (``pn2sc.rank``)
    requires the numbering and rejects a document without it.

    ``parse_statechart`` numbers the nodes breadth-first in file order.
    The canonical document has children in rank order, uids in preorder
    and links in ascending uid order. ``rank.canonical_document`` gives it
    for any document, and ``pn2sc transform`` writes through it, from the
    reduced tree's own breadth-first layout.

    Fields: ``uids: list[int]``, ``kinds: list[str]``, ``names: list[str]``,
    ``children: list[Sequence[int]]``, ``links: list[tuple[int, ...]]``.
    """

    __slots__ = ()

    def count_of_kind(self, kind: str) -> int:
        """The tally of one kind, as ``FlatModel.count_of_kind`` gives it
        for a model."""
        return self.kinds.count(kind)


#: The kinds a statechart file holds, in the order of its counts object.
STATECHART_KINDS = (ElementKind.STATECHART, ElementKind.AND, ElementKind.OR,
                    ElementKind.BASIC, ElementKind.HYPER_EDGE)
_COUNT_KEYS = tuple(kind.lower() for kind in STATECHART_KINDS)
#: One string object per kind name, which the reader stores for every node
#: of that kind: it holds one object, not one per node, and ranking reads
#: the same five objects throughout.
_KIND_TEXTS = {kind: kind for kind in STATECHART_KINDS}
_LINKED_KINDS = (ElementKind.BASIC, ElementKind.HYPER_EDGE)
_NODE_FIELDS = ("uid", "kind", "name", "children")
_LINKED_NODE_FIELDS = ("uid", "kind", "name", "next", "children")
_INT_TYPE = frozenset((int,))  # exact: bool is a subclass, and rejected


def kind_counts(kinds: list[str]) -> dict[str, int]:
    """The counts object of a statechart whose nodes have the kind names
    ``kinds``: each statechart kind's tally under its count key, the
    lower-cased kind name, in file order."""
    tally = Counter(kinds)
    return {kind.lower(): tally[kind] for kind in STATECHART_KINDS}


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
    linked = _LINKED_KINDS
    max_bytes = _CHUNK_BYTES
    uids, kinds, names, children, links = (
        doc.uids, doc.kinds, doc.names, doc.children, doc.links
    )
    kind_text = {
        kind: b'"kind": %b,' % encode_str(kind).encode("ascii")
        for kind in STATECHART_KINDS
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
    # For each open node, the later siblings of its first child and their
    # depth; ``node`` is -1 once a childless node is written.
    later: list[tuple[Iterator[int], int]] = []
    node, depth, after_sibling = 0, 0, False
    while True:
        if held >= max_bytes:
            yield b"".join(out)
            out.clear()
            held = 0
        if node < 0:  # the next sibling, or close the children list
            if not later:
                break
            siblings, depth = later[-1]
            node = next(siblings, -1)
            if node < 0:
                later.pop()
                close, keys, _, line = levels[depth - 1]
                out += (keys, b"]", close, b"}")
                held += 2 * line
                continue
            after_sibling = True
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
            targets = links[node]
            if len(targets) == 1:
                out += (b",", keys, b'"next": [', items,
                        b"%d" % uids[targets[0]], keys, b"]")
            elif targets:
                out += (b",", keys, b'"next": [')
                for target in targets:
                    out += (items, b"%d" % uids[target], b",")
                out[-1] = keys
                out.append(b"]")
            else:
                out += (b",", keys, b'"next": []')
            held += len(targets) * line
        kids = children[node]
        if kids:
            out += (b",", keys, b'"children": [', items)
            later.append((islice(kids, 1, None), depth + 1))
            node = kids[0]
            depth += 1
            after_sibling = False
        else:
            out += (b",", keys, b'"children": []', close, b"}")
            node = -1
    counts = ",\n    ".join(
        f'"{key}": {tally}' for key, tally in kind_counts(kinds).items()
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


def statechart_text(chunks: Iterable[bytes]) -> bytes:
    """The bytes of a file, given as ``chunks``, without the spaces that
    follow each line break, for ``parse_statechart``.

    JSON rejects a raw line break inside a string, so in a document that
    reads every run dropped lies between two tokens. Each line break
    stays, so the tokens stay apart, a document reads as the same value
    and one it rejects stays rejected. Only the column and the
    offset an error names move. The bytes 0x0A and 0x20 occur in no
    multi-byte UTF-8 sequence, so the bytes can be cut before they are
    decoded.

    Each chunk is cut on its own, and a run split between two chunks is
    dropped too: no chunk is joined to the next, so a file of one line is
    read in time linear in its length.
    """
    import re  # here, not at start: validate reads most files without it

    indent = re.compile(rb"\n +")
    out = BytesIO()
    after_break = False
    for chunk in chunks:
        if after_break:
            chunk = chunk.lstrip(b" ")
            if not chunk:
                continue
        chunk = indent.sub(b"\n", chunk)
        out.write(chunk)
        after_break = chunk.endswith(b"\n")
    return out.getvalue()


def _squeezed(chunks: Iterable[bytes]) -> bytes:
    """The bytes of a file, given as ``chunks``, with each run of
    whitespace in a chunk that holds a line break turned into one space.

    ``bytes.split`` cuts a chunk into words in one call, which is about
    twice as fast as ``statechart_text``'s substitution. A word that may
    go on in the next chunk is carried over to it, and a space is written
    wherever a run stood, so no two words join. A chunk with no line
    break, such as one of a compact file, is written as it is, and so is
    one holding 0x0B or 0x0C: ``bytes.split`` takes those for whitespace
    and JSON does not, so a document with one between two tokens stays
    rejected. Between tokens the result reads as the same JSON; only a
    run inside a string changes what is read, and then the string holds
    a space, which ``_read_squeezed`` checks for.
    """
    out = BytesIO()
    carry = b""  # the last word of a chunk that ends in one
    spaced = True  # nothing is written, or a space is last
    for chunk in chunks:
        if carry:
            chunk, carry = carry + chunk, b""
        if b"\n" not in chunk or b"\x0b" in chunk or b"\x0c" in chunk:
            out.write(chunk)
            spaced = False
            continue
        words = chunk.split()
        if not chunk[-1:].isspace():
            carry = words.pop()
        if not spaced and chunk[:1].isspace():
            out.write(b" ")
        if words:  # else the chunk is a run, or one before the carry
            out.write(b" ".join(words))
            out.write(b" ")  # a run followed the last word written
        spaced = True
    out.write(carry)
    return out.getvalue()


def _read_squeezed(chunks: Iterable[bytes]) -> StatechartDocument | None:
    """The document a file's ``chunks`` hold, read through ``_squeezed``,
    or None where that read may differ from ``parse_statechart`` of the
    file's bytes: the squeezed text fails to read, or a name holds a
    space. Once a document reads, its keys and kinds are strings the
    reader knows, none with a space, so the names are the only strings a
    squeezed run can have reached."""
    try:
        doc = parse_statechart(_squeezed(chunks))
    except DocumentError:
        return None
    return None if " " in "".join(doc.names) else doc


def _checked_node(value: object, node_of: dict[int, int] | None = None,
                  node: int = -1) -> object:
    """The node ``value``, a JSON object, as the tuple (uid, kind, name,
    children, next) if it is well formed, with next None for a kind
    without it.

    This is the ``object_hook`` of the reader, with no ``node_of``: then an
    object with a fault is returned as it is, for the walk to word the
    fault where it meets the object. The walk passes the uids of the nodes
    it has read and the node's number; then the uid must also be new and a
    Statechart must be node 0, and the first fault raises its DocumentError.
    """
    # The scanner yields only exact dict, list, str and int types (bool
    # aside), so the type tests below are exact.
    if type(value) is not dict:
        return _node_fault(value, node_of, "node must be an object")
    kind = value.get("kind")
    linked = kind in _LINKED_KINDS
    try:  # every field there, and no other: the keys are exactly a node's
        uid, name, children = value["uid"], value["name"], value["children"]
        targets = value["next"] if linked else None
    except KeyError:
        keyed = False
    else:
        keyed = len(value) == (5 if linked else 4) and "kind" in value
    if not keyed:
        if node_of is None:
            return value
        _expect_object(value, "node",
                       _LINKED_NODE_FIELDS if linked else _NODE_FIELDS)
    if type(uid) is not int or uid < 0:
        return _node_fault(value, node_of,
                           "node uid must be a non-negative integer")
    if node_of is not None and uid in node_of:
        raise DocumentError(f"duplicate uid {uid}")
    if type(kind) is not str:
        return _node_fault(value, node_of, "node kind must be a string")
    text = _KIND_TEXTS.get(kind)
    if text is None:
        return _node_fault(value, node_of, f"unknown kind {kind!r}")
    if node_of is not None and (text == "Statechart") != (node == 0):
        raise DocumentError(
            "Statechart must appear exactly at the document root"
        )
    if type(name) is not str:
        return _node_fault(value, node_of, "node name must be a string")
    if type(children) is not list:
        return _node_fault(value, node_of, "children must be a list")
    if linked:
        if type(targets) is not list or not _INT_TYPE.issuperset(
            map(type, targets)
        ):
            return _node_fault(value, node_of, "next must be a list of uids")
        if children:
            return _node_fault(value, node_of,
                               f"{text} nodes cannot have children")
    return uid, text, name, children, targets


def _node_fault(value: object, node_of: dict[int, int] | None,
                message: str) -> object:
    """What ``_checked_node`` gives for a fault: the object as it is to the
    hook, a DocumentError to the walk."""
    if node_of is None:
        return value
    raise DocumentError(message)


def _as_object(value: object) -> object:
    """A node tuple as the object it was read from; any other value as it
    is. So a node-shaped object where no node belongs reads as before."""
    if type(value) is not tuple:
        return value
    uid, kind, name, children, targets = value
    found = {"uid": uid, "kind": kind, "name": name, "children": children}
    if targets is not None:
        found["next"] = targets
    return found


#: The C scanner of each hook the readers pass ``_loads``, made once
_SCANNERS = {hook: _scanner(hook) for hook in (None, _petri_entry,
                                               _checked_node)}


def parse_statechart(data: bytes | str) -> StatechartDocument:
    """Parse and schema-check a statechart document.

    The scanner checks each node's own fields as it closes the node
    (``_checked_node``), so a node is held as a small tuple, not a dict, and
    a text decoded from bytes is dropped once it is loaded. One
    breadth-first pass over the tuples then numbers the nodes, checks what
    needs the whole tree (repeated uids, where the Statechart is, links,
    counts) and drops each tuple once it is read, so no depth of tree
    needs recursion here. The counts object must equal the tree's tally,
    and is not kept. A malformed node is met in the same order as
    before and gets the same message. Repeated uids in a ``next`` list
    count once. ``data`` may be a file's bytes as they stand or as
    ``statechart_text`` gives them: both give the same document, and the
    same error, except for the column and the offset that a parse error
    names.
    """
    if isinstance(data, bytes):  # decoded here, so the bytes go with it
        data = _utf8(data)
    raw = _decode(data, _checked_node)
    del data
    raw = _expect_object(_as_object(raw), "document", ("root", "counts"))
    counts_raw = _expect_object(_as_object(raw["counts"]), "counts",
                                _COUNT_KEYS)
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
    # ``queue`` holds the nodes read; appending a node's children as it is
    # read numbers every node breadth-first.
    queue = [raw["root"]]
    del raw
    for node, value in enumerate(queue):
        queue[node] = None  # the tuple, and its lists, go once read
        if type(value) is not tuple or value[0] in node_of or (
            (value[1] == "Statechart") != (node == 0)
        ):  # word the first fault
            value = _checked_node(_as_object(value), node_of, node)
        uid, kind, name, raw_children, targets = value
        node_of[uid] = node
        if targets:
            pending.append((node, targets))
        uids.append(uid)
        kinds.append(kind)
        names.append(name)
        if raw_children:
            first = len(queue)
            queue += raw_children
            children.append(range(first, len(queue)))
        else:
            children.append(())
    del queue

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
    return StatechartDocument(uids, kinds, names, children, links)


# --- Names perfbench imports -------------------------------------------------
#
# Only perfbench (``perfbench/run.py`` and ``perfbench/traced_op.py``)
# calls these, and they go once it calls what ``pn2sc transform`` and
# ``pn2sc validate`` call. A ``flat.FlatModel`` stands for both the net
# and the statechart.


def store_from_petri_net(doc: PetriNetDocument) -> FlatModel:
    """``FlatModel(doc)``, the initialized model. For perfbench only."""
    from .flat import FlatModel

    return FlatModel(doc)


def read_petri_net(data: bytes | str) -> FlatModel:
    """``store_from_petri_net(parse_petri_net(data))``. For perfbench
    only."""
    return store_from_petri_net(parse_petri_net(data))


def document_from_statechart(model: FlatModel) -> StatechartDocument:
    """``model.document()``. For perfbench only."""
    return model.document()


def write_statechart(model: FlatModel, result: ReductionResult) -> bytes:
    """The canonical bytes of a reduced model; an irreducible ``result``
    is a DocumentError. For perfbench only."""
    if not result.ok:
        raise DocumentError(
            "refusing to serialize an irreducible result: "
            f"{result.top_or_count} top-level OR states, "
            f"{result.remaining_places} places and "
            f"{result.remaining_transitions} transitions remain"
        )
    return statechart_document_to_bytes(model.document())


def store_from_statechart(doc: StatechartDocument) -> StatechartDocument:
    """``doc``: the validator takes documents. For perfbench only."""
    return doc
