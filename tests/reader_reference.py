"""The statechart reader that ``pn2sc.io.parse_statechart`` replaced, kept
verbatim as the oracle of the reader tests: the same text must give the
same document or the same DocumentError message, and
``cli._read_statechart`` must hold less than this reader at its peak.

It loads the whole file into ``json.loads``' dicts, then checks and numbers
the nodes in one breadth-first pass over them.
"""

from __future__ import annotations

from collections.abc import Sequence

from pn2sc.io import (
    _COUNT_KEYS,
    _INT_TYPE,
    _KIND_TEXTS,
    _LINKED_KINDS,
    _LINKED_NODE_FIELDS,
    _NODE_FIELDS,
    DocumentError,
    StatechartDocument,
    _decode,
    _expect_object,
    kind_counts,
    statechart_text,
)

_NODE_KEYS = frozenset(_NODE_FIELDS)
_LINKED_NODE_KEYS = frozenset(_LINKED_NODE_FIELDS)


def read_statechart_file(path: str, chunk_bytes: int) -> StatechartDocument:
    """Parse a regular file as ``pn2sc validate`` read one before: its text
    without indentation held in a local while this reader runs."""
    with open(path, "rb") as handle:
        text = statechart_text(iter(lambda: handle.read(chunk_bytes), b""))
    return parse_statechart(text)


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
                  and value.get("kind") in _LINKED_KINDS)
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
    return StatechartDocument(uids, kinds, names, children, links)
