"""The level ranking that ``pn2sc.io.rank_statecharts`` replaced, kept
verbatim as the oracle of ``test_rank.py``: the same inputs must give the
same equality classes, the same order within each level, the same children
order, the same canonical bytes and the same validation reports.

It lays the trees out again, keys every node by tuples that hold its kind
and ranks each level through a set, a sort and a dict.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from pn2sc.io import ElementKind, StatechartDocument, _store_document


class RankedTrees(NamedTuple):
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

    roots: list[int]
    kinds: list[str]
    names: list[str]
    parents: list[int]
    children: list[Sequence[int]]
    links: list[tuple[int, ...]]
    paths: list[int]
    ranks: list[int]


def _rank_level(level: list[int], keys: list[tuple], out: list[int],
                base: int) -> int:
    """Rank the nodes of one level densely, from ``base`` up, in the
    sorted order of their keys; return the first rank left unused."""
    table = {key: rank for rank, key in enumerate(sorted(set(keys)), base)}
    for node, key in zip(level, keys):
        out[node] = table[key]
    return base + len(table)


def _append_document(doc: StatechartDocument, trees: RankedTrees,
                     levels: list[list[int]]) -> None:
    """Append the nodes of ``doc`` to the node lists of ``trees``, after
    the nodes already there, and its node numbers to ``levels``, one list
    per depth."""
    offset = len(trees.kinds)
    trees.roots.append(offset)
    trees.kinds.extend(doc.kinds)
    trees.names.extend(doc.names)
    children = trees.children
    if offset:
        # A range, as the reader and the store layout give children, is
        # shifted rather than copied.
        children += [
            range(kids.start + offset, kids.stop + offset, kids.step)
            if type(kids) is range
            else [offset + kid for kid in kids] if kids else ()
            for kids in doc.children
        ]
        trees.links.extend([tuple([offset + t for t in targets]) if targets
                            else () for targets in doc.links])
    else:
        # Shared, not copied: ranking replaces a children list, and
        # never changes one.
        children += doc.children
        trees.links.extend(doc.links)
    parents = trees.parents
    parents += [-1] * len(doc.kinds)
    # Each depth is one contiguous range, and the next depth holds exactly
    # the children of this one.
    start, end, depth = offset, offset + 1, 0
    while start < end:
        if depth == len(levels):
            levels.append([])
        levels[depth] += range(start, end)
        below = end
        for node in range(start, end):
            for kid in children[node]:
                parents[kid] = node
            below += len(children[node])
        start, end, depth = end, below, depth + 1


def rank_statecharts(*models: ModelStore | StatechartDocument) -> RankedTrees:
    """Rank the containment trees of ``models`` into one canonical form.

    This is the level-by-level tree isomorphism scheme of Aho, Hopcroft
    and Ullman, with flat keys and no recursion:

    1. Each model's tree is laid out depth by depth: a document as it
       stands, a store flattened breadth-first. This records every
       node's level, parent, kind, name, children and links.
    2. Top down, level by level, each node gets a name-path rank from its
       parent's name-path rank, its kind and its name.
    3. Bottom up, level by level, each node gets a structural rank from
       its kind, its name, its link signatures and the sorted ranks of
       its children. A HyperEdge's link signatures are the sorted
       name-path ranks of the Basics it links to and from.

    Every store must contain exactly one Statechart element with a top
    state, and every link must stay inside the containment tree;
    otherwise a DocumentError is raised.
    """
    trees = RankedTrees([], [], [], [], [], [], [], [])
    levels: list[list[int]] = []
    for model in models:
        if not isinstance(model, StatechartDocument):
            model = _store_document(model)
        _append_document(model, trees, levels)
    kinds, names, parents, children, links = (
        trees.kinds, trees.names, trees.parents, trees.children, trees.links
    )

    count = len(kinds)
    paths = trees.paths
    paths.extend([0] * count)
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
        return tuple(sorted(map(paths.__getitem__, basics)))

    ranks = trees.ranks
    ranks.extend([0] * count)
    base = 0
    for level in reversed(levels):
        keys = []
        for node in level:
            kids = children[node]
            if kids:
                children[node] = kids = sorted(kids, key=ranks.__getitem__)
                keys.append((kinds[node], names[node], (), (),
                             tuple(map(ranks.__getitem__, kids))))
            elif kinds[node] == hyper_edge:
                keys.append((kinds[node], names[node],
                             signature(links[node]),
                             signature(sources.get(node, ())), ()))
            else:
                keys.append((kinds[node], names[node], (), (), ()))
        base = _rank_level(level, keys, ranks, base)
    return trees


def canonical_document(doc: StatechartDocument) -> StatechartDocument:
    """The canonical form of a document: children in canonical order (see
    ``rank_statecharts``), a node's uid its preorder index and each node's
    links in ascending uid order. ``doc`` itself is not changed.
    """
    trees = rank_statecharts(doc)
    # Keep only what the document needs; the ranks, paths and parents
    # are freed before the uids are numbered.
    kinds, names, children, links = (
        trees.kinds, trees.names, trees.children, trees.links
    )
    del trees
    uids = [0] * len(kinds)
    stack = [0]
    uid = 0
    while stack:
        node = stack.pop()
        uids[node] = uid
        uid += 1
        stack += reversed(children[node])
    for node, targets in enumerate(links):
        if len(targets) > 1:
            links[node] = tuple(sorted(targets, key=uids.__getitem__))
    return StatechartDocument(uids, kinds, names, children, links,
                              doc.counts)
