"""The level ranking that ``pn2sc.rank.rank_statecharts`` replaced, kept
verbatim as the oracle of ``test_rank.py``: the same inputs must give the
same equality classes, the same order within each level, the same children
order, the same canonical bytes and the same validation reports.

It lays the trees out again, keys every node by tuples that hold its kind
and ranks each level through a set, a sort and a dict. ``label_mismatches``
is the label comparison of ``pn2sc.validate`` as first written, which
compares every label of two ranked models.

``written_bytes`` gives the bytes of a reduced model by the reference
ranking: the reduced tree laid out breadth-first as a document of its
own, put in canonical form by this module's ``canonical_document``, then
encoded. ``assert_written_as_reference`` holds the writer, which puts the
same layout in canonical form through ``rank.canonical_document``, to it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from helpers import shuffled_net
from pn2sc.flat import FlatModel
from pn2sc.io import (
    ElementKind,
    PetriNetDocument,
    StatechartDocument,
    statechart_document_chunks,
)
from pn2sc.validate import Discrepancy
from store_reference import ModelStore, _store_document


class RankedTrees(NamedTuple):
    """The containment trees of one or more statechart models, flattened.

    Nodes are numbered level by level, model after model, and every list
    but ``children`` is indexed by node number. ``roots`` holds each
    model's root node and ``children`` each model's own children lists,
    as ``pn2sc.io.RankedTrees`` does. Each ``ordered`` list is a node's
    children in canonical order, and ``links`` holds the node numbers of a
    Basic's or HyperEdge's ``next`` targets.

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
    children: list[list[Sequence[int]]]
    ordered: list[Sequence[int]]
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
    trees.children.append(doc.children)
    children = trees.ordered
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
    trees = RankedTrees([], [], [], [], [], [], [], [], [])
    levels: list[list[int]] = []
    for model in models:
        if not isinstance(model, StatechartDocument):
            model = _store_document(model)
        _append_document(model, trees, levels)
    kinds, names, parents, children, links = (
        trees.kinds, trees.names, trees.parents, trees.ordered, trees.links
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

    hyper_edge = ElementKind.HYPER_EDGE
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
        trees.kinds, trees.names, trees.ordered, trees.links
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
    return StatechartDocument(uids, kinds, names, children, links)


def _path(trees, node: int) -> str:
    labels = []
    while node >= 0:
        labels.append(f"{trees.kinds[node]}({trees.names[node]})")
        node = trees.parents[node]
    return "/".join(reversed(labels)) or "<root>"


def _first_unequal(nodes_a: list[int], nodes_e: list[int],
                   order: Sequence[int]) -> tuple[int, int] | None:
    pairs = zip(sorted(nodes_a, key=order.__getitem__),
                sorted(nodes_e, key=order.__getitem__))
    return next(((a, e) for a, e in pairs if order[a] != order[e]), None)


def label_mismatches(trees, first_expected: int) -> list[Discrepancy]:
    """Group every node of two ranked models (either ranking's trees) by
    kind and name, and compare each label: its count, then its nodes'
    sorted ``paths`` ranks, then, for a HyperEdge, their sorted ``ranks``.
    Nodes numbered from ``first_expected`` on are the expected model's."""
    actual: dict[tuple[str, str], list[int]] = {}
    expected: dict[tuple[str, str], list[int]] = {}
    for node, label in enumerate(zip(trees.kinds, trees.names)):
        side = actual if node < first_expected else expected
        side.setdefault(label, []).append(node)
    found = []
    for label in sorted(actual.keys() | expected.keys()):
        text = f"{label[0]}({label[1]})"
        nodes_a = actual.get(label, [])
        nodes_e = expected.get(label, [])
        if len(nodes_a) < len(nodes_e):
            found.append(Discrepancy(
                "missing-node", f"{text}: {len(nodes_e) - len(nodes_a)} "
                f"occurrence(s) missing",
            ))
        elif len(nodes_a) > len(nodes_e):
            found.append(Discrepancy(
                "extra-node", f"{text}: {len(nodes_a) - len(nodes_e)} "
                f"unexpected occurrence(s)",
            ))
        elif moved := _first_unequal(nodes_a, nodes_e, trees.paths):
            found.append(Discrepancy(
                "wrong-container",
                f"{text} contained under "
                f"{_path(trees, trees.parents[moved[0]])}, expected "
                f"{_path(trees, trees.parents[moved[1]])}",
            ))
        elif label[0] == ElementKind.HYPER_EDGE and _first_unequal(
            nodes_a, nodes_e, trees.ranks
        ):
            found.append(Discrepancy(
                "next-set-mismatch",
                f"{text} links a different set of Basics than expected",
            ))
    return found


def breadth_first_document(model: FlatModel) -> StatechartDocument:
    """The reduced tree of ``model`` as a document, laid out breadth-first
    in containment order, with each node's uid its element number."""
    children = model.children
    node_of = [-1] * len(children)
    tree_children: list = []
    order = [model.root]
    for node, element in enumerate(order):
        node_of[element] = node
        kids = children[element]
        if kids:
            first = len(order)
            order += kids
            tree_children.append(range(first, len(order)))
        else:
            tree_children.append(())
    links: list = [()] * len(order)
    # A Basic links its place's consumers, a HyperEdge its post-places.
    for t, sources in enumerate(model.pre):
        for p in sources:
            links[node_of[model.basic_of[p]]] += (node_of[model.edge_of[t]],)
    for t, targets in enumerate(model.post):
        links[node_of[model.edge_of[t]]] = tuple(
            [node_of[model.basic_of[p]] for p in targets])
    return StatechartDocument(order, [model.kinds[e] for e in order],
                              [model.names[e] for e in order],
                              tree_children, links)


def written_bytes(model: FlatModel) -> bytes:
    """The bytes of a reduced ``model`` by the reference route:
    ``breadth_first_document``, this module's ``canonical_document``, then
    ``statechart_document_chunks``."""
    return b"".join(statechart_document_chunks(
        canonical_document(breadth_first_document(model))))


def assert_written_as_reference(net: PetriNetDocument) -> None:
    """``FlatModel.document``, encoded, gives the reference route's bytes
    for ``net`` and for a shuffled copy of it, where they reduce."""
    for each in (net, shuffled_net(net, len(net.places))):
        model = FlatModel(each)
        if model.reduce().ok:
            assert b"".join(statechart_document_chunks(model.document())) \
                == written_bytes(model), each
