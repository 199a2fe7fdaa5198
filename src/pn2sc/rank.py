"""The canonical form of a statechart, which the writer and the validator
share.

Ranking gives every node of one or more models a name-path rank and a
structural rank (``RankedTrees``). A canonical document has each
container's children in rank order, so equal models give identical
bytes. ``canonical_document`` is the one route to that form: it checks a
document, ranks it and puts it in rank order, and ``pn2sc transform``
writes the tree it built through it. ``pn2sc.validate`` reads the parts
it needs: the checks (``check_statecharts``), the certificate of a node
bijection that unique names force (``_isomorphic``), the labels
(``_labels``), or the name paths and signatures where HyperEdge names
repeat (``label_checked``), and the structure (``rank_labelled``).
Every function takes documents (``StatechartDocument``). The writer
imports this module when it builds a document, so a run that writes no
statechart never loads it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from itertools import chain, compress, count, islice, repeat
from operator import eq, ne

from .io import _INT_TYPE, DocumentError, ElementKind, StatechartDocument

TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterator, Sequence


class RankedTrees(namedtuple("RankedTrees", "roots kinds names parents "
                             "children paths ranks")):
    """The containment trees of one or more statechart models, flattened.

    Each model's nodes keep the numbers its document gives them, after the
    nodes of the models before it, and every list is indexed by node
    number, except ``children``: it holds each model's own children lists,
    numbered as its document numbers them, in the document's order.
    ``roots`` holds each model's root node; a node's children in canonical
    order are its children sorted by rank, stably.

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

    Fields: ``roots: list[int]``, ``kinds: list[str]``,
    ``names: list[str]``, ``parents: list[int]``,
    ``children: list[list[Sequence[int]]]``, ``paths: list[int]``,
    ``ranks: list[int]``.
    """

    __slots__ = ()


#: One depth of a document: its first node and the end of its range, both
#: shifted, and its nodes that have children, not shifted.
_Level = tuple[int, int, list[int]]
_NOT_DEPTH_NUMBERED = "document is not numbered depth by depth"
_NOT_NODE_NUMBERS = "document {} must be int node numbers of the document"


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
            if not _INT_TYPE.issuperset(map(type, kids)):
                raise DocumentError(_NOT_NODE_NUMBERS.format("children"))
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


class CheckedStatecharts(namedtuple("CheckedStatecharts",
                                    "docs roots parents levels")):
    """Statechart documents that passed the checks ranking needs,
    numbered one after another (see ``check_statecharts``).

    ``docs`` holds each document, ``roots`` each one's root node
    (the number of nodes before it), ``parents`` every node's parent in
    that shared numbering (-1 for a root) and ``levels`` each document's
    depths as ``_layout`` gives them.

    Fields: ``docs: list[StatechartDocument]``, ``roots: list[int]``,
    ``parents: list[int]``, ``levels: list[list[_Level]]``.
    """

    __slots__ = ()


def check_statecharts(*docs: StatechartDocument) -> CheckedStatecharts:
    """Check ``docs`` once for ranking: check that every document's
    links are its node numbers and lay each document out depth by depth
    (``_layout``), numbering the nodes of each document after those of
    the documents before it.

    A DocumentError is raised for a document not numbered depth by depth
    or with children or links that are not its node numbers.
    """
    roots = []
    total = 0
    for doc in docs:
        targets = list(chain.from_iterable(doc.links))
        if not (_INT_TYPE.issuperset(map(type, targets))
                and min(targets, default=0) >= 0
                and max(targets, default=0) < len(doc.kinds)):
            raise DocumentError(_NOT_NODE_NUMBERS.format("links"))
        del targets
        roots.append(total)
        total += len(doc.kinds)
    parents = [-1] * total
    levels = [_layout(doc.children, offset, parents)
              for doc, offset in zip(docs, roots)]
    return CheckedStatecharts(list(docs), roots, parents, levels)


def rank_statecharts(*docs: StatechartDocument) -> RankedTrees:
    """Rank the containment trees of ``docs`` into one canonical form,
    after ``check_statecharts``, so it raises what that raises.

    This is the level-by-level tree isomorphism scheme of Aho, Hopcroft
    and Ullman (*The Design and Analysis of Computer Algorithms*, 1974,
    section 3.2), with integer keys and no recursion. A document is
    ranked as it stands. Each level of each model is one range of nodes
    whose children are the next range (see ``_layout``), so the passes
    read slices and never lay a tree out again. ``label_checked`` runs
    the name-path passes 1 and 2, and ``rank_labelled`` the structural
    pass 3:

    1. Top down, a level at a time: each node's label is the rank of its
       kind and name among the level's, and its name-path rank that of
       one int made of its parent's name-path rank and its label.
    2. One walk over the links of the Basics gathers, for each HyperEdge,
       the name-path ranks of the Basics linking to it; with those of the
       Basics it links to they make its signature. Only a HyperEdge whose
       name recurs at its level needs one, so a walk over unique names
       builds no lists.
    3. Bottom up, a level at a time: each container's child ranks are
       sorted, and the level's tails (each container's sorted child
       ranks, each signature) are ranked together. A node's structural
       key is then one int, its label scaled above every tail rank plus
       its own, so each level sorts and hashes ints.
    """
    checked = check_statecharts(*docs)
    return rank_labelled(checked, label_checked(checked))


class LabelledTrees(namedtuple("LabelledTrees", "kinds names parents labels "
                               "paths signatures")):
    """Passes 1 and 2 of ``rank_statecharts``: the name paths of checked
    models, and what pass 3 ranks their structure from.

    ``kinds``, ``names``, ``parents`` and ``paths`` are those of
    ``RankedTrees``. ``labels`` holds each node's rank of kind and name
    among its level's, and ``signatures`` the signature of each HyperEdge
    whose name recurs at its level, by node number. Two HyperEdges have
    equal ``RankedTrees.ranks`` exactly when they sit at one depth with
    equal labels, and with equal signatures or none. ``rank_labelled``
    empties ``signatures`` as it reads them. Pass 1 for the labels alone
    (``_labels``) leaves ``paths`` and ``signatures`` empty.

    Fields: ``kinds: list[str]``, ``names: list[str]``,
    ``parents: list[int]``, ``labels: list[int]``, ``paths: list[int]``,
    ``signatures: dict[int, tuple[int, ...]]``.
    """

    __slots__ = ()


def _pass_1(checked: CheckedStatecharts, name_paths: bool
            ) -> tuple[LabelledTrees, list[bool]]:
    """Pass 1 of ``rank_statecharts`` on checked models: each node's
    label, and, with ``name_paths``, its name-path rank and whether another
    node of its level has its name. Without them ``paths`` and the list are
    empty. ``signatures`` is left empty."""
    docs, _, parents, layouts = checked
    kinds, names = docs[0].kinds, docs[0].names  # one document's, uncopied
    for doc in docs[1:]:
        kinds, names = [*kinds, *doc.kinds], [*names, *doc.names]
    total = len(kinds)
    kind_codes = {kind: code for code, kind in enumerate(sorted(set(kinds)))}
    labels = [0] * total
    paths = [0] * total if name_paths else []
    repeated = [False] * total if name_paths else []
    base = above = 0
    for depth in range(max(map(len, layouts), default=0)):
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
            if not name_paths:
                continue
            repeated[start:end] = [tally[name] > 1
                                   for name in names[start:end]]
            if depth:
                level = [(paths[parent] - above) * spread + label
                         for parent, label in zip(parents[start:end], level)]
            keys += level
        if name_paths:
            above = base
            base = _dense(keys, base, paths, spans)
    return LabelledTrees(kinds, names, parents, labels, paths, {}), repeated


def _labels(checked: CheckedStatecharts) -> LabelledTrees:
    """Pass 1 of ``rank_statecharts`` for the labels alone, with empty
    ``paths`` and ``signatures``. Where no HyperEdge name repeats in a
    model, ``rank_labelled`` gives the ranks from these that it gives from
    ``label_checked``: for one model always (see ``canonical_document``),
    for two once their name paths and links agree (see
    ``pn2sc.validate.validate_full``)."""
    return _pass_1(checked, False)[0]


def label_checked(checked: CheckedStatecharts) -> LabelledTrees:
    """Passes 1 and 2 of ``rank_statecharts`` on checked models."""
    labelled, repeated = _pass_1(checked, True)
    docs, roots = checked.docs, checked.roots
    paths, signatures = labelled.paths, labelled.signatures

    # Only a HyperEdge whose name is repeated at its level needs its
    # signature: a label alone at its level ranks the node by itself.
    for doc, offset in zip(docs, roots):
        links, doc_kinds = doc.links, doc.kinds
        path_of = paths[offset:offset + len(links)]
        shared = repeated[offset:offset + len(links)]
        incoming: list[list[int] | None] = [None] * len(links)
        edges = []
        for node in compress(range(len(links)), links):
            if doc_kinds[node] == ElementKind.HYPER_EDGE:
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
            if doc_kinds[node] == ElementKind.HYPER_EDGE:
                signatures[offset + node] = (-1, *sorted(incoming[node]))
        del path_of, shared, incoming
    return labelled


def rank_labelled(checked: CheckedStatecharts,
                  labelled: LabelledTrees) -> RankedTrees:
    """Pass 3 of ``rank_statecharts``, on checked models and their passes
    1 and 2 (``label_checked(checked)``)."""
    docs, roots, parents, layouts = checked
    kinds, names, _, labels, paths, signatures = labelled
    depths = max(map(len, layouts), default=0)
    linked = sorted(signatures)

    ranks = [0] * len(kinds)
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
            kids_of = map(doc.children.__getitem__, containers)
            if offset:
                kids_of = [range(kids.start + offset, kids.stop + offset,
                                 kids.step) if type(kids) is range
                           else [kid + offset for kid in kids]
                           for kids in kids_of]
            tails += [(ranks[kids[0]],) if len(kids) == 1
                      else tuple(sorted(map(rank_of, kids)))
                      for kids in kids_of]
            # Each signature is read by its level alone.
            tails += map(signatures.pop,
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
            shift = offset - start
            # zip stops at the last container, before taking a tail more
            for node, tail in zip(containers, ranked_tails):
                level[node + shift] += tail
            for node in linked[bisect_left(linked, start):
                               bisect_left(linked, end)]:
                level[node - start] += next(ranked_tails)
            keys += level
        base = _dense(keys, base, ranks, [part[:2] for part in parts])
    return RankedTrees(roots, kinds, names, parents,
                       [doc.children for doc in docs], paths, ranks)


def canonical_document(doc: StatechartDocument) -> StatechartDocument:
    """The canonical form of a document: children in canonical order, a
    node's uid its preorder index and each node's links in ascending uid
    order. ``doc`` itself is not changed. A node's children are in
    canonical order when they are sorted by rank (see
    ``rank_statecharts``), stably: children of equal rank keep the
    document's order.

    ``doc`` is checked (``check_statecharts``), and the name paths and
    signatures of passes 1 and 2 are found only where two of its
    HyperEdges share a name (``label_checked``). Otherwise its labels
    alone (``_labels``) give the ranks that ``rank_statecharts`` gives: a
    HyperEdge whose label is alone at its level ranks by that label alone.
    A document not numbered depth by depth is a DocumentError.
    """
    checked = check_statecharts(doc)
    labelled = (label_checked(checked) if _edge_names_repeat(checked.docs)
                else _labels(checked))
    ranks = rank_labelled(checked, labelled).ranks
    del checked, labelled  # freed before the canonical document is built
    return _in_rank_order(doc, ranks)


def _edge_names_repeat(docs: Sequence[StatechartDocument]) -> bool:
    """Whether two HyperEdges of one document share a name."""
    return any(len(set(names)) < len(names) for names in (list(compress(
        doc.names, map(eq, doc.kinds, repeat(ElementKind.HYPER_EDGE))))
        for doc in docs))


def _in_rank_order(doc: StatechartDocument,
                   ranks: list[int]) -> StatechartDocument:
    """``doc`` in canonical form, given its nodes' ``ranks``: one preorder
    walk sorts each container of two or more children and numbers the
    uids; only two or more links are sorted."""
    children = list(doc.children)
    rank_of = ranks.__getitem__
    uids = [0] * len(children)
    stack = [0]
    pop = stack.pop
    for uid in range(len(uids)):
        node = pop()
        uids[node] = uid
        kids = children[node]
        if kids:
            if len(kids) > 1:
                children[node] = kids = sorted(kids, key=rank_of)
            stack += reversed(kids)
    del ranks, rank_of
    links = list(doc.links)
    for node, targets in enumerate(links):
        if len(targets) > 1:
            links[node] = tuple(sorted(targets, key=uids.__getitem__))
    return StatechartDocument(uids, doc.kinds, doc.names, children, links)


def _images_by_name(doc_a: StatechartDocument, doc_e: StatechartDocument,
                    first: int) -> list[int] | None:
    """For each node of ``doc_a``, the node of ``doc_e`` (numbered from
    ``first``) with its kind and name if it is a Basic or a HyperEdge,
    else -1; None unless each of the two kinds has as many nodes in both
    documents, with names unique in ``doc_e`` and all found there.

    The Basics are looked up before the HyperEdges' names are indexed, so
    a Basic name missing from ``doc_e`` stops the search before that."""
    kinds_a, kinds_e, names_a, names_e = (doc_a.kinds, doc_e.kinds,
                                          doc_a.names, doc_e.names)
    found: dict[str, Iterator[int]] = {}  # kind -> images in node order
    for kind in (ElementKind.BASIC, ElementKind.HYPER_EDGE):
        is_kind = list(map(eq, repeat(kind), kinds_e))
        node_of = dict(zip(compress(names_e, is_kind),
                           compress(count(first), is_kind)))
        if len(node_of) != kinds_e.count(kind):
            return None
        try:
            images = list(map(node_of.__getitem__, compress(
                names_a, map(eq, repeat(kind), kinds_a))))
        except KeyError:  # a name missing from ``doc_e``
            return None
        if len(images) != len(node_of):
            return None
        found[kind] = iter(images)
    # Each node takes the next image of its kind; any other node, -1.
    return list(map(next, map(found.get, kinds_a, repeat(repeat(-1)))))


def _isomorphic(checked: CheckedStatecharts) -> bool:
    """Whether two checked models are equal under the node bijection
    their labels force; False also when the labels force none.

    Each Basic and HyperEdge of the actual model maps to the node of the
    expected model with its kind and name, and each other node, level by
    level from the bottom, to the parent of its first child's image. The
    map proves the models equal when it is a bijection that fixes the
    root and keeps every node's kind, name, parent and links (as a
    multiset of images). It gives up at the first misfit, the cheap ones
    first: unequal node counts or level sizes, then a Basic or HyperEdge
    name that is repeated in the expected model or missing from it.
    """
    (doc_a, doc_e), (_, first), parents, (levels_a, levels_e) = checked
    size = first  # the actual model's nodes come first
    if len(doc_e.kinds) != size or [end - start for start, end, _ in levels_a
                                    ] != [end - start for start, end, _
                                          in levels_e]:
        return False
    image = _images_by_name(doc_a, doc_e, first)
    if image is None:
        return False
    children_a = doc_a.children
    for _, _, containers in reversed(levels_a):
        for node in containers:
            image[node] = parents[image[children_a[node][0]]]
    # A node left at -1 (a childless state) or two nodes with one image
    # leave part of the expected model without a preimage.
    if len(set(image)) != size or min(image) != first:
        return False
    # Every other node keeps its parent, so the expected root, the one
    # node without a parent, is the image of the root.
    if any(map(ne, map(parents.__getitem__, islice(image, 1, None)),
               map(image.__getitem__, islice(parents, 1, size)))):
        return False
    # A Basic or HyperEdge has its image's kind and name by construction.
    kinds_a, names_a = doc_a.kinds, doc_a.names
    kinds_e, names_e = doc_e.kinds, doc_e.names
    for _, _, containers in levels_a:
        own = [image[node] - first for node in containers]
        if any(map(ne, map(kinds_a.__getitem__, containers),
                   map(kinds_e.__getitem__, own))) or any(
                map(ne, map(names_a.__getitem__, containers),
                    map(names_e.__getitem__, own))):
            return False
    # Each link as one int: its source's number times ``size`` plus its
    # target's, both numbered as in ``parents``.
    links_a, links_e = doc_a.links, doc_e.links
    linked_a = [source + image[target]
                for source, targets in zip(
                    map(size.__mul__, compress(image, links_a)),
                    compress(links_a, links_a))
                for target in targets]
    del image
    linked_e = [source + target
                for source, targets in zip(
                    compress(count(first * size + first, size), links_e),
                    compress(links_e, links_e))
                for target in targets]
    linked_a.sort()
    linked_e.sort()
    return linked_a == linked_e
