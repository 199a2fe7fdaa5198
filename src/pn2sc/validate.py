"""Structural comparison of a produced statechart against an expected one.

Two rigor levels: ``Counts`` compares per-kind element totals only, while
``Full`` looks for a containment-tree isomorphism matching kind and name at
every node and, under it, equality of every hyperedge's next and rnext
sets, where a linked Basic is identified by its name path from the root.
Both take documents (``pn2sc.io.parse_statechart``), compared as they
stand, with no other model built.

``Full`` passes a pair at once on the node bijection that unique Basic
and HyperEdge names force (``rank._isomorphic``). Any other pair has its
labels compared first (``_label_mismatches``), and a difference there is
the report; only a pair whose labels agree has its structure ranked
(``pn2sc.rank``, the writer's canonical form), so duplicate names need
no backtracking search and no tree walk recurses. The ranking is an
isomorphism invariant, so a pair the bijection passes is one it passes
too. Only the descent reads children in canonical order (``_children``,
as ``canonical_document`` writes them); genuinely indistinguishable
siblings may be matched either way.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from itertools import chain, compress, count

from .io import STATECHART_KINDS, ElementKind
from .rank import (
    LabelledTrees,
    RankedTrees,
    _edge_names_repeat,
    _isomorphic,
    _labels,
    check_statecharts,
    label_checked,
    rank_labelled,
)

TYPE_CHECKING = False  # as typing's, without importing typing
if TYPE_CHECKING:
    from .io import StatechartDocument
    from .rank import CheckedStatecharts


#: The rigor of a validation, as ``pn2sc validate`` names it
ValidationLevel = namedtuple("ValidationLevel", "COUNTS FULL")(
    "Counts", "Full")


class Discrepancy(namedtuple("Discrepancy", "kind detail")):
    """One difference that validation found.

    Fields: ``kind: str``, one of count-mismatch, missing-node,
    extra-node, wrong-container and next-set-mismatch; ``detail: str``.
    """

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "level discrepancies")):
    """The verdict of one validation.

    Fields: ``level: str``, one of ``ValidationLevel``,
    ``discrepancies: tuple[Discrepancy, ...]``.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def validate_counts(actual: StatechartDocument,
                    expected: StatechartDocument) -> ValidationReport:
    """Compare per-kind instance totals (a document tallies its ``kinds``)."""
    found = []
    for kind in STATECHART_KINDS:
        got = actual.count_of_kind(kind)
        want = expected.count_of_kind(kind)
        if got != want:
            found.append(
                Discrepancy(
                    "count-mismatch",
                    f"{kind}: actual {got}, expected {want}",
                )
            )
    return ValidationReport(ValidationLevel.COUNTS, tuple(found))


def _label(trees: RankedTrees | LabelledTrees, node: int) -> str:
    return f"{trees.kinds[node]}({trees.names[node]})"


def _name_path(trees: RankedTrees | LabelledTrees,
               node: int) -> tuple[int, list[tuple[str, str]]]:
    """The depth of ``node`` and the kinds and names from the root down to
    it: a key that sorts nodes as their ``RankedTrees.paths`` ranks do."""
    labels = []
    while node >= 0:
        labels.append((trees.kinds[node], trees.names[node]))
        node = trees.parents[node]
    labels.reverse()
    return len(labels), labels


def _path(trees: RankedTrees | LabelledTrees, node: int) -> str:
    """The labels from the root down to ``node``, or ``<root>`` for -1."""
    return "/".join(f"{kind}({name})" for kind, name
                    in _name_path(trees, node)[1]) or "<root>"


def _path_ids(checked: CheckedStatecharts) -> LabelledTrees:
    """Pass 1 of the ranking as ids: two nodes of ``checked`` share an id
    exactly when their name paths are equal, but ids give no order. A
    level's ids come from one dict, keyed by parent's id, kind and name,
    and all from one counter, so ids rise with depth, to the node count."""
    docs, _, parents, layouts = checked
    kinds = list(chain.from_iterable(doc.kinds for doc in docs))
    names = list(chain.from_iterable(doc.names for doc in docs))
    ids = [0] * (len(parents) + 1)  # the last slot: a root's parent's id
    fresh = count(1)
    for depth in range(max(map(len, layouts))):
        table: dict[tuple[int, str, str], int] = {}
        for start, end, _ in (levels[depth] for levels in layouts
                              if depth < len(levels)):
            ids[start:end] = map(table.setdefault, zip(
                map(ids.__getitem__, parents[start:end]),
                kinds[start:end], names[start:end]), fresh)
    ids.pop()
    return LabelledTrees(kinds, names, parents, [], ids, {})


def _label_mismatches(labelled: LabelledTrees,
                      checked: CheckedStatecharts) -> list[Discrepancy]:
    """Compare, for each kind and name, how often and where it occurs, and
    what each HyperEdge links, on the name paths of ``labelled``
    (``_path_ids``, or ``label_checked``). A ``paths`` value fixes its
    nodes' label. A HyperEdge with a signature is keyed by its depth, name
    and signature, as the ranking keys it; one without is alone at its
    level in both models, so its ``paths`` value tells it apart. Without
    signatures, no HyperEdge name repeats in a model, and each link is one
    int, its source's value times ``scale`` plus its target's, that tells
    the links of its HyperEdge end. Both models are tallied a level at a
    time; only the levels of unequal values are searched for their nodes,
    which give each label's count difference. Where the counts agree, the
    first pair to differ in name-path order (``_name_path``) is reported.
    """
    kinds, names, _, _, paths, signatures = labelled
    first = checked.roots[1]
    scale = len(paths) + 1  # above every ``paths`` value
    linked = sorted(signatures)
    own_paths = [paths[offset:offset + len(doc.links)] if offset else paths
                 for doc, offset in zip(checked.docs, checked.roots)]
    unequal, links = set(), set()  # values, link ints held unequally often
    wanted: set[tuple[str, str]] = set()
    spans, floors = [], []  # each depth's range in each model, least value
    for depth in range(max(map(len, checked.levels))):
        spans.append([levels[depth][:2] if depth < len(levels) else (0, 0)
                      for levels in checked.levels])
        held, linking, signed = [], [], []  # each model's, sorted
        for doc, offset, (start, end), path_of in zip(
                checked.docs, checked.roots, spans[-1], own_paths):
            held.append(sorted(paths[start:end]))
            level_links = doc.links[start - offset:end - offset]
            linking.append(sorted([
                source + path_of[target] for source, targets in zip(
                    map(scale.__mul__, compress(paths[start:end],
                                                level_links)),
                    compress(level_links, level_links))
                for target in targets]) if not signatures else [])
            edges = linked[bisect_left(linked, start):bisect_left(linked, end)]
            signed.append(Counter(zip(map(names.__getitem__, edges),
                                      map(signatures.__getitem__, edges))))
        floors.append(min(values[0] for values in held if values))
        for (values_a, values_e), differ in ((held, unequal),
                                             (linking, links)):
            if values_a != values_e:
                differ.update(value for value, _ in Counter(values_a).items()
                              ^ Counter(values_e).items())
        if signed[0] != signed[1]:
            wanted.update((ElementKind.HYPER_EDGE, name) for (name, _), _
                          in signed[0].items() ^ signed[1].items())
    ends = [divmod(key, scale) for key in links]
    lookup = unequal.union(*ends)
    holder = {}  # a node of each value looked up
    groups: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
    for depth in {bisect_right(floors, value) - 1 for value in lookup}:
        for start, end in spans[depth]:
            for node in compress(count(start), map(lookup.__contains__,
                                                   paths[start:end])):
                holder[paths[node]] = node
                if paths[node] in unequal:
                    groups.setdefault((kinds[node], names[node]), ([], []))[
                        node >= first].append(node)
    edges = [holder[source]
             if kinds[holder[source]] == ElementKind.HYPER_EDGE
             else holder[target] for source, target in ends]
    wanted.update((ElementKind.HYPER_EDGE, names[edge]) for edge in edges
                  if kinds[edge] == ElementKind.HYPER_EDGE)
    wanted.update(groups)
    # A label held as often in both models, at other places, is paired
    # over all its nodes, gathered unless no other node has its name.
    moved = {label for label, (got, want) in groups.items()
             if len(got) == len(want) and 2 * len(got) < names.count(label[1])}
    if moved:
        groups.update((label, ([], [])) for label in moved)
        for node in compress(count(), map(
                {name for _, name in moved}.__contains__, names)):
            if (label := (kinds[node], names[node])) in moved:
                groups[label][node >= first].append(node)
    found = []
    for label in sorted(wanted):
        text = f"{label[0]}({label[1]})"
        nodes_a, nodes_e = groups.get(label, ((), ()))
        if surplus := len(nodes_a) - len(nodes_e):
            found.append(Discrepancy(
                "extra-node", f"{text}: {surplus} unexpected occurrence(s)"
            ) if surplus > 0 else Discrepancy(
                "missing-node", f"{text}: {-surplus} occurrence(s) missing"))
        elif nodes_a:
            pairs = zip(*(sorted(nodes, key=lambda node: _name_path(
                labelled, node)) for nodes in (nodes_a, nodes_e)))
            node_a, node_e = next((a, e) for a, e in pairs
                                  if paths[a] != paths[e])
            found.append(Discrepancy(
                "wrong-container",
                f"{text} contained under "
                f"{_path(labelled, labelled.parents[node_a])}, expected "
                f"{_path(labelled, labelled.parents[node_e])}",
            ))
        else:
            found.append(Discrepancy(
                "next-set-mismatch",
                f"{text} links a different set of Basics than expected",
            ))
    return found


def _children(trees: RankedTrees, node: int) -> list[int]:
    """The children of ``node`` in canonical order: its model's own list,
    shifted to ``trees``' numbering and sorted by rank, stably, so
    children of equal rank keep the document's order."""
    model = bisect_right(trees.roots, node) - 1
    offset = trees.roots[model]
    kids = trees.children[model][node - offset]
    return sorted([kid + offset for kid in kids] if offset else kids,
                  key=trees.ranks.__getitem__)


def _child_ranks(trees: RankedTrees, node: int) -> Counter[int]:
    return Counter([trees.ranks[kid] for kid in _children(trees, node)])


class _Twins:
    """The unmatched expected children of one kind and name under a node,
    in rank order, that surplus actual children of that kind and name
    pair with.

    ``take`` hands out the twin whose children share the most ranks with
    a given node's children, the first such one in rank order when
    several or none share. The first time it has more than one twin to
    choose from, it indexes them by child rank, so a choice costs the
    twins that hold one of the node's child ranks, not all of them. A
    rank that all twins hold equally often is left out of the index.
    """

    def __init__(self, trees: RankedTrees, kids: list[int]) -> None:
        self.trees = trees
        self.kids = kids  # a twin handed out becomes -1
        self.first = 0  # no twin is left before this position
        self.left = len(kids)
        self.holders: dict[int, list[tuple[int, int]]] | None = None

    def take(self, kid: int) -> int:
        kids = self.kids
        while kids[self.first] < 0:
            self.first += 1
        position = self.first
        if self.left > 1:
            if self.holders is None:
                holders: dict[int, list[tuple[int, int]]] = {}
                for at, twin in enumerate(kids):
                    for rank, count in _child_ranks(self.trees, twin).items():
                        holders.setdefault(rank, []).append((at, count))
                # A rank every twin holds equally often adds the same to
                # every score, so it changes no choice; left in, it would
                # make every choice read every twin.
                self.holders = {
                    rank: held for rank, held in holders.items()
                    if len(held) < len(kids)
                    or len({count for _, count in held}) > 1
                }
            shared: Counter[int] = Counter()
            for rank, count in _child_ranks(self.trees, kid).items():
                for at, held in self.holders.get(rank, ()):
                    if kids[at] >= 0:
                        shared[at] += min(count, held)
            if shared:
                position = max(shared, key=lambda at: (shared[at], -at))
        self.left -= 1
        partner, kids[position] = kids[position], -1
        return partner


def _first_divergence(trees: RankedTrees, actual: int,
                      expected: int) -> list[Discrepancy]:
    """Descend into subtrees of unequal rank and report the first
    difference on each divergent branch.

    ``actual`` and ``expected`` share a kind and a name, as do the pairs
    descended into: children of equal rank pair off, and each other actual
    child pairs with the unmatched expected child of its kind and name
    whose children share the most ranks with its own (the first such one
    in rank order). What is left over is missing or extra. ``actual`` and
    ``expected`` must rank unequal, and so does every pair descended
    into: no expected child of a surplus child's rank is left unmatched.
    """
    ranks, kinds, names = trees.ranks, trees.kinds, trees.names
    found: list[Discrepancy] = []
    stack = [(actual, expected)]
    while stack:
        node_a, node_e = stack.pop()
        if kinds[node_a] == ElementKind.HYPER_EDGE:
            found.append(Discrepancy(
                "next-set-mismatch",
                f"{_label(trees, node_a)} under "
                f"{_path(trees, trees.parents[node_a])} links different "
                f"Basics than expected",
            ))
            continue
        budget = _child_ranks(trees, node_e)
        surplus_a = []
        for kid in _children(trees, node_a):
            if budget[ranks[kid]] > 0:
                budget[ranks[kid]] -= 1
            else:
                surplus_a.append(kid)
        # what is left of the budget is the expected children nobody matched
        unmatched: dict[tuple[str, str], list[int]] = {}
        for kid in _children(trees, node_e):
            if budget[ranks[kid]] > 0:
                budget[ranks[kid]] -= 1
                unmatched.setdefault((kinds[kid], names[kid]), []).append(kid)
        twins_of = {label: _Twins(trees, kids)
                    for label, kids in unmatched.items()}
        pairs = []
        for kid in surplus_a:
            twins = twins_of.get((kinds[kid], names[kid]))
            if twins and twins.left:
                pairs.append((kid, twins.take(kid)))
            else:
                found.append(Discrepancy(
                    "extra-node",
                    f"unexpected {_label(trees, kid)} under "
                    f"{_path(trees, node_a)}",
                ))
        for kids in unmatched.values():
            for kid in kids:
                if kid >= 0:  # not handed out
                    found.append(Discrepancy(
                        "missing-node",
                        f"{_label(trees, kid)} missing under "
                        f"{_path(trees, node_e)}",
                    ))
        stack += reversed(pairs)
    return found


def validate_full(actual: StatechartDocument,
                  expected: StatechartDocument) -> ValidationReport:
    """Compare containment trees and hyperedge link sets.

    Both models are checked once (``check_statecharts``). They pass at
    once when the node bijection their Basic and HyperEdge names force
    keeps every kind, name, parent and link (``_isomorphic``). Otherwise
    their labels are compared (``_label_mismatches``) on name-path ids
    (``_path_ids``), or on ``label_checked`` where a HyperEdge name
    repeats in a model, and any difference found is the report. Only a
    pair whose labels agree is ranked (``rank_labelled``), from the labels
    alone (``_labels``) unless a HyperEdge name repeats: every name path
    and link is then held as often in both, so namesake HyperEdges have
    equal signatures, which split no label. The pair matches when its
    roots rank alike, else the trees are descended (``_first_divergence``).
    Raises ValueError (a DocumentError) unless each document is numbered
    depth by depth with children and links that are its node numbers; a
    parsed document meets both by construction.
    """
    checked = check_statecharts(actual, expected)
    if _isomorphic(checked):
        return ValidationReport(ValidationLevel.FULL, ())
    tied = _edge_names_repeat(checked.docs)
    labelled = label_checked(checked) if tied else _path_ids(checked)
    found = _label_mismatches(labelled, checked)
    if not found:
        if not tied:  # the ids go before the ranking's labels
            del labelled
            labelled = _labels(checked)
        trees = rank_labelled(checked, labelled)
        del checked, labelled
        root_a, root_e = trees.roots
        if trees.ranks[root_a] != trees.ranks[root_e]:
            found = _first_divergence(trees, root_a, root_e)
    return ValidationReport(ValidationLevel.FULL, tuple(found))
