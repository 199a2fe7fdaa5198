"""Structural comparison of a produced statechart against an expected one.

Two rigor levels: ``Counts`` compares per-kind element totals only, while
``Full`` looks for a containment-tree isomorphism matching kind and name at
every node and, under it, equality of every hyperedge's next and rnext
sets, where a linked Basic is identified by its name path from the root.
Both take parsed documents (``pn2sc.io.parse_statechart``), model stores,
or one of each; a document is compared as it stands, with no store built.

``Full`` reads the canonical form of ``pn2sc.rank``, the writer's, and
writes the report. It passes a pair at once on the node bijection that
unique Basic and HyperEdge names force (``rank._isomorphic``). Any other
pair has its labels compared first, on the name paths and the HyperEdge
keys (``rank.label_checked``, ``rank._edge_keys``), and a difference
there is the report. Only a pair whose labels agree has its structure
ranked (``rank.rank_labelled``) and the ranks of its two roots
compared, so duplicate names need no backtracking search and no tree
walk recurses. The ranking is an isomorphism invariant, so a pair the
bijection passes is one it passes too, and the labels differ only where
the roots rank apart. Only a failed comparison looks for the
discrepancies, and only its descent reads children in canonical order:
``_children`` sorts a visited node's children by rank, as
``canonical_document`` writes them. Genuinely indistinguishable siblings
may be matched either way.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from enum import Enum
from itertools import compress, count, islice
from typing import TYPE_CHECKING, NamedTuple

from .io import STATECHART_KINDS, ElementKind
from .rank import (
    _edge_keys,
    _isomorphic,
    check_statecharts,
    label_checked,
    rank_labelled,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .io import StatechartDocument
    from .model import ModelStore
    from .rank import LabelledTrees, RankedTrees

    Statechart = ModelStore | StatechartDocument


class ValidationLevel(Enum):
    COUNTS = "Counts"
    FULL = "Full"


class Discrepancy(NamedTuple):
    kind: str  # count-mismatch | missing-node | extra-node |
    #            wrong-container | next-set-mismatch
    detail: str


class ValidationReport(NamedTuple):
    level: ValidationLevel
    discrepancies: tuple[Discrepancy, ...]

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def validate_counts(actual: Statechart,
                    expected: Statechart) -> ValidationReport:
    """Compare per-kind instance totals (a document tallies its ``kinds``)."""
    found = []
    for kind in STATECHART_KINDS:
        got = actual.count_of_kind(kind)
        want = expected.count_of_kind(kind)
        if got != want:
            found.append(
                Discrepancy(
                    "count-mismatch",
                    f"{kind.value}: actual {got}, expected {want}",
                )
            )
    return ValidationReport(ValidationLevel.COUNTS, tuple(found))


def _label(trees: RankedTrees | LabelledTrees, node: int) -> str:
    return f"{trees.kinds[node]}({trees.names[node]})"


def _path(trees: RankedTrees | LabelledTrees, node: int) -> str:
    """The labels from the root down to ``node``, or ``<root>`` for -1."""
    labels = []
    while node >= 0:
        labels.append(_label(trees, node))
        node = trees.parents[node]
    return "/".join(reversed(labels)) or "<root>"


def _first_unequal(nodes_a: list[int], nodes_e: list[int],
                   order: Sequence[object]) -> tuple[int, int] | None:
    """The first pair that differs in ``order`` once both lists are sorted
    by it, or None."""
    if len(nodes_a) == 1 == len(nodes_e):  # most labels occur once
        a, e = nodes_a[0], nodes_e[0]
        return None if order[a] == order[e] else (a, e)
    pairs = zip(sorted(nodes_a, key=order.__getitem__),
                sorted(nodes_e, key=order.__getitem__))
    return next(((a, e) for a, e in pairs if order[a] != order[e]), None)


def _label_mismatches(trees: RankedTrees | LabelledTrees,
                      edge_ranks: Sequence[object],
                      first_expected: int) -> list[Discrepancy]:
    """Compare, for each kind and name, how often and where it occurs.

    Nodes numbered from ``first_expected`` on belong to the expected
    model. ``edge_ranks`` holds, by node number, a value for each
    HyperEdge that is equal for two HyperEdges exactly when their ranks
    are: their ``RankedTrees.ranks``, or the keys ``_edge_keys`` gives
    before any structure is ranked. A HyperEdge found at the same places
    in both models whose value still differs links different Basics.

    A ``paths`` rank, and an ``edge_ranks`` value too, fixes the kind and
    name of its nodes. So a label can occur unequally often or in other
    places only if it holds a ``paths`` rank that the two models hold
    unequally often, and a HyperEdge label can link differently only if
    it holds such an ``edge_ranks`` value. One Counter per list finds
    those values: it counts the actual model's half and subtracts the
    expected half, with no copy of either half; of ``edge_ranks`` it
    counts only the HyperEdges'. A node is then looked up only for each
    value that differs, and any node holding it gives its label. The
    nodes of the other labels are never collected.
    """
    kinds, names = trees.kinds, trees.names
    is_edge = ElementKind.HYPER_EDGE.value.__eq__
    wanted = set()
    for values, hyper_edges_only in ((trees.paths, False),
                                     (edge_ranks, True)):
        held = islice(values, first_expected)
        subtracted = islice(values, first_expected, None)
        if hyper_edges_only:
            held = compress(held, map(is_edge, kinds))
            subtracted = compress(subtracted, map(
                is_edge, islice(kinds, first_expected, None)))
        tally = Counter(held)
        tally.subtract(subtracted)
        unequal = set(compress(tally, tally.values()))
        if not unequal:
            continue
        for node in compress(count(), map(unequal.__contains__, values)):
            unequal.discard(values[node])
            wanted.add((kinds[node], names[node]))
            if not unequal:
                break
    actual: dict[tuple[str, str], list[int]] = {}
    expected: dict[tuple[str, str], list[int]] = {}
    for node in compress(count(), map(wanted.__contains__,
                                      zip(kinds, names))):
        side = actual if node < first_expected else expected
        side.setdefault((kinds[node], names[node]), []).append(node)
    found = []
    for label in sorted(wanted):
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
        elif label[0] == ElementKind.HYPER_EDGE.value and _first_unequal(
            nodes_a, nodes_e, edge_ranks
        ):
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
    in rank order). What is left over is missing or extra.
    """
    ranks, kinds, names = trees.ranks, trees.kinds, trees.names
    found: list[Discrepancy] = []
    stack = [(actual, expected)]
    while stack:
        node_a, node_e = stack.pop()
        if ranks[node_a] == ranks[node_e]:
            continue
        if kinds[node_a] == ElementKind.HYPER_EDGE.value:
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


def validate_full(actual: Statechart,
                  expected: Statechart) -> ValidationReport:
    """Compare containment trees and hyperedge link sets.

    Both models are checked once (``check_statecharts``). They pass at
    once when the node bijection their Basic and HyperEdge names force
    keeps every kind, name, parent and link (``_isomorphic``); that needs
    every such name unique within its kind. Otherwise their labels are
    compared (``_label_mismatches``) on their name paths
    (``label_checked``), each HyperEdge keyed by ``_edge_keys``, and any
    difference found is the report. Only a pair whose labels agree has
    its structure ranked (``rank_labelled``, which sorts no children); it
    matches when its roots have equal ranks, and otherwise the two trees
    are descended (``_first_divergence``), which sorts the children of
    each node it visits. Raises ValueError (a DocumentError) unless each
    document is numbered depth by depth and each store holds one
    Statechart with a top state and keeps its links inside the
    containment tree; a parsed document meets all by construction.
    """
    checked = check_statecharts(actual, expected)
    if _isomorphic(checked):
        return ValidationReport(ValidationLevel.FULL, ())
    labelled = label_checked(checked)
    found = _label_mismatches(labelled, _edge_keys(checked, labelled),
                              checked.roots[1])
    if not found:
        trees = rank_labelled(checked, labelled)
        del checked, labelled
        root_a, root_e = trees.roots
        if trees.ranks[root_a] != trees.ranks[root_e]:
            found = _first_divergence(trees, root_a, root_e)
    return ValidationReport(ValidationLevel.FULL, tuple(found))
