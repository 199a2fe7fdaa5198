"""The transformation on flat int-indexed lists, with no ``ModelStore``.

``pn2sc transform`` runs this module: ``transform_net`` takes a parsed
``PetriNetDocument`` and returns the canonical ``StatechartDocument``
(or None) with the ``ReductionResult``. It gives exactly the firings,
element numbers and output bytes of the store route in ``init.py`` and
``reduce.py`` (``create_statechart`` then ``write_statechart``), which
stays as the reference implementation. Both routes use the records and
``run_rounds`` defined here, and nothing here imports the store. The
store route and this one both end in ``pn2sc.rank.canonical_document``:
this one lays its own tree out breadth-first once and puts that layout in
canonical form, with no second layout. ``FlatModel.document`` imports the
ranking when it runs, so an irreducible net never loads it.

The net is held as per-transition tuples of pre- and post-places and
per-place sets of producing and consuming transitions. The live tuples
start as the net's numbered arcs themselves, shared, not copied: a
firing replaces a transition's tuple and never changes one, so the
original arcs stay for the hyperedges and the links. Places are
numbered 0, 1, ... in file order and transitions after them, as
``store_from_petri_net`` numbers them, so a firing event names the same
transition number by either route; inside this module transition ``t``
is list index ``t - place_count``. A deleted element's tuples or sets
become None.

The statechart is held as per-element lists of kinds, names and ordered
children, numbered as the store numbers them: each place's OR then its
Basic, each HyperEdge when its transition is first seen, a new OR and
then a new AND for each AND firing, and finally the Statechart and its
top AND. Children keep the order of the store's ``contains`` slot, so
sibling subtrees that rank equal (only repeated names make them) come
out in the same order too. ``or_of_place`` is a list. Links never change
during the reduction, so they are read from the net's original arcs when
the document is built.

The reduction runs ``run_rounds`` with finer starts and marks than
``reduce.fixpoint`` gives it. A transition with at most one place on a
side never matches AND on that side, because arcs never grow, so the
AND-pre pass starts from the transitions with at least two pre-places,
the AND-post pass from those with at least two post-places, and the OR
pass from all. A firing marks the transitions whose check it may turn
from failing to passing:

- an AND firing: every neighbour of the surviving place, for the OR
  pass only (it turns no AND check to passing; see ``run_rounds``);
- an OR firing, a merge of ``r`` into ``q`` or a self-loop on ``q``:
  ``q``'s consumers with at least two pre-places for the AND-pre pass,
  and its producers with at least two post-places for the AND-post
  pass. Only ``q``'s sets change, and a transition that had ``r`` on a
  side has ``q`` there instead.

The consumers and producers with at least two places on the side that
holds ``q`` are kept in a per-place index, updated when places are
deleted and moved from ``r`` to ``q`` on an OR merge. No firing walks
every neighbour of ``q``, so the reduction of one place's fan-out is
linear, not quadratic.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, count
from operator import itemgetter
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .io import ElementKind, PetriNetDocument, StatechartDocument


class Side(Enum):
    PRE = "prep"
    POST = "postp"


class ReductionStatus(Enum):
    SUCCESS = "Success"
    IRREDUCIBLE = "Irreducible"


class ReductionResult(NamedTuple):
    status: ReductionStatus
    statechart_root: int | None
    remaining_places: int
    remaining_transitions: int
    top_or_count: int

    @property
    def ok(self) -> bool:
        return self.status is ReductionStatus.SUCCESS


class AndFiring(NamedTuple):
    """One AND-rule application: ``merged_places`` places became parallel."""

    transition: int
    side: Side
    merged_places: int


class OrFiring(NamedTuple):
    """One OR-rule application; ``identity`` marks a collapsed self-loop."""

    transition: int
    identity: bool


Firing = AndFiring | OrFiring
FiringObserver = Callable[[Firing], None]

_OR = ElementKind.OR.value
_AND = ElementKind.AND.value
_BASIC = ElementKind.BASIC.value
_HYPER_EDGE = ElementKind.HYPER_EDGE.value
_STATECHART = ElementKind.STATECHART.value


def run_rounds(
    steps: Sequence[Callable[[int], Sequence[Iterable[int]] | None]],
    starts: Sequence[Iterable[int]],
) -> None:
    """Run rounds of the passes ``steps`` until a round fires nothing.

    A step checks one transition number against its rule and fires the
    rule on a match. It returns None when the transition is dead or does
    not match, and otherwise one collection per pass of the transitions
    to mark dirty. ``starts`` holds each pass's starting dirty set. A
    pass is a sweep: it takes its dirty set, empties it, and checks the
    set's transitions in ascending number. A firing adds its marks to the
    dirty sets of the other passes only.

    The firings, and their order, are exactly those of rounds of full
    passes that check every transition in ascending number, provided a
    pass starts from every transition whose check could ever pass, and a
    firing marks, for every other pass, each transition whose check it
    may turn from failing to passing. The loop keeps the invariant that
    a transition missing from a pass's dirty set would fail that pass's
    check. Its own pass cannot break it, because no firing of the AND
    and OR rules turns a check of its own pass from failing to passing:

    - AND: the deleted places' pre- and post-transition sets equal the
      survivor's, and every live place keeps its sets. A transition that
      had a deleted place on a side also had the survivor there, so each
      side keeps its distinct pairs of sets and never grows: a side
      whose places differed still differs. So no AND check of either
      side turns from failing to passing: only the OR pass needs marks.
    - OR merge of ``r`` into ``q``: the fired transition is in no other
      place's sets. A transition with ``q`` and ``r`` on one side would
      make them share a neighbour, failing the disjointness check. So
      every other transition keeps its arity, and the merge only grows
      the intersections that an OR check tests; a check that becomes a
      self-loop on ``q`` tested the fired transition's sets and passed.
    - OR identity: the removed self-loop on ``q`` is in no other place's
      sets, so no other OR check changes.

    Every firing shrinks the net, so the rounds end.
    """
    # A start is read by its pass's first sweep (an exhausted iterator adds
    # nothing after), so one start at a time is held as a set.
    starts = list(map(iter, starts))
    dirty: list[set[int]] = [set() for _ in steps]
    fired = True
    while fired:
        fired = False
        for current, step in enumerate(steps):
            dirty[current].update(starts[current])
            sweep = sorted(dirty[current])
            dirty[current].clear()
            for transition in sweep:
                marks = step(transition)
                if marks is None:
                    continue
                fired = True
                for index, touched in enumerate(marks):
                    if index != current:
                        dirty[index].update(touched)


class FlatModel:
    """A Petri net and its statechart under construction, as flat lists.

    Building one is the initialization; ``fixpoint``, ``create_top``,
    ``assign_hyperedges`` and ``document`` then do what their namesakes in
    ``reduce.py`` and ``io.py`` do to a pair of stores, and ``reduce``
    runs the middle three.

    ``pre`` and ``post`` hold each transition's original arcs as tuples
    of place numbers; ``t_pre`` and ``t_post`` its live arcs, and
    ``p_pre`` and ``p_post`` each place's live producers and consumers:
    lists when the model is built, sets from the start of ``fixpoint``,
    which also builds its per-place index of multi-place neighbours. The
    model keeps the net's names but not the net.
    """

    def __init__(self, net: PetriNetDocument) -> None:
        places = net.places
        transitions = net.transitions
        number = dict(zip(map(itemgetter(0), places), count())).__getitem__
        self.pre = pre = [tuple(map(number, t.pre)) for t in transitions]
        self.post = post = [tuple(map(number, t.post)) for t in transitions]
        del number
        producers: list[list[int]] = [[] for _ in places]
        consumers: list[list[int]] = [[] for _ in places]
        for t, targets in enumerate(post):
            for p in targets:
                producers[p].append(t)
        for t, sources in enumerate(pre):
            for p in sources:
                consumers[p].append(t)

        kinds: list[str] = []
        names: list[str] = []
        children: list[list[int] | tuple[()]] = []
        or_of_place = [0] * len(places)
        edge_of = [-1] * len(transitions)
        edges: list[int] = []  # transitions in HyperEdge creation order
        # Each place's OR and Basic, then the HyperEdges its transitions do
        # not have yet; last those of transitions with no arcs
        for p, place in enumerate(places):
            or_state = or_of_place[p] = len(kinds)
            kinds += (_OR, _BASIC)
            names += ("", place.name)
            children += ([or_state + 1], ())
            for t in producers[p] + consumers[p]:
                if edge_of[t] < 0:
                    edge_of[t] = len(kinds)
                    kinds.append(_HYPER_EDGE)
                    names.append(transitions[t].name)
                    children.append(())
                    edges.append(t)
        for t in range(len(transitions)):
            if edge_of[t] < 0:
                edge_of[t] = len(kinds)
                kinds.append(_HYPER_EDGE)
                names.append(transitions[t].name)
                children.append(())
                edges.append(t)
        self.kinds = kinds
        self.names = names
        self.children = children
        self.or_of_place = or_of_place
        self.basic_of = [or_state + 1 for or_state in or_of_place]
        self.edge_of = edge_of
        self.edges = edges
        self.root = -1

        # Shared, not copied: ``assign_hyperedges`` and ``document`` read
        # the original arcs, so a firing replaces a tuple, never changes it.
        self.t_pre: list[tuple[int, ...] | None] = pre.copy()
        self.t_post: list[tuple[int, ...] | None] = post.copy()
        # Lists in ascending order until ``fixpoint`` makes each a set in
        # its place, by when ``transform_net`` has dropped the net.
        self.p_pre: list[Collection[int] | None] = producers
        self.p_post: list[Collection[int] | None] = consumers

    def fixpoint(self, on_fire: FiringObserver | None = None) -> None:
        """Fire what ``reduce.fixpoint`` fires, in the same order, through
        ``run_rounds`` with the finer starts and marks of the module
        docstring.
        """
        kinds, names, children = self.kinds, self.names, self.children
        or_of_place = self.or_of_place
        t_pre, t_post = self.t_pre, self.t_post
        p_pre, p_post = self.p_pre, self.p_post
        p_pre[:] = map(set, p_pre)
        p_post[:] = map(set, p_post)
        # place -> its consumers with >= 2 pre-places (producers with >= 2
        # post-places): the only neighbours of q whose AND checks an OR
        # merge into q can change, and the only starts of an AND pass
        multi_consumers: dict[int, set[int]] = {}
        multi_producers: dict[int, set[int]] = {}
        starts = []
        for index, sides in ((multi_consumers, self.pre),
                             (multi_producers, self.post)):
            starts.append(list(compress(count(),
                                        map((1).__lt__, map(len, sides)))))
            for t in starts[-1]:
                for p in sides[t]:
                    index.setdefault(p, set()).add(t)
        offset = len(p_pre)

        def and_step(t: int, side_places: list, side: Side):
            places = side_places[t]
            if places is None or len(places) <= 1:
                return None
            ordered = sorted(places)
            survivor = ordered[0]
            pre_set = p_pre[survivor]
            post_set = p_post[survivor]
            dead = ordered[1:]
            for other in dead:
                if p_pre[other] != pre_set or p_post[other] != post_set:
                    return None
            new_or = len(kinds)
            kinds.extend((_OR, _AND))
            names.extend(("", ""))
            children.extend(([new_or + 1], [or_of_place[p] for p in ordered]))
            or_of_place[survivor] = new_or
            for other in dead:
                p_pre[other] = p_post[other] = None
                multi_consumers.pop(other, None)
                multi_producers.pop(other, None)
            # Every dead place had the survivor's neighbours, so only
            # their arcs shrink, and a side that held no more than the
            # merged places keeps the survivor alone.
            gone = set(dead)
            for arcs_of, neighbours, index in (
                    (t_pre, post_set, multi_consumers),
                    (t_post, pre_set, multi_producers)):
                multi = index.get(survivor)
                for u in neighbours:
                    arcs = arcs_of[u]
                    arcs = arcs_of[u] = (
                        (survivor,) if len(arcs) == len(ordered)
                        else tuple([p for p in arcs if p not in gone]))
                    if multi and len(arcs) < 2:
                        multi.discard(u)
            if on_fire is not None:
                on_fire(AndFiring(offset + t, side, len(ordered)))
            return (), (), pre_set | post_set

        def or_step(t: int):
            pre = t_pre[t]
            if pre is None or len(pre) != 1:
                return None
            post = t_post[t]
            if len(post) != 1:
                return None
            (q,) = pre
            (r,) = post
            q_pre = p_pre[q]
            q_post = p_post[q]
            if q == r:
                q_pre.discard(t)
                q_post.discard(t)
            else:
                r_pre = p_pre[r]
                r_post = p_post[r]
                if not q_pre.isdisjoint(r_pre) or not q_post.isdisjoint(
                        r_post):
                    return None
                q_post.discard(t)
                r_pre.discard(t)
                for arcs_of, neighbours in ((t_post, r_pre), (t_pre, r_post)):
                    for u in neighbours:
                        arcs = arcs_of[u]
                        arcs_of[u] = ((q,) if len(arcs) == 1 else tuple(
                            [q if p == r else p for p in arcs]))
                q_pre |= r_pre
                q_post |= r_post
                p_pre[r] = p_post[r] = None
                for index in (multi_consumers, multi_producers):
                    moved = index.pop(r, None)
                    if moved:
                        index.setdefault(q, set()).update(moved)
                merger = or_of_place[q]
                mergee = or_of_place[r]
                children[merger] += children[mergee]
                children[mergee] = ()
            t_pre[t] = t_post[t] = None
            if on_fire is not None:
                on_fire(OrFiring(offset + t, identity=q == r))
            return (multi_consumers.get(q, ()), multi_producers.get(q, ()),
                    ())

        run_rounds((
            lambda t: and_step(t, t_pre, Side.PRE),
            lambda t: and_step(t, t_post, Side.POST),
            or_step,
        ), (*starts, range(len(t_pre))))

    def create_top(self) -> ReductionResult:
        """Wrap the one live place's OR, the only container-less OR, in a
        Statechart with an AND top state, as ``reduce.create_top`` does;
        with more or fewer live places, report the net irreducible."""
        live = [p for p, arcs in enumerate(self.p_pre) if arcs is not None]
        remaining_transitions = len(self.t_pre) - self.t_pre.count(None)
        if len(live) != 1:
            return ReductionResult(ReductionStatus.IRREDUCIBLE, None,
                                   len(live), remaining_transitions,
                                   len(live))
        root = self.root = len(self.kinds)
        self.kinds += (_STATECHART, _AND)
        self.names += ("", "")
        self.children += ([root + 1], [self.or_of_place[live[0]]])
        return ReductionResult(ReductionStatus.SUCCESS, root, 1,
                               remaining_transitions, 1)

    def assign_hyperedges(self) -> None:
        """Append every HyperEdge, in element order, to the nearest state
        that contains all the Basics it links, as
        ``reduce.assign_hyperedges`` does. Needs ``create_top``'s success.
        """
        children = self.children
        top = self.root + 1
        parent = [-1] * len(children)
        depth = [0] * len(children)
        stack = [top]
        while stack:
            node = stack.pop()
            below = depth[node] + 1
            for child in children[node]:
                parent[child] = node
                depth[child] = below
                stack.append(child)
        basic_of, edge_of, pre, post = (
            self.basic_of, self.edge_of, self.pre, self.post)
        for t in self.edges:
            container = -1
            for p in pre[t] + post[t]:
                other = parent[basic_of[p]]
                if container < 0:
                    container = other
                    continue
                while container != other:
                    if depth[container] >= depth[other]:
                        container = parent[container]
                    else:
                        other = parent[other]
            children[top if container < 0 else container].append(edge_of[t])

    def document(self) -> StatechartDocument:
        """The canonical document of the finished statechart.

        The tree is laid out breadth-first in containment order, as
        ``document_from_statechart`` lays out a store, and that layout is
        checked, ranked and put in rank order by
        ``rank.canonical_document``, the route of every other document.
        """
        from .rank import canonical_document

        children = self.children
        node_of = [-1] * len(children)
        tree_children: list = []
        # ``order`` is also the queue: appending a node's children as it is
        # read numbers every node breadth-first.
        order = [self.root]
        for node, element in enumerate(order):
            node_of[element] = node
            kids = children[element]
            if kids:
                first = len(order)
                order += kids
                tree_children.append(range(first, len(order)))
            else:
                tree_children.append(())
        kinds = list(map(self.kinds.__getitem__, order))
        names = list(map(self.names.__getitem__, order))
        links: list[Sequence[int]] = [()] * len(order)
        basic_of, edge_of = self.basic_of, self.edge_of
        # A Basic links its place's consumers, in ascending order.
        basics = [node_of[basic] for basic in basic_of]
        for t, sources in enumerate(self.pre):
            edge = node_of[edge_of[t]]
            for p in sources:
                node = basics[p]
                if links[node]:
                    links[node].append(edge)
                else:
                    links[node] = [edge]
        for node in basics:
            if links[node]:
                links[node] = tuple(links[node])
        for t, targets in enumerate(self.post):
            if targets:
                links[node_of[edge_of[t]]] = tuple(
                    [basics[p] for p in targets])
        return canonical_document(StatechartDocument(
            order, kinds, names, tree_children, links))

    def reduce(self, on_fire: FiringObserver | None = None) -> ReductionResult:
        """Reduce to a fixpoint, create the top state and, on success,
        assign the hyperedges; return the result."""
        self.fixpoint(on_fire)
        result = self.create_top()
        if result.ok:
            self.assign_hyperedges()
        return result


def transform_net(
    net: PetriNetDocument, on_fire: FiringObserver | None = None
) -> tuple[StatechartDocument | None, ReductionResult]:
    """Initialize, reduce to a fixpoint, create the top state and assign
    the hyperedges on flat lists; return the canonical document (None
    when the net is irreducible) and the result.

    The net is dropped once the model is built, so a caller that passes
    it inline, as ``pn2sc transform`` does, holds it no longer (from
    Python 3.11; on 3.10 a caller holds its arguments until the call
    returns)."""
    model = FlatModel(net)
    del net
    result = model.reduce(on_fire)
    return model.document() if result.ok else None, result
