"""The transformation on a typed element store: the tests' reference.

This is the route ``pn2sc`` shipped before ``pn2sc.flat``, kept as the
oracle the flat route is checked against. ``ModelStore`` is a typed
element graph shared by the Petri-net and statechart sides;
``initialize_statechart`` builds a net's statechart parts; the AND and
OR rules reduce the pair to a fixpoint through ``flat.run_rounds``;
``create_top`` and ``assign_hyperedges`` finish the tree; and the
converters read documents into stores and write stores out through the
same canonical form (``rank.canonical_document``) as the flat route.

The store
---------
Elements carry a fixed kind, a name, and named reference slots. Slots are
ordered, duplicate-free lists kept bidirectionally consistent: adding ``x``
to an owner's slot inserts the owner into ``x``'s opposite slot, and
removing detaches both ends. ``rcontains`` and ``topState`` hold at most
one value; assigning a new container steals the element from its previous
one. Deleting an element clears every reference to it before it disappears,
so no live slot ever points at a dead element.

Adding a container to an element first walks up from the new container
to make sure containment stays a tree; the walk is skipped when the child
is a Basic or a HyperEdge, because a leaf contains nothing and so cannot
close a cycle.

Element ids are monotonically assigned and never reused, which makes
creation order recoverable and all iteration deterministic.

A store is single-writer: mutate it from one thread of control only.

Initialization
--------------
Every place becomes an OR state wrapping one Basic state, every transition
becomes a HyperEdge, and the net's arcs are mirrored as next/rnext links
between Basics and HyperEdges. The pass returns the new statechart store
and a plain dict from place id to the id of its OR, which the reduction
rules read and rewrite.

Reduction
---------
Two rewrite rules shrink the Petri net while growing the statechart's
containment tree: the AND rule collapses places that share identical
pre- and post-transition sets into a parallel composition, and the OR
rule collapses place-transition-place sequences by merging their OR
states. A driver applies both as long as possible, then wraps the single
surviving top-level OR in a Statechart with an AND top state and assigns
every hyperedge to the nearest compound state containing all Basics it
connects.

Each rule's precondition and rewrite is written once, for one transition
(``_and_step``, ``_or_step``). ``and_rule`` and ``or_rule`` run one of
them over every transition, and ``fixpoint`` hands all three to
``flat.run_rounds``, the loop of sorted sweeps that ``flat.FlatModel``
runs too. A firing here marks every transition next to the surviving place
for the other passes: a rule check reads only a transition's arcs and
the pre- and post-transition sets of the places on them, and a firing
changes those only for the transitions next to the surviving place.
``flat.FlatModel`` fires the same rules in the same order with finer
marks; the marks here make ``fixpoint`` quadratic in the fan-out of one
place.

The rules find each place's OR state in ``or_of_place``, the plain dict
from place id to OR id that ``initialize_statechart`` returns, and
rewrite it when they merge places; entries of deleted places go stale.

Wherever the rules need "the first" element of an unordered collection,
the minimum element id is used, so runs are reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, KeysView, Sequence

from pn2sc.flat import (AndFiring, FiringObserver, OrFiring, ReductionResult,
                        ReductionStatus, Side, run_rounds)
from pn2sc.io import (_LINKED_KINDS, DocumentError, ElementKind,
                      PetriNetDocument, StatechartDocument, parse_petri_net,
                      parse_statechart, statechart_document_to_bytes)
from pn2sc.rank import canonical_document


class ModelError(Exception):
    """A kind or slot rule was violated."""


class LivenessError(ModelError):
    """An operation referenced a deleted or never-created element."""


COMPOUND_KINDS = frozenset({ElementKind.OR, ElementKind.AND})

#: slot name -> opposite slot name (None: no opposite side is maintained)
OPPOSITE_SLOT: dict[str, str | None] = {
    "prep": "postt",
    "postt": "prep",
    "postp": "pret",
    "pret": "postp",
    "contains": "rcontains",
    "rcontains": "contains",
    "next": "rnext",
    "rnext": "next",
    "topState": None,
}

SINGLE_VALUED_SLOTS = frozenset({"rcontains", "topState"})

_P = ElementKind.PLACE
_T = ElementKind.TRANSITION
_B = ElementKind.BASIC
_O = ElementKind.OR
_A = ElementKind.AND
_H = ElementKind.HYPER_EDGE
_S = ElementKind.STATECHART

_CONTAINABLE = frozenset({_B, _O, _A, _H})
_LEAF_KINDS = (_B, _H)
_NO_VALUES: KeysView[int] = {}.keys()

#: owner kind -> slot -> allowed target kinds
ALLOWED_SLOTS: dict[str, dict[str, frozenset[str]]] = {
    _P: {"pret": frozenset({_T}), "postt": frozenset({_T})},
    _T: {"prep": frozenset({_P}), "postp": frozenset({_P})},
    _B: {
        "rcontains": COMPOUND_KINDS,
        "next": frozenset({_H}),
        "rnext": frozenset({_H}),
    },
    _O: {"contains": _CONTAINABLE, "rcontains": COMPOUND_KINDS},
    _A: {"contains": _CONTAINABLE, "rcontains": COMPOUND_KINDS},
    _H: {
        "rcontains": COMPOUND_KINDS,
        "next": frozenset({_B}),
        "rnext": frozenset({_B}),
    },
    _S: {"topState": frozenset({_A})},
}


class _Element:
    __slots__ = ("kind", "name", "slots")

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        # slot name -> ordered set of element ids (dict preserves insertion
        # order and gives O(1) membership, append, and removal)
        self.slots: dict[str, dict[int, None]] = {}


class ModelStore:
    """Typed element graph with stable ids and cascading deletion."""

    def __init__(self) -> None:
        self._next_id = 0
        self._elements: dict[int, _Element] = {}
        self._by_kind: dict[str, dict[int, None]] = {
            kind: {} for kind in ElementKind
        }

    # -- lifecycle ---------------------------------------------------------

    def create(self, kind: str, name: str = "") -> int:
        """Create a live element and return its fresh id."""
        if kind not in ElementKind:
            raise ModelError(f"not an element kind: {kind!r}")
        eid = self._next_id
        self._next_id = eid + 1
        self._elements[eid] = _Element(kind, name)
        self._by_kind[kind][eid] = None
        return eid

    def delete(self, eid: int) -> None:
        """Delete an element, clearing every reference to and from it."""
        el = self._require(eid)
        for slot, targets in el.slots.items():
            opp = OPPOSITE_SLOT[slot]
            if opp is None:
                continue
            for tid in targets:
                other = self._elements[tid].slots.get(opp)
                if other is not None:
                    other.pop(eid, None)
        el.slots.clear()
        # topState has no opposite slot, so incoming references need a sweep;
        # only Statechart elements can own one.
        if el.kind == _A:
            for sid in self._by_kind[_S]:
                slot = self._elements[sid].slots.get("topState")
                if slot is not None:
                    slot.pop(eid, None)
        del self._elements[eid]
        del self._by_kind[el.kind][eid]

    def is_live(self, eid: int) -> bool:
        return eid in self._elements

    # -- introspection -----------------------------------------------------

    def kind_of(self, eid: int) -> str:
        return self._require(eid).kind

    def name_of(self, eid: int) -> str:
        return self._require(eid).name

    def all_of_kind(self, kind: str) -> list[int]:
        """All live elements of a kind, ascending by id."""
        return list(self._by_kind[kind])

    def count_of_kind(self, kind: str) -> int:
        return len(self._by_kind[kind])

    def refs(self, owner: int, slot: str) -> tuple[int, ...]:
        """Slot values in insertion order."""
        el = self._require(owner)
        self._check_slot(el.kind, slot)
        values = el.slots.get(slot)
        return tuple(values) if values else ()

    def refs_as_set(self, owner: int, slot: str) -> frozenset[int]:
        """Slot values with order-insensitive equality."""
        el = self._require(owner)
        self._check_slot(el.kind, slot)
        values = el.slots.get(slot)
        return frozenset(values) if values else frozenset()

    def view(self, owner: int, slot: str) -> KeysView[int]:
        """A read-only view of a live element's slot values in insertion
        order, for hot read paths.

        Nothing is copied and neither the element's liveness nor the slot's
        name is checked. The view follows later changes to the slot, except
        that a slot that never held a value gives a fixed empty view.
        """
        values = self._elements[owner].slots.get(slot)
        return _NO_VALUES if values is None else values.keys()

    def ref(self, owner: int, slot: str) -> int | None:
        """The value of a single-valued slot, or None."""
        if slot not in SINGLE_VALUED_SLOTS:
            raise ModelError(f"slot {slot!r} is not single-valued")
        values = self._require(owner).slots.get(slot)
        if not values:
            return None
        return next(iter(values))

    # -- mutation ----------------------------------------------------------

    def add_ref(self, owner: int, slot: str, target: int) -> None:
        """Append ``target`` to ``owner``'s slot unless already present.

        The opposite slot is updated symmetrically. If either end of the
        pair is single-valued and occupied, the old value is detached first
        (containment and topState steal their targets).
        """
        owner_el = self._require(owner)
        target_el = self._require(target)
        allowed = self._check_slot(owner_el.kind, slot)
        if target_el.kind not in allowed:
            raise ModelError(
                f"slot {slot!r} of {owner_el.kind} cannot hold "
                f"a {target_el.kind}"
            )
        values = owner_el.slots.get(slot)
        if values is not None and target in values:
            return
        if slot in ("contains", "rcontains"):
            self._guard_containment_cycle(owner, slot, target)
        if slot in SINGLE_VALUED_SLOTS and values:
            self._detach(owner, slot, next(iter(values)))
        opp = OPPOSITE_SLOT[slot]
        if opp in SINGLE_VALUED_SLOTS:
            opp_values = target_el.slots.get(opp)
            if opp_values:
                self._detach(target, opp, next(iter(opp_values)))
        owner_el.slots.setdefault(slot, {})[target] = None
        if opp is not None:
            target_el.slots.setdefault(opp, {})[owner] = None

    def set_ref(self, owner: int, slot: str, target: int | None) -> None:
        """Replace the value of a single-valued slot (None clears it)."""
        if slot not in SINGLE_VALUED_SLOTS:
            raise ModelError(f"set_ref only applies to single-valued slots, "
                             f"not {slot!r}")
        current = self.ref(owner, slot)
        if current == target:
            return
        if current is not None:
            self._detach(owner, slot, current)
        if target is not None:
            self.add_ref(owner, slot, target)

    def remove_ref(self, owner: int, slot: str, target: int) -> None:
        """Remove ``target`` from ``owner``'s slot, detaching the opposite."""
        owner_el = self._require(owner)
        self._check_slot(owner_el.kind, slot)
        self._require(target)
        values = owner_el.slots.get(slot)
        if values is None or target not in values:
            raise ModelError(
                f"element {target} is not in slot {slot!r} of {owner}"
            )
        self._detach(owner, slot, target)

    # -- consistency checks (full scan; intended for tests) -----------------

    def check_invariants(self) -> None:
        """Scan the whole store and raise ModelError on any inconsistency."""
        for eid, el in self._elements.items():
            for slot, targets in el.slots.items():
                allowed = ALLOWED_SLOTS[el.kind].get(slot)
                if allowed is None:
                    raise ModelError(
                        f"illegal slot {slot!r} on {el.kind} {eid}"
                    )
                if slot in SINGLE_VALUED_SLOTS and len(targets) > 1:
                    raise ModelError(f"slot {slot!r} of {eid} holds "
                                     f"{len(targets)} values")
                for tid in targets:
                    other = self._elements.get(tid)
                    if other is None:
                        raise ModelError(
                            f"dangling reference {eid}.{slot} -> {tid}"
                        )
                    if other.kind not in allowed:
                        raise ModelError(
                            f"{eid}.{slot} holds a {other.kind}"
                        )
                    opp = OPPOSITE_SLOT[slot]
                    if opp is not None and eid not in other.slots.get(opp, {}):
                        raise ModelError(
                            f"opposite of {eid}.{slot} -> {tid} missing"
                        )
        for eid in self._elements:
            self._walk_containers(eid)

    # -- internals -----------------------------------------------------------

    def _require(self, eid: int) -> _Element:
        el = self._elements.get(eid)
        if el is None:
            raise LivenessError(f"element {eid} is deleted or unknown")
        return el

    def _check_slot(self, kind: str, slot: str) -> frozenset[str]:
        allowed = ALLOWED_SLOTS[kind].get(slot)
        if allowed is None:
            raise ModelError(f"{kind} has no slot {slot!r}")
        return allowed

    def _detach(self, owner: int, slot: str, target: int) -> None:
        del self._elements[owner].slots[slot][target]
        opp = OPPOSITE_SLOT[slot]
        if opp is not None:
            self._elements[target].slots[opp].pop(owner, None)

    def _guard_containment_cycle(self, owner: int, slot: str, target: int) -> None:
        container, child = (owner, target) if slot == "contains" else (target, owner)
        if self._elements[child].kind in _LEAF_KINDS:
            return
        node: int | None = container
        while node is not None:
            if node == child:
                raise ModelError(
                    f"containing {child} in {container} would close a cycle"
                )
            values = self._elements[node].slots.get("rcontains")
            node = next(iter(values)) if values else None

    def _walk_containers(self, eid: int) -> None:
        seen = set()
        node: int | None = eid
        while node is not None:
            if node in seen:
                raise ModelError(f"containment cycle through {eid}")
            seen.add(node)
            values = self._elements[node].slots.get("rcontains")
            node = next(iter(values)) if values else None


# --- Initialization ---------------------------------------------------------


def initialize_statechart(pn: ModelStore) -> tuple[ModelStore, dict[int, int]]:
    """Build the statechart parts of a whole net in one pass.

    Places are visited in ascending id. Each gets its OR, then its Basic;
    the HyperEdge of an adjacent transition is created when the transition
    is first seen, producers (``pret``) before consumers (``postt``).
    Transitions that no place touches get their HyperEdges last, in
    ascending id.
    """
    sc = ModelStore()
    or_of_place: dict[int, int] = {}
    edge_of: dict[int, int] = {}
    for place in pn.all_of_kind(ElementKind.PLACE):
        or_state = or_of_place[place] = sc.create(ElementKind.OR)
        basic = sc.create(ElementKind.BASIC, pn.name_of(place))
        sc.add_ref(basic, "rcontains", or_state)
        for arcs, link in (("pret", "rnext"), ("postt", "next")):
            for transition in pn.view(place, arcs):
                edge = edge_of.get(transition)
                if edge is None:
                    edge = edge_of[transition] = sc.create(
                        ElementKind.HYPER_EDGE, pn.name_of(transition))
                sc.add_ref(basic, link, edge)
    for transition in pn.all_of_kind(ElementKind.TRANSITION):
        if transition not in edge_of:
            sc.create(ElementKind.HYPER_EDGE, pn.name_of(transition))
    return sc, or_of_place


# --- Reduction --------------------------------------------------------------


class ReductionError(Exception):
    """The reduction pipeline was driven from an illegal state."""


def _and_step(
    pn: ModelStore,
    sc: ModelStore,
    side: str,
    or_of_place: dict[int, int],
    transition: int,
    on_fire: FiringObserver | None,
) -> tuple[tuple[int, ...], ...] | None:
    """Apply the AND rule to one transition if it is live and matches;
    return ``_marks`` of the surviving place, or None."""
    if not pn.is_live(transition):
        return None
    companions = pn.view(transition, side)
    if len(companions) <= 1:
        return None
    ordered = sorted(companions)
    survivor = ordered[0]
    pre_set = pn.view(survivor, "pret")
    post_set = pn.view(survivor, "postt")
    for other in ordered[1:]:
        if (pn.view(other, "pret") != pre_set
                or pn.view(other, "postt") != post_set):
            return None
    new_or = sc.create(ElementKind.OR)
    new_and = sc.create(ElementKind.AND)
    for place in ordered:
        sc.add_ref(new_and, "contains", or_of_place[place])
    sc.add_ref(new_or, "contains", new_and)
    or_of_place[survivor] = new_or
    for other in ordered[1:]:
        pn.delete(other)
    if on_fire is not None:
        on_fire(AndFiring(transition, side, len(ordered)))
    return _marks(pn, survivor)


def _or_step(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    transition: int,
    on_fire: FiringObserver | None,
) -> tuple[tuple[int, ...], ...] | None:
    """Apply the OR rule to one transition if it is live and matches;
    return ``_marks`` of the surviving place q, or None."""
    if not pn.is_live(transition):
        return None
    preps = pn.view(transition, "prep")
    if len(preps) != 1:
        return None
    postps = pn.view(transition, "postp")
    if len(postps) != 1:
        return None
    (q,) = preps
    (r,) = postps
    if q != r:
        # r is a co-output of a producer of q exactly when that producer
        # is also a producer of r; likewise for co-inputs and consumers
        if not pn.view(q, "pret").isdisjoint(pn.view(r, "pret")):
            return None
        if not pn.view(q, "postt").isdisjoint(pn.view(r, "postt")):
            return None
        merger = or_of_place[q]
        mergee = or_of_place[r]
        for producer in pn.refs(r, "pret"):
            pn.add_ref(q, "pret", producer)
        for consumer in pn.refs(r, "postt"):
            pn.add_ref(q, "postt", consumer)
        pn.delete(r)
        # adding to the merger steals each child from the mergee, so
        # iterate over a copy
        for child in sc.refs(mergee, "contains"):
            sc.add_ref(merger, "contains", child)
        sc.delete(mergee)
    pn.delete(transition)
    if on_fire is not None:
        on_fire(OrFiring(transition, identity=q == r))
    return _marks(pn, q)


def _marks(pn: ModelStore, place: int) -> tuple[tuple[int, ...], ...]:
    """Every transition next to ``place``, for each of the three passes."""
    touched = (*pn.view(place, "pret"), *pn.view(place, "postt"))
    return touched, touched, touched


def _one_pass(pn: ModelStore, step: Callable[[int], object]) -> bool:
    """Run ``step`` on every transition; True iff it fired at least once."""
    applied = False
    for transition in pn.all_of_kind(ElementKind.TRANSITION):
        if step(transition) is not None:
            applied = True
    return applied


def and_rule(
    pn: ModelStore,
    sc: ModelStore,
    side: str,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> bool:
    """One pass of the AND rule over a snapshot of all transitions.

    A transition matches on the chosen side when it has more than one
    pre-place (POST: post-place) and all of them share identical pre- and
    post-transition sets. The minimum-id place survives; the others are
    deleted after their OR states are grouped under a fresh AND inside a
    fresh OR, which becomes the survivor's OR in ``or_of_place``.

    Returns True iff at least one transition matched.
    """
    return _one_pass(
        pn, lambda t: _and_step(pn, sc, side, or_of_place, t, on_fire))


def or_rule(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> bool:
    """One pass of the OR rule over a snapshot of all transitions.

    A transition with exactly one pre-place q and one post-place r matches
    when q and r are the same place, or when r is neither a co-output of
    one of q's producing transitions nor a co-input of one of q's
    consuming transitions. On a match with q != r, q absorbs r's arcs and
    r's OR is merged into q's OR before r disappears; either way the
    transition is deleted.

    Returns True iff at least one transition matched.
    """
    return _one_pass(
        pn, lambda t: _or_step(pn, sc, or_of_place, t, on_fire))


def fixpoint(
    pn: ModelStore,
    sc: ModelStore,
    or_of_place: dict[int, int],
    on_fire: FiringObserver | None = None,
) -> None:
    """Apply [AND on pre-places, AND on post-places, OR] rounds through
    ``run_rounds`` until none of the three passes fires."""
    run_rounds((
        lambda t: _and_step(pn, sc, Side.PRE, or_of_place, t, on_fire),
        lambda t: _and_step(pn, sc, Side.POST, or_of_place, t, on_fire),
        lambda t: _or_step(pn, sc, or_of_place, t, on_fire),
    ), (pn.all_of_kind(ElementKind.TRANSITION),) * 3)


def create_top(pn: ModelStore, sc: ModelStore) -> ReductionResult:
    """Wrap the unique container-less OR in a Statechart with an AND top.

    With exactly one top-level OR the result is Success and the Statechart
    element id is returned; otherwise the statechart model is left alone
    and an Irreducible result reports what is left over.
    """
    top_ors = [
        or_state
        for or_state in sc.all_of_kind(ElementKind.OR)
        if sc.ref(or_state, "rcontains") is None
    ]
    remaining_places = pn.count_of_kind(ElementKind.PLACE)
    remaining_transitions = pn.count_of_kind(ElementKind.TRANSITION)
    if len(top_ors) != 1:
        return ReductionResult(
            ReductionStatus.IRREDUCIBLE,
            None,
            remaining_places,
            remaining_transitions,
            len(top_ors),
        )
    root = sc.create(ElementKind.STATECHART)
    top = sc.create(ElementKind.AND)
    sc.set_ref(root, "topState", top)
    sc.add_ref(top, "contains", top_ors[0])
    return ReductionResult(
        ReductionStatus.SUCCESS,
        root,
        remaining_places,
        remaining_transitions,
        1,
    )


def assign_hyperedges(sc: ModelStore) -> None:
    """Contain every hyperedge in the nearest compound state that is an
    ancestor of all Basics on its next and rnext links.

    One walk down from the top state records every state's parent and
    depth. Each hyperedge then starts from the parent of one linked Basic
    and, for every other linked Basic, climbs from the deeper side until
    it meets that Basic's parent. Hyperedges connected to nothing go
    directly into the top AND state. Requires a successfully created top
    state.
    """
    statecharts = sc.all_of_kind(ElementKind.STATECHART)
    if len(statecharts) != 1:
        raise ReductionError(
            f"hyperedge assignment needs exactly one Statechart, "
            f"found {len(statecharts)}"
        )
    top = sc.ref(statecharts[0], "topState")
    if top is None:
        raise ReductionError("Statechart has no top state")
    parent: dict[int, int] = {}
    depth = {top: 0}
    stack = [top]
    while stack:
        node = stack.pop()
        below = depth[node] + 1
        for child in sc.view(node, "contains"):
            parent[child] = node
            depth[child] = below
            stack.append(child)
    for edge in sc.all_of_kind(ElementKind.HYPER_EDGE):
        container: int | None = None
        for member in (*sc.view(edge, "next"), *sc.view(edge, "rnext")):
            other = parent.get(member)
            if other is None:
                raise ReductionError(
                    f"no common ancestor for hyperedge {edge}; "
                    f"containment is not a single tree"
                )
            if container is None:
                container = other
                continue
            while container != other:
                if depth[container] >= depth[other]:
                    container = parent[container]
                else:
                    other = parent[other]
        sc.set_ref(edge, "rcontains", top if container is None else container)


def create_statechart(
    pn: ModelStore, on_fire: FiringObserver | None = None
) -> tuple[ModelStore, ReductionResult]:
    """Full pipeline: initialize, reduce to fixpoint, create the top state,
    and (on success) assign hyperedge containers."""
    sc, or_of_place = initialize_statechart(pn)
    fixpoint(pn, sc, or_of_place, on_fire)
    result = create_top(pn, sc)
    if result.ok:
        assign_hyperedges(sc)
    return sc, result


# --- Documents to and from stores -------------------------------------------


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
        kinds.append(kind)
        names.append(sc.name_of(eid))
        if kind in _LINKED_KINDS:
            pending.append((node, eid, sc.refs(eid, "next")))
            children.append(())
            continue
        first = len(uids)
        if kind == ElementKind.STATECHART:
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
    return StatechartDocument(uids, kinds, names, children, links)


def document_from_statechart(sc: ModelStore) -> StatechartDocument:
    """Build the canonical document for a statechart model.

    The model must contain exactly one Statechart element; the tree is the
    containment hierarchy reachable from it, with the top state as the
    Statechart's single child, laid out breadth-first in containment order
    and then put in canonical form by ``rank.canonical_document``.
    """
    return canonical_document(_store_document(sc))


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


def store_from_statechart(doc: StatechartDocument) -> ModelStore:
    """Materialize a statechart document as a model store.

    Elements are created in node order. Containment is added deepest node
    first, so a container has no container of its own yet when it takes
    its children, and each cycle check stops at once.
    """
    sc = ModelStore()
    eids = [sc.create(kind, name)
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
