"""In-memory typed element store shared by the Petri-net and statechart sides.

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
"""

from __future__ import annotations

from collections.abc import KeysView

from .io import ElementKind


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
