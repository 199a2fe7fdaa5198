"""Benchmark inputs: Petri nets built from a seed.

Series-parallel (SP) nets come from ``pn2sc.generate`` (the package's own
generator); nested fork/join spines come from the generator below, which
uses its own SplitMix64 stream so that the benchmark decides their shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

_MASK = (1 << 64) - 1


class SplitMix64:
    """The same 64-bit PRNG as the package generator, kept separate so the
    benchmark's own inputs do not change when the package does."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        x = self._state
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        return x ^ (x >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


Transition = tuple[str, tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class Net:
    """A Petri net whose place and transition names double as ids."""

    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def to_bytes(self) -> bytes:
        payload = {
            "places": [{"id": p, "name": p} for p in self.places],
            "transitions": [
                {"id": t, "name": t, "pre": list(pre), "post": list(post)}
                for t, pre, post in self.transitions
            ],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def sp_net(places: int, seed: int) -> Net:
    """A reducible SP net of about ``places`` places (GenSpec defaults)."""
    from pn2sc.generate import GenSpec, generate_sp_net

    doc = generate_sp_net(GenSpec(places, seed))
    names = {p.id: p.name for p in doc.places}
    return Net(
        tuple(p.name for p in doc.places),
        tuple(
            (t.name, tuple(names[p] for p in t.pre),
             tuple(names[p] for p in t.post))
            for t in doc.transitions
        ),
    )


def nested_net(depths: list[int]) -> Net:
    """Fork/join spines side by side under one top fork and join.

    A spine of depth d starts from one place and wraps it d times in a
    block ``s -> {x, inner entry}``, ``{x, inner exit} -> e``. The AND rule
    can merge a level only after the level inside it has become a single
    place, so the fixpoint needs about max(depths) rounds. One spine alone
    (a single depth) has no top fork.
    """
    places: list[str] = []
    transitions: list[Transition] = []

    def place() -> str:
        places.append(f"p{len(places)}")
        return places[-1]

    def transition(pre: list[str], post: list[str]) -> None:
        transitions.append((f"t{len(transitions)}", tuple(pre), tuple(post)))

    ends = []
    for depth in depths:
        entry = exit_ = place()
        for _ in range(depth):
            start, side, end = place(), place(), place()
            transition([start], [side, entry])
            transition([side, exit_], [end])
            entry, exit_ = start, end
        ends.append((entry, exit_))
    if len(ends) > 1:
        top, bottom = place(), place()
        transition([top], [entry for entry, _ in ends])
        transition([exit_ for _, exit_ in ends], [bottom])
    return Net(tuple(places), tuple(transitions))


def with_rule_tail(net: Net) -> Net:
    """Hang a small reducible block below the net's first sink place, so
    that every reducible input fires every rule case at least once.

    ``p -> {s, q}``, ``s -> {a, b}``, ``q -> c``, ``{a, b, c} -> e``: a and b
    share their neighbours but c does not, so only the AND rule on
    post-places can merge a and b. Two parallel arcs ``e -> f`` follow:
    merging one turns the other into a self-loop, the OR rule's identity
    case. The SP generator alone fires neither of these.
    """
    consumers = {p for _, pre, _ in net.transitions for p in pre}
    sink = next(p for p in net.places if p not in consumers)
    s, q, a, b, c, e, f = (f"{sink}.{x}" for x in "sqabcef")
    return Net(
        net.places + (s, q, a, b, c, e, f),
        net.transitions + (
            (f"{sink}.fork", (sink,), (s, q)),
            (f"{sink}.split", (s,), (a, b)),
            (f"{sink}.step", (q,), (c,)),
            (f"{sink}.join", (a, b, c), (e,)),
            (f"{sink}.arc0", (e,), (f,)),
            (f"{sink}.arc1", (e,), (f,)),
        ),
    )


def disjoint_union(left: Net, right: Net) -> Net:
    """Two nets side by side: each reduces to its own top-level OR, so the
    union is irreducible."""

    def prefixed(net: Net, tag: str) -> Net:
        return Net(
            tuple(f"{tag}.{p}" for p in net.places),
            tuple(
                (f"{tag}.{t}", tuple(f"{tag}.{p}" for p in pre),
                 tuple(f"{tag}.{p}" for p in post))
                for t, pre, post in net.transitions
            ),
        )

    a, b = prefixed(left, "a"), prefixed(right, "b")
    return Net(a.places + b.places, a.transitions + b.transitions)


def shuffled(net: Net, rng: SplitMix64) -> Net:
    """The same net with places and transitions in a seeded file order,
    which changes the element ids the package assigns."""
    places, transitions = list(net.places), list(net.transitions)
    rng.shuffle(places)
    rng.shuffle(transitions)
    return Net(tuple(places), tuple(transitions))
