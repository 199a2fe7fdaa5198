"""Deterministic benchmark nets, grown by series and parallel expansion.

A net starts as the single place ``p0``. While it has fewer than
``target_places`` places, one step expands a chosen place into either a
sequence (the place, a transition, a fresh tail place) or a parallel block
(a fork transition, k fresh branch places, a join transition, a fresh tail
place). Every transition that consumed the chosen place consumes the tail
instead, at the same position in its pre-set. Places and transitions are
numbered ``p0, p1, ...`` and ``t0, t1, ...`` in the order they are made:
branches before the tail, the fork before the join.

With n places so far, one step takes these 64-bit draws, in this order:

    place    = draw % n
    parallel = draw < int(parallel_prob * 2**64)
    width    = 2 + draw % (branch_factor_max - 1)   (parallel steps only)

The fork's post-set and the join's pre-set are one list. When a branch
place is expanded later, moving its consumers rewrites that list, so the
fork's arc moves to the branch's new tail as well and the branch place is
left with no producer (10 121 such places besides ``p0`` in the nets
``GenSpec(300, s)`` for s = 0-199). These nets are therefore not strictly
series-parallel, though they still reduce fully; a seed sweep in the
tests holds the generator to that. The corpus keeps this construction,
since the benchmark inputs are built from it.

Randomness comes from SplitMix64 so any implementation can reproduce the
corpus bit for bit. State update and output mixing use the constants

    GAMMA = 0x9E3779B97F4A7C15
    MIX1  = 0xBF58476D1CE4E5B9   (after x ^= x >> 30)
    MIX2  = 0x94D049BB133111EB   (after x ^= x >> 27)

with a final ``x ^= x >> 31``, all modulo 2**64.
"""

from __future__ import annotations

import gc
from itertools import repeat
from typing import NamedTuple

from .io import PetriNetDocument, PlaceSpec, TransitionSpec

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Tiny portable PRNG with 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        x = self._state
        x = ((x ^ (x >> 30)) * _MIX1) & _MASK
        x = ((x ^ (x >> 27)) * _MIX2) & _MASK
        return x ^ (x >> 31)


class _GenFields(NamedTuple):
    target_places: int
    seed: int
    branch_factor_max: int = 4
    parallel_prob: float = 0.5


class GenSpec(_GenFields):
    """Parameters for one synthetic net.

    The generator stops expanding once the place count reaches
    ``target_places``, so the output overshoots by at most
    ``branch_factor_max`` places.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GenSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.target_places < 1:
            raise ValueError("target_places must be at least 1")
        if self.branch_factor_max < 2:
            raise ValueError("branch_factor_max must be at least 2")
        if not 0.0 <= self.parallel_prob <= 1.0:
            raise ValueError("parallel_prob must lie in [0, 1]")
        return self

    @classmethod
    def _make(cls, iterable) -> GenSpec:
        # _replace builds through _make, which would skip the checks.
        return cls(*iterable)

    def file_name(self) -> str:
        return f"sp{self.target_places}_{self.seed}.json"


def generate_sp_net(spec: GenSpec) -> PetriNetDocument:
    """Generate a reducible net of roughly ``target_places`` places, drawn
    as the module docstring describes.

    The cyclic collector is paused while the net is built, and left as
    the caller had it: the lists built hold no cycles, and at 40 000
    places its passes over them took about half the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        next_u64 = SplitMix64(spec.seed).next_u64
        parallel = int(spec.parallel_prob * (1 << 64))
        widths = spec.branch_factor_max - 1
        # pre[t], post[t]: place indices of transition t; out[p]: the
        # transitions that consume place p. A fork's post and its join's pre
        # stay one list, as the module docstring says, because the corpus
        # depends on it.
        pre: list[list[int]] = []
        post: list[list[int]] = []
        out: list[list[int]] = [[]]
        while len(out) < spec.target_places:
            place = next_u64() % len(out)
            first = len(pre)  # the fork, or the sequence's transition
            if next_u64() < parallel:
                tail = len(out) + 2 + next_u64() % widths
                branches = list(range(len(out), tail))
                pre += ([place], branches)
                post += (branches, [tail])
                out += [[first + 1] for _ in branches]
            else:
                tail = len(out)
                pre.append([place])
                post.append([tail])
            moved = out[place]
            for t in moved:
                arcs = pre[t]
                arcs[arcs.index(place)] = tail
            out.append(moved)
            out[place] = [first]

        place_ids = [f"p{i}" for i in range(len(out))]
        transition_ids = [f"t{i}" for i in range(len(pre))]
        place_id = place_ids.__getitem__
        # tuple.__new__ builds each record in C; the records' own
        # constructors are Python functions.
        new = tuple.__new__
        return PetriNetDocument(
            tuple(map(new, repeat(PlaceSpec), zip(place_ids, place_ids))),
            tuple(map(new, repeat(TransitionSpec), zip(
                transition_ids, transition_ids,
                map(tuple, map(map, repeat(place_id), pre)),
                map(tuple, map(map, repeat(place_id), post))))),
        )
    finally:
        if enabled:
            gc.enable()
