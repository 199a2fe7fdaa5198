"""The series-parallel generator that ``pn2sc.generate.generate_sp_net``
replaced, kept verbatim as the oracle of the generator tests: every spec
must give equal records.

It grows the net with closures over index lists, draws through
``SplitMix64.below`` and ``SplitMix64.chance``, and formats a fresh string
for every id, name and arc. Its own copy of the PRNG keeps it independent of
the code it checks.
"""

from __future__ import annotations

from pn2sc.io import PetriNetDocument, PlaceSpec, TransitionSpec

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

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def chance(self, probability: float) -> bool:
        return self.next_u64() < int(probability * (1 << 64))


def generate_sp_net(spec) -> PetriNetDocument:
    """Generate a fully reducible series-parallel net of roughly
    ``target_places`` places."""
    rng = SplitMix64(spec.seed)
    # transition index -> (pre place indices, post place indices); places are
    # implicit in the counter, with out[i] = consuming transitions of place i.
    t_pre: list[list[int]] = []
    t_post: list[list[int]] = []
    out: list[list[int]] = [[]]
    n_places = 1

    def new_place() -> int:
        nonlocal n_places
        out.append([])
        n_places += 1
        return n_places - 1

    def new_transition(pre: list[int], post: list[int]) -> int:
        t_pre.append(pre)
        t_post.append(post)
        tid = len(t_pre) - 1
        for p in pre:
            out[p].append(tid)
        return tid

    def move_outputs(src: int, dst: int) -> None:
        for tid in out[src]:
            t_pre[tid][t_pre[tid].index(src)] = dst
        out[dst].extend(out[src])
        out[src] = []

    while n_places < spec.target_places:
        place = rng.below(n_places)
        if rng.chance(spec.parallel_prob):
            width = 2 + rng.below(spec.branch_factor_max - 1)
            branches = [new_place() for _ in range(width)]
            tail = new_place()
            move_outputs(place, tail)
            new_transition([place], branches)
            new_transition(branches, [tail])
        else:
            tail = new_place()
            move_outputs(place, tail)
            new_transition([place], [tail])

    places = tuple(
        PlaceSpec(f"p{i}", f"p{i}") for i in range(n_places)
    )
    transitions = tuple(
        TransitionSpec(
            f"t{i}",
            f"t{i}",
            tuple(f"p{p}" for p in t_pre[i]),
            tuple(f"p{p}" for p in t_post[i]),
        )
        for i in range(len(t_pre))
    )
    return PetriNetDocument(places, transitions)
