"""Deterministic series-parallel benchmark nets.

Benchmark nets are series-parallel by construction: starting from a single
place, a randomly chosen place is repeatedly expanded either into a
sequence (place, transition, fresh place) or into a parallel block (fork
transition, k fresh branch places, join transition, fresh tail place)
until the requested size is reached. Sequences are undone by the OR rule
and parallel blocks by the AND rule, so every generated net reduces to a
single top-level OR.

Randomness comes from SplitMix64 so any implementation can reproduce the
corpus bit for bit. State update and output mixing use the constants

    GAMMA = 0x9E3779B97F4A7C15
    MIX1  = 0xBF58476D1CE4E5B9   (after x ^= x >> 30)
    MIX2  = 0x94D049BB133111EB   (after x ^= x >> 27)

with a final ``x ^= x >> 31``, all modulo 2**64. Bounded draws take the
64-bit output modulo the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def chance(self, probability: float) -> bool:
        return self.next_u64() < int(probability * (1 << 64))


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic net.

    The generator stops expanding once the place count reaches
    ``target_places``, so the output overshoots by at most
    ``branch_factor_max`` places.
    """

    target_places: int
    seed: int
    branch_factor_max: int = 4
    parallel_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.target_places < 1:
            raise ValueError("target_places must be at least 1")
        if self.branch_factor_max < 2:
            raise ValueError("branch_factor_max must be at least 2")
        if not 0.0 <= self.parallel_prob <= 1.0:
            raise ValueError("parallel_prob must lie in [0, 1]")

    def file_name(self) -> str:
        return f"sp{self.target_places}_{self.seed}.json"


def generate_sp_net(spec: GenSpec) -> PetriNetDocument:
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

