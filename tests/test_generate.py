from __future__ import annotations

import gc
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import generate_reference
from helpers import load_corpus
from pn2sc.generate import GenSpec, SplitMix64, generate_sp_net
from pn2sc.io import kind_counts, petri_net_to_bytes, store_from_petri_net
from pn2sc.model import ElementKind
from pn2sc.reduce import create_statechart


def test_splitmix_reference_values():
    # first outputs for seed 1234567, from the published reference sequence
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


@given(
    target=st.integers(1, 600),
    seed=st.integers(0, 2 ** 64 - 1),
    branch_max=st.integers(2, 7),
    prob=st.floats(0, 1),
)
@example(target=300, seed=5, branch_max=4, prob=0.0)
@example(target=300, seed=5, branch_max=4, prob=1.0)
@settings(max_examples=80, deadline=None)
def test_same_records_as_reference(target, seed, branch_max, prob):
    spec = GenSpec(target, seed, branch_max, prob)
    assert generate_sp_net(spec) == generate_reference.generate_sp_net(spec)


@pytest.mark.parametrize("spec, digest", [
    (GenSpec(1, 9),
     "200e7386f4503d00f5393e5b4771c74c7c20d1165fb459e3601e189bc5289e0a"),
    (GenSpec(400, 7, 2, 1.0),
     "a4d75f88797869ce3867d2bbb7c2a02727ebe5e9076ef2778f4c30176b78e779"),
    (GenSpec(500, 13, 7, 0.0),
     "ddf3b7d3d7fc408939ccc3d71ee674b0370c9adf5f15866b5b83ac47f54625ae"),
    (GenSpec(3000, 1),
     "b3f682eeb745e2e2d5af10fbfb0d76e0269fb43899a9b8deb70bef74f728e619"),
])
def test_corpus_bytes_are_pinned(spec, digest):
    data = petri_net_to_bytes(generate_sp_net(spec))
    assert hashlib.sha256(data).hexdigest() == digest


def test_one_string_per_element():
    doc = generate_sp_net(GenSpec(500, 3))
    ids = {}
    for place in doc.places:
        assert place.id is place.name
        ids[place.id] = place.id
    for transition in doc.transitions:
        assert transition.id is transition.name
        for arc in transition.pre + transition.post:
            assert arc is ids[arc]


@pytest.mark.parametrize("collecting", [True, False])
def test_collector_is_left_as_the_caller_had_it(collecting):
    # The generator pauses the collector while it builds a net; the
    # caller's setting comes back, also when the spec fails in the build.
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        generate_sp_net(GenSpec(50, 1))
        assert gc.isenabled() is collecting
        with pytest.raises(AttributeError):
            generate_sp_net(None)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_single_place_base_case():
    doc = generate_sp_net(GenSpec(target_places=1, seed=9))
    assert len(doc.places) == 1
    assert doc.transitions == ()


def test_same_seed_same_bytes():
    spec = GenSpec(target_places=200, seed=42)
    assert petri_net_to_bytes(generate_sp_net(spec)) == petri_net_to_bytes(
        generate_sp_net(spec)
    )


def test_different_seeds_differ():
    a = generate_sp_net(GenSpec(target_places=60, seed=1))
    b = generate_sp_net(GenSpec(target_places=60, seed=2))
    assert petri_net_to_bytes(a) != petri_net_to_bytes(b)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GenSpec(target_places=0, seed=0)
    with pytest.raises(ValueError):
        GenSpec(target_places=5, seed=0, branch_factor_max=1)
    with pytest.raises(ValueError):
        GenSpec(target_places=5, seed=0, parallel_prob=1.5)


def test_file_name_convention():
    assert GenSpec(5000, 7).file_name() == "sp5000_7.json"


@given(
    target=st.integers(1, 400),
    seed=st.integers(0, 2 ** 64 - 1),
    branch_max=st.integers(2, 6),
    prob=st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_size_envelope_and_reducibility(target, seed, branch_max, prob):
    spec = GenSpec(target, seed, branch_max, prob)
    doc = generate_sp_net(spec)
    n_places = len(doc.places)
    n_transitions = len(doc.transitions)
    assert target <= n_places <= target + branch_max
    # every expansion adds at most as many transitions as places, and a
    # parallel block of width k adds 2 transitions per k+1 places
    assert n_transitions <= max(n_places - 1, 0)
    if n_places > 1:
        assert n_transitions >= 2 * (n_places - 1) // (branch_max + 1)
    pn = store_from_petri_net(doc)
    _, result = create_statechart(pn)
    assert result.ok, f"seed {seed} produced an irreducible net"


def test_known_corpus_shape():
    corpus = load_corpus()
    assert len(corpus) == 5
    names = [fx.name for fx in corpus]
    assert len(set(names)) == len(names)
    chain = next(fx for fx in corpus if fx.name == "chain")
    assert chain.expected is not None
    assert kind_counts(chain.expected.kinds) == {
        "statechart": 1, "and": 1, "or": 1, "basic": 2, "hyperedge": 1
    }
    fork_join = next(fx for fx in corpus if fx.name == "fork_join")
    doc = fork_join.expected
    (top_and,) = doc.children[0]
    inner_kinds = [
        doc.kinds[child] for child in doc.children[doc.children[top_and][0]]
    ]
    assert inner_kinds.count("AND") == 1
    irreducible = [fx for fx in corpus if fx.expected is None]
    assert len(irreducible) == 1


def test_corpus_nets_transform_to_expected_outcome(golden_dir):
    from pn2sc.io import statechart_document_to_bytes, write_statechart

    for fx in load_corpus():
        pn = store_from_petri_net(fx.net)
        sc, result = create_statechart(pn)
        if fx.expected is None:
            assert not result.ok
            assert sc.count_of_kind(ElementKind.STATECHART) == 0
            continue
        assert result.ok
        produced = write_statechart(sc, result)
        assert produced == statechart_document_to_bytes(fx.expected)
        golden = (golden_dir / f"{fx.name}.statechart.json").read_bytes()
        assert produced == golden
