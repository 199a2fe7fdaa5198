"""``rank_statecharts`` against the ranking it replaced.

``rank_reference`` holds the earlier ranking verbatim. On the same models,
which may be laid-out documents, canonical documents or stores, both must
give the same roots, kinds, names and parents, the same children order
and the same ``paths`` and ``ranks``. The ``RankedTrees`` docstring fixes
rank values (dense within a level, distinct between levels, ``paths``
rising and ``ranks`` falling with depth), so equal lists are the same
equality classes in the same order within each level. Canonical bytes and
validation reports built on either ranking must be equal too.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank_reference
from helpers import (
    NETS,
    PARTNER_CHANGES,
    mutated_statechart,
    named_from,
    shuffled_net,
    statechart_cases,
)
from pn2sc import io as scio
from pn2sc import validate
from pn2sc.flat import transform_net


def assert_same_ranking(*models) -> None:
    got = scio.rank_statecharts(*models)
    want = rank_reference.rank_statecharts(*models)
    assert (got.roots, got.kinds, got.names, got.parents) == (
        want.roots, want.kinds, want.names, want.parents)
    assert [list(kids) for kids in got.children] == [
        list(kids) for kids in want.children]
    assert got.paths == want.paths
    assert got.ranks == want.ranks


def assert_same_canonical_bytes(doc: scio.StatechartDocument) -> None:
    assert scio.statechart_document_to_bytes(scio.canonical_document(doc)) \
        == scio.statechart_document_to_bytes(
            rank_reference.canonical_document(doc))


def assert_same_report(actual, expected) -> None:
    report = validate.validate_full(actual, expected)
    with mock.patch.object(validate, "rank_statecharts",
                           rank_reference.rank_statecharts):
        assert report == validate.validate_full(actual, expected)


def check_pair(data: bytes, partner: bytes) -> None:
    """Every check on a written statechart and a partner file: each as
    read (laid out), in canonical form (not laid out) and as a store."""
    doc = scio.parse_statechart(data)
    other = scio.parse_statechart(partner)
    canonical = scio.canonical_document(other)
    for model in (doc, other, canonical, scio.read_statechart(partner)):
        assert_same_ranking(model)
    for first, second in ((doc, other), (other, doc), (canonical, doc),
                          (doc, scio.read_statechart(partner))):
        assert_same_ranking(first, second)
        assert_same_report(first, second)
    for model in (doc, other, canonical):
        assert_same_canonical_bytes(model)


@pytest.mark.parametrize("name, data", statechart_cases(),
                         ids=[name for name, _ in statechart_cases()])
def test_goldens_and_their_partners_rank_as_before(name, data):
    for change in PARTNER_CHANGES:
        for seed in range(3):
            partner = mutated_statechart(data, change, seed)
            if partner is not None:
                check_pair(data, partner)


@given(net=NETS, shuffle=st.booleans(),
       pool=st.none() | st.lists(st.sampled_from(["x", "y", ""]),
                                 min_size=1, max_size=3),
       change=st.sampled_from(PARTNER_CHANGES), seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_arbitrary_nets_rank_as_before(net, shuffle, pool, change, seed):
    rng = random.Random(seed)
    if shuffle:
        net = shuffled_net(net, seed)
    if pool is not None:
        net = named_from(net, pool, rng)
    doc, _ = transform_net(net)
    if doc is None:  # irreducible: nothing to rank
        return
    data = scio.statechart_document_to_bytes(doc)
    partner = mutated_statechart(data, change, seed)
    check_pair(data, data if partner is None else partner)
