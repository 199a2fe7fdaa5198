"""``rank_statecharts`` against the ranking it replaced.

``rank_reference`` holds the earlier ranking verbatim. On the same models,
which may be documents as read (every children list a range), canonical
documents, documents with each level's node numbers shuffled (children
lists in any order) or stores, both must give the same roots, kinds,
names and parents, the same children lists and the same ``paths`` and
``ranks``, and the validator's ``_children``, which sorts a node's
children only when its descent reads them, must give the reference's
canonical children order. The ``RankedTrees`` docstring fixes rank
values (dense within a level, distinct between levels, ``paths`` rising
and ``ranks`` falling with depth), so equal lists are the same equality
classes in the same order within each level. Canonical bytes and
validation reports built on either ranking must be equal too, and equal
to the report of ``validate_full``, which ranks only the pairs that its
node bijection does not prove equal, and ranks the structure of only
those whose labels agree.
"""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank_reference
from helpers import (
    NETS,
    PARTNER_CHANGES,
    json_nodes,
    mutated_statechart,
    named_from,
    renamed,
    rotated_ors,
    shuffled_net,
    statechart_cases,
    twin_regions,
)
from pn2sc import io as scio
from pn2sc import rank
from pn2sc import validate
from pn2sc.flat import transform_net
from pn2sc.generate import GenSpec, generate_sp_net


def assert_same_ranking(*models) -> None:
    want = rank_reference.rank_statecharts(*models)
    got = rank.rank_statecharts(*models)
    assert (got.roots, got.kinds, got.names, got.parents) == (
        want.roots, want.kinds, want.names, want.parents)
    assert got.children == want.children
    assert [validate._children(got, node) for node in range(len(got.kinds))
            ] == [list(kids) for kids in want.ordered]
    assert got.paths == want.paths
    assert got.ranks == want.ranks


def assert_same_canonical_bytes(doc: scio.StatechartDocument) -> None:
    assert scio.statechart_document_to_bytes(rank.canonical_document(doc)) \
        == scio.statechart_document_to_bytes(
            rank_reference.canonical_document(doc))


def _reference_ranking(checked: rank.CheckedStatecharts,
                       labelled: rank.LabelledTrees) -> rank.RankedTrees:
    return rank_reference.rank_statecharts(*checked.docs)


def reference_report(actual, expected) -> validate.ValidationReport:
    """The report the reference ranking gives: the label comparison on its
    ranks, else the descent, wherever the roots rank apart."""
    trees = rank_reference.rank_statecharts(actual, expected)
    root_a, root_e = trees.roots
    found = []
    if trees.ranks[root_a] != trees.ranks[root_e]:
        found = (validate._label_mismatches(trees, trees.ranks, root_e)
                 or validate._first_divergence(trees, root_a, root_e))
    return validate.ValidationReport(validate.ValidationLevel.FULL,
                                     tuple(found))


def assert_same_report(actual, expected) -> None:
    report = validate.validate_full(actual, expected)
    assert report == reference_report(actual, expected)
    # The certificate changes no report: with it given up, every pair is
    # ranked, by either structural ranking where its labels agree.
    with mock.patch.object(validate, "_isomorphic", return_value=False):
        assert report == validate.validate_full(actual, expected)
        with mock.patch.object(validate, "rank_labelled", _reference_ranking):
            assert report == validate.validate_full(actual, expected)
    # A document's counts are its tree's, so models that pass in full
    # hold as many elements of each kind.
    if report.passed:
        assert validate.validate_counts(actual, expected).passed


def level_permuted(doc: scio.StatechartDocument,
                   seed: int) -> scio.StatechartDocument:
    """``doc`` with the node numbers of each level shuffled among
    themselves, and its children and links rewritten to match: still
    numbered depth by depth, but its children lists are not ranges and
    run in any order within their level."""
    rng = random.Random(seed)
    new_of = list(range(len(doc.kinds)))
    start, end = 0, 1
    while start < end:
        level = new_of[start:end]
        rng.shuffle(level)
        new_of[start:end] = level
        start, end = end, end + sum(map(len, doc.children[start:end]))

    def moved(values: list) -> list:
        out = [None] * len(values)
        for node, value in zip(new_of, values):
            out[node] = value
        return out

    return scio.StatechartDocument(
        moved(doc.uids), moved(doc.kinds), moved(doc.names),
        moved([[new_of[kid] for kid in kids] for kids in doc.children]),
        moved([tuple([new_of[target] for target in targets])
               for targets in doc.links]))


def check_pair(data: bytes, partner: bytes) -> None:
    """Every check on a written statechart and a partner file: each as
    read (children ranges), in canonical form (children lists in rank
    order), the partner with each level shuffled (children lists in any
    order) and as a store."""
    doc = scio.parse_statechart(data)
    other = scio.parse_statechart(partner)
    canonical = rank.canonical_document(other)
    permuted = level_permuted(other, len(partner))
    for model in (doc, other, canonical, permuted,
                  scio.read_statechart(partner)):
        assert_same_ranking(model)
    for first, second in ((doc, other), (other, doc), (canonical, doc),
                          (permuted, doc), (doc, permuted),
                          (doc, scio.read_statechart(partner))):
        assert_same_ranking(first, second)
        assert_same_report(first, second)
    for model in (doc, other, canonical, permuted):
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


@pytest.mark.parametrize("actual, expected", [
    (scio.document_from_statechart(twin_regions(True)),
     scio.document_from_statechart(twin_regions(False))),
    (rotated_ors(6, 0, ("x",)), rotated_ors(6, 1, ("x",))),
], ids=["basic-moved-between-twin-ors", "rotated-twin-ors"])
def test_pairs_only_the_descent_tells_apart_rank_as_before(actual, expected):
    # Every label sits on the same name paths in both models, so the
    # discrepancies come from the descent. Where a surplus child shares as
    # much with several twins, the canonical order of the children picks
    # its partner, so the pair is checked with the children of either side
    # shuffled in its file too.
    trees = rank.rank_statecharts(actual, expected)
    assert trees.ranks[trees.roots[0]] != trees.ranks[trees.roots[1]]
    assert validate._label_mismatches(trees, trees.ranks,
                                      trees.roots[1]) == []
    data, partner = map(scio.statechart_document_to_bytes, (actual, expected))
    check_pair(data, partner)
    for seed in range(3):
        check_pair(mutated_statechart(data, "reordered", seed), partner)
        check_pair(data, mutated_statechart(partner, "reordered", seed))



def _written(net) -> bytes:
    doc, _ = transform_net(net)
    return scio.statechart_document_to_bytes(doc)


def _state_edited(data: bytes, kind: str, name: str,
                  of: str = "OR") -> bytes | None:
    """``data`` with its last state of kind ``of`` given ``kind`` and
    ``name`` (and the counts to match), or None where that state is the
    top AND."""
    doc = json.loads(data)
    node = [node for node, _ in json_nodes(doc) if node["kind"] == of][-1]
    if node is doc["root"]["children"][0]:
        return None
    node["kind"], node["name"] = kind, name
    doc["counts"][of.lower()] -= 1
    doc["counts"][kind.lower()] += 1
    return json.dumps(doc).encode()


def _edge_moved_up(data: bytes, seed: int) -> bytes | None:
    """``data`` with one HyperEdge under a state below the top AND moved
    into the top AND, as perfbench's mutant moves one: a move that changes
    its depth. None where every HyperEdge is in the top AND."""
    doc = json.loads(data)
    top = doc["root"]["children"][0]
    edges = [(node, parent) for node, parent in json_nodes(doc)
             if node["kind"] == "HyperEdge" and parent is not top]
    if not edges:
        return None
    node, parent = random.Random(seed).choice(edges)
    parent["children"].remove(node)
    top["children"].append(node)
    return json.dumps(doc).encode()


def test_labels_that_force_a_bijection_pass_without_ranking():
    # Every Basic and HyperEdge name of these outputs is unique within its
    # kind, so the names map the nodes, and an equal partner passes
    # before any ranking; any other pair reaches the name-path ranking.
    sp300 = _written(generate_sp_net(GenSpec(300, 4)))
    equal = [(data, mutated_statechart(data, "reordered", seed))
             for _, data in statechart_cases() for seed in range(3)]
    equal.append((sp300, mutated_statechart(sp300, "reordered", 5)))
    unequal = [(data, partner)
               for data in [data for _, data in statechart_cases()] + [sp300]
               for change in PARTNER_CHANGES[2:] for seed in range(3)
               if (partner := mutated_statechart(data, change, seed))]
    # A state that changes kind or name changes no Basic or HyperEdge.
    unequal += [(sp300, _state_edited(sp300, "AND", "")),
                (sp300, _state_edited(sp300, "OR", "x"))]
    one_name = _written(renamed(generate_sp_net(GenSpec(300, 4)), "x"))
    tied = [(one_name, mutated_statechart(one_name, "reordered", 1)),
            (one_name, one_name),
            (scio.statechart_document_to_bytes(rotated_ors(6, 0, ("x",))),
             scio.statechart_document_to_bytes(rotated_ors(6, 1, ("x",))))]
    with mock.patch.object(validate, "label_checked",
                           side_effect=AssertionError("ranked")):
        for data, partner in equal:
            for actual, expected in ((data, partner), (partner, data)):
                assert validate.validate_full(
                    scio.parse_statechart(actual),
                    scio.parse_statechart(expected)).passed
        store = scio.read_statechart(sp300)
        for doc in (scio.parse_statechart(sp300),
                    scio.document_from_statechart(store)):
            assert validate.validate_full(store, doc).passed
            assert validate.validate_full(doc, store).passed
    for data, partner in unequal + tied:
        pair = scio.parse_statechart(data), scio.parse_statechart(partner)
        with mock.patch.object(validate, "label_checked",
                               wraps=rank.label_checked) as ranking:
            report = validate.validate_full(*pair)
        assert ranking.called
        assert report.passed == ((data, partner) in tied[:2])
        assert_same_report(*pair)


def test_pairs_with_unequal_labels_report_without_ranking_structure():
    # A renamed Basic, a HyperEdge moved to another depth and a state
    # whose kind flips between AND and OR each change name paths, so the
    # label comparison gives the whole report, the reference ranking's,
    # and the structure of neither model is ranked.
    charts = [data for _, data in statechart_cases()]
    charts.append(_written(generate_sp_net(GenSpec(300, 4))))
    pairs = []
    for data in charts:
        partners = [mutated_statechart(data, "basic-renamed", seed)
                    for seed in range(3)]
        partners += [_edge_moved_up(data, seed) for seed in range(3)]
        partners += [_state_edited(data, "AND", ""),
                     _state_edited(data, "OR", "", of="AND")]
        pairs += [(data, partner) for partner in partners
                  if partner is not None]
    kinds = set()
    with mock.patch.object(validate, "rank_labelled",
                           side_effect=AssertionError("ranked")):
        for data, partner in pairs:
            for pair in ((data, partner), (partner, data)):
                docs = [scio.parse_statechart(side) for side in pair]
                report = validate.validate_full(*docs)
                assert not report.passed
                assert report == reference_report(*docs)
                kinds.update(kind for kind, _ in report.discrepancies)
    assert kinds >= {"missing-node", "extra-node", "wrong-container"}, kinds
