"""``rank_statecharts`` against the ranking it replaced.

``rank_reference`` holds the earlier ranking verbatim. On the same models,
which may be documents as read (every children list a range), canonical
documents, documents with each level's node numbers shuffled (children
lists in any order) or stores flattened by ``store_reference``, both must
give the same roots, kinds, names and parents, the same children lists
and the same ``paths`` and ``ranks``, and the validator's ``_children``,
which sorts a node's children only when its descent reads them, must
give the reference's canonical children order. The ``RankedTrees``
docstring fixes rank values (dense within a level, distinct between
levels, ``paths`` rising and ``ranks`` falling with depth), so equal
lists are the same equality classes in the same order within each
level. Canonical bytes and validation reports built on either ranking
must be equal too, and equal to the report of ``validate_full``, which
ranks no pair that its node bijection proves equal, and compares the
labels of any other pair first, ranking its structure only where they
agree.
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
    chain_document,
    edge_moved_up,
    json_nodes,
    mutated_statechart,
    named_from,
    nested_fork_join_net,
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
from store_reference import (
    _store_document,
    document_from_statechart,
    read_statechart,
)
from test_small_scope import small_nets


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
    """The report the reference ranking gives: the reference label
    comparison on its ranks, else the descent, wherever the roots rank
    apart."""
    trees = rank_reference.rank_statecharts(actual, expected)
    root_a, root_e = trees.roots
    found = []
    if trees.ranks[root_a] != trees.ranks[root_e]:
        found = (rank_reference.label_mismatches(trees, root_e)
                 or validate._first_divergence(trees, root_a, root_e))
    return validate.ValidationReport(validate.ValidationLevel.FULL,
                                     tuple(found))


def assert_same_report(actual, expected) -> None:
    report = validate.validate_full(actual, expected)
    assert report == reference_report(actual, expected)
    # The certificate changes no report: with it given up, every pair has
    # its labels compared on name-path ids, and is ranked by either
    # structural ranking where its labels agree.
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
    stored = _store_document(read_statechart(partner))
    for model in (doc, other, canonical, permuted, stored):
        assert_same_ranking(model)
    for first, second in ((doc, other), (other, doc), (canonical, doc),
                          (permuted, doc), (doc, permuted),
                          (doc, stored)):
        assert_same_ranking(first, second)
        assert_same_report(first, second)
    for model in (doc, other, canonical, permuted):
        assert_same_canonical_bytes(model)


@pytest.mark.parametrize("name, data", statechart_cases(),
                         ids=[name for name, _ in statechart_cases()])
def test_goldens_and_their_partners_rank_as_before(name, data):
    for partner in _partners(data):
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
    (document_from_statechart(twin_regions(True)),
     document_from_statechart(twin_regions(False))),
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
    assert rank_reference.label_mismatches(trees, trees.roots[1]) == []
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


def _partners(data: bytes) -> list[bytes]:
    """``data`` under every ``PARTNER_CHANGES`` entry (seeds 0-2), with a
    HyperEdge moved up (seeds 0-2), its last OR made an AND or a named OR,
    and its last AND below the top made an OR or a named AND."""
    partners = [mutated_statechart(data, change, seed)
                for change in PARTNER_CHANGES for seed in range(3)]
    partners += [edge_moved_up(data, seed) for seed in range(3)]
    partners += [_state_edited(data, "AND", ""),
                 _state_edited(data, "OR", "x"),
                 _state_edited(data, "OR", "", of="AND"),
                 _state_edited(data, "AND", "x", of="AND")]
    return [partner for partner in partners if partner is not None]


def test_sp300_and_its_partners_report_as_the_reference():
    data = _written(generate_sp_net(GenSpec(300, 4)))
    for partner in _partners(data):
        for pair in ((data, partner), (partner, data)):
            assert_same_report(*map(scio.parse_statechart, pair))
    # Below a named AND, the unnamed ORs keep their count but not their
    # name paths; they are paired in name-path order, with no ranking.
    pair = [scio.parse_statechart(side) for side in
            (data, _state_edited(data, "AND", "x", of="AND"))]
    with mock.patch.object(validate, "rank_labelled",
                           side_effect=AssertionError("ranked")):
        report = validate.validate_full(*pair)
    assert any(detail.startswith("OR() contained under")
               for _, detail in report.discrepancies), report


def test_labels_that_force_a_bijection_pass_without_ranking():
    # Every Basic and HyperEdge name of these outputs is unique within its
    # kind, so the names map the nodes, and an equal partner passes
    # before any ranking; a partner with one name everywhere is ranked.
    sp300 = _written(generate_sp_net(GenSpec(300, 4)))
    equal = [(data, mutated_statechart(data, "reordered", seed))
             for _, data in statechart_cases() for seed in range(3)]
    equal.append((sp300, mutated_statechart(sp300, "reordered", 5)))
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
        store = read_statechart(sp300)
        stored = _store_document(store)
        for doc in (scio.parse_statechart(sp300),
                    document_from_statechart(store)):
            assert validate.validate_full(stored, doc).passed
            assert validate.validate_full(doc, stored).passed
    for data, partner in tied:
        pair = scio.parse_statechart(data), scio.parse_statechart(partner)
        with mock.patch.object(validate, "rank_labelled",
                               wraps=rank.rank_labelled) as ranking:
            report = validate.validate_full(*pair)
        assert ranking.called
        assert report.passed == ((data, partner) in tied[:2])
        assert_same_report(*pair)


def test_labels_alone_rank_pairs_whose_edge_names_do_not_repeat():
    # Where no HyperEdge name repeats in either model, a pair whose labels
    # agree is ranked from its labels alone (``rank._labels``): the ranks
    # must be those of the name paths and signatures, and the report the
    # reference's. The pairs: the unforced ones above, an sp300 output
    # whose Basics are all named x (HyperEdges keep their names) against
    # itself and its reordered copies, and the small-scope sweep's outputs
    # named alike against their reordered copies.
    net = generate_sp_net(GenSpec(300, 4))
    one_name = _written(net._replace(places=tuple(
        place._replace(name="x") for place in net.places)))
    pairs = [(one_name, one_name)] + [
        (one_name, mutated_statechart(one_name, "reordered", seed))
        for seed in range(3)]
    pairs.append(tuple(scio.statechart_document_to_bytes(rotated_ors(
        6, shift, ("x",))) for shift in (0, 1)))
    for small in small_nets(3, 2):
        doc, _ = transform_net(renamed(small, "x"))
        if doc is not None:
            data = scio.statechart_document_to_bytes(doc)
            pairs.append((mutated_statechart(data, "reordered", len(data)),
                          data))
    ranked = 0
    for pair in pairs:
        docs = [scio.parse_statechart(side) for side in pair]
        checked = rank.check_statecharts(*docs)
        if rank._edge_names_repeat(checked.docs) or rank._isomorphic(checked):
            continue
        ranked += 1
        assert rank.rank_labelled(checked, rank._labels(checked)).ranks \
            == rank.rank_labelled(checked, rank.label_checked(checked)).ranks
        with mock.patch.object(validate, "label_checked",
                               side_effect=AssertionError("name paths")), \
                mock.patch.object(validate, "rank_labelled",
                                  wraps=rank.rank_labelled) as ranking:
            report = validate.validate_full(*docs)
        assert ranking.called
        assert report == reference_report(*docs)
    assert ranked > 5, ranked  # the sweep's pairs as well as the five


def test_failing_pairs_with_repeated_names_report_before_ranking():
    # Where every place and transition is named x, the labels are compared
    # on the ranking's name paths and signatures (passes 1 and 2), and a
    # pair whose labels differ reports before its structure is ranked.
    one_name = _written(renamed(generate_sp_net(GenSpec(300, 4)), "x"))
    partners = [mutated_statechart(one_name, change, seed)
                for change in PARTNER_CHANGES[2:] for seed in range(3)]
    partners += [edge_moved_up(one_name, seed) for seed in range(3)]
    told = 0
    for partner in filter(None, partners):
        for pair in ((one_name, partner), (partner, one_name)):
            docs = [scio.parse_statechart(side) for side in pair]
            trees = rank_reference.rank_statecharts(*docs)
            if not rank_reference.label_mismatches(trees, trees.roots[1]):
                continue  # only the structure tells this pair apart
            told += 1
            with mock.patch.object(validate, "rank_labelled",
                                   side_effect=AssertionError("ranked")):
                report = validate.validate_full(*docs)
            assert report == reference_report(*docs)
    assert told >= 10, told


def test_pairs_with_unequal_labels_report_without_ranking_structure():
    # A renamed Basic, a HyperEdge moved to another depth, a dropped link
    # and a state whose kind or name changes leave every Basic and
    # HyperEdge name unique and change a name path or a link, so the
    # name-path ids give the whole report, the reference ranking's, and
    # neither model is ranked. (A HyperEdge moved to a twin of its
    # container keeps its name path: only the ranking tells that apart.)
    charts = [data for _, data in statechart_cases()]
    charts.append(_written(generate_sp_net(GenSpec(300, 4))))
    pairs = []
    for data in charts:
        partners = [mutated_statechart(data, change, seed)
                    for change in ("basic-renamed", "link-dropped")
                    for seed in range(3)]
        partners += [edge_moved_up(data, seed) for seed in range(3)]
        partners += [_state_edited(data, "AND", ""),
                     _state_edited(data, "OR", "x"),
                     _state_edited(data, "OR", "", of="AND"),
                     _state_edited(data, "AND", "x", of="AND")]
        pairs += [(data, partner) for partner in partners
                  if partner is not None]
    kinds = set()
    with mock.patch.object(validate, "label_checked",
                           side_effect=AssertionError("labelled")), \
            mock.patch.object(validate, "rank_labelled",
                              side_effect=AssertionError("ranked")):
        for data, partner in pairs:
            for pair in ((data, partner), (partner, data)):
                docs = [scio.parse_statechart(side) for side in pair]
                report = validate.validate_full(*docs)
                assert not report.passed
                assert report == reference_report(*docs)
                kinds.update(kind for kind, _ in report.discrepancies)
    assert kinds == {"missing-node", "extra-node", "wrong-container",
                     "next-set-mismatch"}, kinds


def test_documents_of_different_depths_rank_as_before():
    # The deeper document's last levels have no counterpart in the other,
    # so the structural pass skips the shallower one there.
    for pair in ((chain_document(3), chain_document(6)),
                 tuple(scio.parse_statechart(_written(nested_fork_join_net(
                     depth))) for depth in (2, 5))):
        levels = rank.check_statecharts(*pair).levels
        assert len(levels[0]) < len(levels[1])
        for models in (pair, pair[::-1]):
            assert_same_ranking(*models)
            assert_same_report(*models)


def _one_region(*leaves: tuple[str, str]) -> scio.StatechartDocument:
    """A top AND over one unnamed OR that holds ``leaves``, as (kind,
    name) pairs, with no links."""
    size = 3 + len(leaves)
    return scio.StatechartDocument(
        list(range(size)),
        ["Statechart", "AND", "OR", *(kind for kind, _ in leaves)],
        ["", "", "", *(name for _, name in leaves)],
        [range(1, 2), range(2, 3), range(3, size)] + [()] * len(leaves),
        [()] * size)


def test_a_basic_name_repeated_in_the_actual_model_only_reports_as_before():
    # The two models have as many nodes at every level, and every Basic
    # name of the actual one is in the expected one, where it is unique;
    # but the actual one holds it twice, so no bijection is forced.
    actual = _one_region(("Basic", "a"), ("Basic", "a"))
    expected = _one_region(("Basic", "a"), ("HyperEdge", "h"))
    assert rank._images_by_name(actual, expected, len(actual.kinds)) is None
    for pair in ((actual, expected), (expected, actual)):
        assert not validate.validate_full(*pair).passed
        assert_same_report(*pair)
