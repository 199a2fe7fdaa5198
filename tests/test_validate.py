from __future__ import annotations

import gc
import json
import random
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NETS,
    PARTNER_CHANGES,
    build_net,
    chain_document,
    corpus_entry,
    edge_moved_up,
    json_nodes,
    load_corpus,
    mutated_statechart,
    named_from,
    nested_fork_join_net,
    rotated_ors,
    shuffled_net,
    statechart_cases,
    twin_regions,
)
from rank_reference import label_mismatches
from pn2sc import validate
from pn2sc.flat import transform_net
from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.io import (
    StatechartDocument,
    document_from_statechart,
    parse_statechart,
    read_statechart,
    statechart_document_to_bytes,
    store_from_petri_net,
    store_from_statechart,
)
from pn2sc.model import ElementKind, ModelStore
from pn2sc.rank import (
    check_statecharts,
    label_checked,
    rank_labelled,
    rank_statecharts,
)
from pn2sc.reduce import create_statechart
from pn2sc.validate import (
    Discrepancy,
    ValidationLevel,
    ValidationReport,
    validate_counts,
    validate_full,
)

B = ElementKind.BASIC
OR = ElementKind.OR
AND = ElementKind.AND
H = ElementKind.HYPER_EDGE


def golden_statechart(name: str) -> ModelStore:
    """The store the reference route makes from golden net ``name``."""
    sc, result = create_statechart(
        store_from_petri_net(corpus_entry(name).net)
    )
    assert result.ok
    return sc


def chain_statechart():
    return golden_statechart("chain")


def fork_join_statechart():
    return golden_statechart("fork_join")


class TestCounts:
    def test_identical_models_pass(self):
        report = validate_counts(chain_statechart(), chain_statechart())
        assert report.passed
        assert report.level is ValidationLevel.COUNTS

    def test_missing_or_is_reported_once(self):
        actual = chain_statechart()
        expected = fork_join_statechart()
        report = validate_counts(actual, expected)
        assert not report.passed
        or_items = [d for d in report.discrepancies if "OR" in d.detail]
        assert len(or_items) == 1
        assert or_items[0].kind == "count-mismatch"

    def test_chain_against_expected_tallies(self):
        sc = chain_statechart()
        expected = store_from_statechart(corpus_entry("chain").expected)
        assert validate_counts(sc, expected).passed


class TestFull:
    def test_self_isomorphism(self):
        report = validate_full(chain_statechart(), chain_statechart())
        assert report.passed
        assert report.level is ValidationLevel.FULL

    def test_reflexive_over_corpus(self):
        for fx in load_corpus():
            if fx.expected is None:
                continue
            pn = store_from_petri_net(fx.net)
            sc, _ = create_statechart(pn)
            assert validate_full(sc, sc).passed
            expected = store_from_statechart(fx.expected)
            assert validate_full(sc, expected).passed

    def test_missing_next_link_detected(self):
        actual = chain_statechart()
        (edge,) = actual.all_of_kind(H)
        (target,) = actual.refs(edge, "next")
        actual.remove_ref(edge, "next", target)
        report = validate_full(actual, chain_statechart())
        assert not report.passed
        assert any(d.kind == "next-set-mismatch" for d in report.discrepancies)

    def test_extra_element_detected(self):
        actual = chain_statechart()
        (or_state,) = actual.all_of_kind(OR)
        actual.add_ref(or_state, "contains", actual.create(B, "stowaway"))
        report = validate_full(actual, chain_statechart())
        assert not report.passed
        assert any(d.kind == "extra-node" for d in report.discrepancies)

    def test_missing_element_detected(self):
        actual = chain_statechart()
        basic = next(
            b for b in actual.all_of_kind(B) if actual.name_of(b) == "P2"
        )
        actual.delete(basic)
        report = validate_full(actual, chain_statechart())
        assert not report.passed
        assert any(d.kind == "missing-node" for d in report.discrepancies)

    def test_basic_moved_to_sibling_or_detected(self):
        actual = fork_join_statechart()
        basic = next(
            b for b in actual.all_of_kind(B) if actual.name_of(b) == "P1"
        )
        sibling = next(
            o for o in actual.all_of_kind(OR)
            if basic not in actual.refs(o, "contains")
        )
        actual.set_ref(basic, "rcontains", sibling)
        report = validate_full(actual, fork_join_statechart())
        assert not report.passed
        assert any(d.kind == "wrong-container" for d in report.discrepancies)

    def test_full_pass_implies_counts_pass(self):
        for fx in load_corpus():
            if fx.expected is None:
                continue
            pn = store_from_petri_net(fx.net)
            sc, _ = create_statechart(pn)
            expected = store_from_statechart(fx.expected)
            if validate_full(sc, expected).passed:
                assert validate_counts(sc, expected).passed

    def test_duplicate_names_compare_by_structure(self):
        # two same-named sibling ORs with different contents: swapping the
        # wrapper order must not matter, changing the contents must
        def tangled(swap: bool, extra: str) -> object:
            sc = build_net([], [])[0]
            from pn2sc.model import ElementKind as EK

            chart = sc.create(EK.STATECHART)
            top = sc.create(EK.AND)
            sc.set_ref(chart, "topState", top)
            outer = sc.create(EK.OR)
            sc.add_ref(top, "contains", outer)
            inner_and = sc.create(EK.AND)
            sc.add_ref(outer, "contains", inner_and)
            left = sc.create(EK.OR, "twin")
            right = sc.create(EK.OR, "twin")
            order = (right, left) if swap else (left, right)
            for region in order:
                sc.add_ref(inner_and, "contains", region)
            sc.add_ref(left, "contains", sc.create(EK.BASIC, "a"))
            sc.add_ref(right, "contains", sc.create(EK.BASIC, extra))
            return sc

        assert validate_full(tangled(False, "b"), tangled(True, "b")).passed
        assert not validate_full(tangled(False, "b"), tangled(False, "c")).passed

    def test_rejects_non_statechart_model(self):
        pn, _ = build_net(["P1", "P2"], [])
        sc, _ = create_statechart(pn)  # irreducible: no Statechart element
        with pytest.raises(ValueError):
            validate_full(sc, chain_statechart())


def test_deep_trees_rank_without_recursion():
    # A recursive walk or a nested-tuple key would pass the interpreter's
    # recursion limit on these trees; the models stay in memory because
    # their files are too deep for json.loads.
    def transformed(*depths):
        sc, result = create_statechart(
            store_from_petri_net(nested_fork_join_net(*depths))
        )
        assert result.ok
        return sc

    assert validate_full(transformed(300), transformed(300)).passed
    # two spines of one shape side by side: siblings that differ only in
    # the names deep inside them
    twins = transformed(300, 300)
    doc = document_from_statechart(twins)
    assert doc.count_of_kind(B) == 2 * (3 * 300 + 1) + 2
    assert validate_full(twins, twins).passed
    assert not validate_full(twins, transformed(300, 299)).passed


def test_basic_moved_between_twin_ors_is_one_move():
    # Both ORs have the name path Statechart()/AND()/OR(), so only the
    # descent sees the move; it must pair each OR with its likeness.
    def as_document(sc: ModelStore):
        return parse_statechart(
            statechart_document_to_bytes(document_from_statechart(sc))
        )

    actual, expected = twin_regions(True), twin_regions(False)
    region = "Statechart()/AND()/OR()"
    for report in (validate_full(actual, expected),
                   validate_full(as_document(actual), as_document(expected))):
        assert sorted((d.kind, d.detail) for d in report.discrepancies) == [
            ("extra-node", f"unexpected Basic(a1) under {region}"),
            ("missing-node", f"Basic(a1) missing under {region}"),
        ]


def test_wide_fork_of_twin_ors_fails_in_linear_time():
    # Every OR has the name path Statechart()/AND()/OR(), so the descent
    # pairs all of them; each shares a Basic with two partners.
    width = 8000
    actual, expected = rotated_ors(width, 0), rotated_ors(width, 1)
    started = time.perf_counter()
    report = validate_full(actual, expected)
    elapsed = time.perf_counter() - started
    assert Counter(d.kind for d in report.discrepancies) == {
        "extra-node": width, "missing-node": width}
    assert elapsed < 10, f"took {elapsed:.1f} s"
    assert validate_full(actual, rotated_ors(width, 0)).passed


def test_wide_fork_of_twin_ors_sharing_a_basic_fails_in_linear_time():
    # Every OR also holds a Basic x, so every twin holds x's rank once:
    # the rank index must not make each choice read all the twins.
    width = 8000
    actual = rotated_ors(width, 0, ("x",))
    expected = rotated_ors(width, 1, ("x",))
    started = time.perf_counter()
    report = validate_full(actual, expected)
    elapsed = time.perf_counter() - started
    assert Counter(d.kind for d in report.discrepancies) == {
        "extra-node": width, "missing-node": width}
    assert elapsed < 10, f"took {elapsed:.1f} s"
    assert validate_full(actual, rotated_ors(width, 0, ("x",))).passed


def test_validating_holds_less_than_twice_the_documents():
    # The verdict ranks both documents and keeps no children list, so its
    # peak, the two documents included, stays under twice their size;
    # so does the node bijection that passes them before any ranking.
    doc, _ = transform_net(generate_sp_net(GenSpec(3000, 1)))
    data = statechart_document_to_bytes(doc)
    del doc
    for certificate in (validate._isomorphic, lambda checked: False):
        gc.collect()
        tracemalloc.start()
        try:
            actual, expected = parse_statechart(data), parse_statechart(data)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with mock.patch.object(validate, "_isomorphic", certificate):
                report = validate_full(actual, expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 2.0 * held, (peak, held)


def _traced_peak(actual, expected) -> tuple[int, ValidationReport]:
    """The tracemalloc peak of ``validate_full``, above what it is given."""
    gc.collect()
    tracemalloc.start()
    try:
        report = validate_full(actual, expected)
        return tracemalloc.get_traced_memory()[1], report
    finally:
        tracemalloc.stop()


def test_the_bijection_holds_less_than_the_ranking():
    # On a pair whose labels force the node bijection, checking it holds
    # less than ranking the pair would; and a pair with unique names that
    # fails holds at most a tenth more than the bijection, as its labels
    # are compared on name-path ids, a level at a time.
    doc, _ = transform_net(generate_sp_net(GenSpec(3000, 1)))
    data = statechart_document_to_bytes(doc)
    del doc
    gc.collect()
    actual = parse_statechart(data)
    expected = parse_statechart(mutated_statechart(data, "reordered", 0))
    certified, report = _traced_peak(actual, expected)
    assert report.passed
    with mock.patch.object(validate, "_isomorphic", return_value=False):
        ranked, report = _traced_peak(actual, expected)
    assert report.passed
    assert certified < ranked, (certified, ranked)
    partners = [mutated_statechart(data, change, seed)
                for change in ("basic-renamed", "link-dropped")
                for seed in range(2)]
    for partner in partners + [edge_moved_up(data, 0)]:
        failed, report = _traced_peak(actual, parse_statechart(partner))
        assert not report.passed
        assert failed <= 1.1 * certified, (failed, certified)


def _three_nodes(links: list) -> StatechartDocument:
    return StatechartDocument([0, 1, 2], ["Statechart", "AND", "Basic"],
                              ["", "", "p"],
                              [range(1, 2), range(2, 3), ()], links)


def test_a_basic_that_links_the_and_passes_as_the_ranking_passes_it():
    # The ranking reads no link of a Basic to a state, so the pair passes
    # in full; the bijection sees the extra link and leaves it to the
    # ranking, and the name paths agree, so the structure is ranked.
    fault = _three_nodes([(), (), (1,)])
    clean = _three_nodes([(), (), ()])
    for pair in ((fault, clean), (clean, fault)):
        with mock.patch.object(validate, "rank_labelled",
                               wraps=rank_labelled) as ranking:
            assert validate_full(*pair).passed
        assert ranking.called
    assert validate_full(fault, fault).passed


def _hyperedges_at_two_depths(first: int, second: int,
                              extra: str) -> StatechartDocument:
    """Two HyperEdges named h, at depths 2 and 4, with equal labels at
    their levels; the first links Basic ``first``, the second Basic
    ``second`` (5 is b1, 6 is b2), and a third Basic is named ``extra``."""
    return StatechartDocument(
        list(range(11)),
        ["Statechart", "AND", "OR", "HyperEdge", "OR", "Basic", "Basic",
         "Basic", "AND", "HyperEdge", "OR"],
        ["", "", "", "h", "", "b1", "b2", extra, "", "h", ""],
        [range(1, 2), range(2, 5), range(5, 8), (), range(8, 9), (), (), (),
         range(9, 11), (), ()],
        [(), (), (), (first,), (), (), (), (), (), (second,), ()])


def test_hyperedge_keys_tell_depths_apart():
    # The two models swap which Basic each h links, and differ in one
    # Basic's name, so the name paths report at once. Keyed by label and
    # links alone, the two h would look alike in both models; their depths
    # tell them apart, as their ranks do, before any structure is ranked.
    actual = _hyperedges_at_two_depths(5, 6, "z")
    expected = _hyperedges_at_two_depths(6, 5, "y")
    trees = rank_statecharts(actual, expected)
    found = label_mismatches(trees, trees.roots[1])
    assert Discrepancy("next-set-mismatch", "HyperEdge(h) links a "
                       "different set of Basics than expected") in found
    with mock.patch.object(validate, "rank_labelled",
                           side_effect=AssertionError("ranked")):
        assert validate_full(actual, expected).discrepancies == tuple(found)


def _two_hyperedges(parents: tuple[str, str],
                    links: tuple[tuple[int, ...], tuple[int, ...]]
                    ) -> StatechartDocument:
    """A top AND over two ORs named ``parents`` (one OR where both names
    are equal), with one HyperEdge named h in each OR, or both in the one,
    and Basics b1 and b2 beside them; each h links ``links``, as 0 for b1
    and 1 for b2."""
    if parents[0] == parents[1]:
        kinds = ["Statechart", "AND", "OR", "HyperEdge", "HyperEdge",
                 "Basic", "Basic"]
        names = ["", "", parents[0], "h", "h", "b1", "b2"]
        children = [range(1, 2), range(2, 3), range(3, 7), (), (), (), ()]
        edges, basics = (3, 4), (5, 6)
    else:
        kinds = ["Statechart", "AND", "OR", "OR", "HyperEdge", "Basic",
                 "HyperEdge", "Basic"]
        names = ["", "", *parents, "h", "b1", "h", "b2"]
        children = [range(1, 2), range(2, 4), range(4, 6), range(6, 8), (),
                    (), (), ()]
        edges, basics = (4, 6), (5, 7)
    doc_links: list[tuple[int, ...]] = [()] * len(kinds)
    for edge, targets in zip(edges, links):
        doc_links[edge] = tuple(basics[target] for target in targets)
    return StatechartDocument(list(range(len(kinds))), kinds, names,
                              children, doc_links)


def test_namesakes_compare_by_their_signatures():
    # Two h in one OR link b1 and b2 in one model, and both Basics from
    # one h in the other: the links of the name path h are the same, but
    # its signatures are not, and the label comparison tells it.
    actual = _two_hyperedges(("o", "o"), ((0,), (1,)))
    expected = _two_hyperedges(("o", "o"), ((0, 1), ()))
    for pair in ((actual, expected), (expected, actual)):
        trees = rank_statecharts(*pair)
        found = label_mismatches(trees, trees.roots[1])
        assert found == [Discrepancy("next-set-mismatch", "HyperEdge(h) "
                                     "links a different set of Basics "
                                     "than expected")]
        with mock.patch.object(validate, "rank_labelled",
                               side_effect=AssertionError("ranked")):
            assert validate_full(*pair).discrepancies == tuple(found)
    # An h in each of two ORs swaps the Basic it links: its depth, name
    # and signature are held as often in both models, so the labels agree,
    # and only the structure, ranked and descended, tells the two apart.
    actual = _two_hyperedges(("o", "p"), ((0,), (1,)))
    expected = _two_hyperedges(("o", "p"), ((1,), (0,)))
    trees = rank_statecharts(actual, expected)
    assert label_mismatches(trees, trees.roots[1]) == []
    with mock.patch.object(validate, "rank_labelled",
                           wraps=rank_labelled) as ranking:
        report = validate_full(actual, expected)
    assert ranking.called
    assert [kind for kind, _ in report.discrepancies] == [
        "next-set-mismatch"] * 2, report


def _hyperedge_beside_two_ors(names: tuple[str, str],
                              target: int) -> StatechartDocument:
    """A top AND over two unnamed ORs, holding one Basic each (5 and 6,
    named ``names``), and a HyperEdge h that links Basic ``target``."""
    links = [()] * 7
    links[4] = (target,)
    return StatechartDocument(
        list(range(7)),
        ["Statechart", "AND", "OR", "OR", "HyperEdge", "Basic", "Basic"],
        ["", "", "", "", "h", *names],
        [range(1, 2), range(2, 5), range(5, 6), range(6, 7), (), (), ()],
        links)


def test_pairs_whose_name_paths_agree_compare_labels_before_structure():
    # Both models hold the same nodes on the same name paths; only which
    # Basic h links differs, and the HyperEdge keys tell it before any
    # structure is ranked.
    actual = _hyperedge_beside_two_ors(("b1", "b2"), 5)
    expected = _hyperedge_beside_two_ors(("b1", "b2"), 6)
    with mock.patch.object(validate, "rank_labelled",
                           side_effect=AssertionError("ranked")):
        for pair in ((actual, expected), (expected, actual)):
            assert validate_full(*pair).discrepancies == (Discrepancy(
                "next-set-mismatch",
                "HyperEdge(h) links a different set of Basics than expected"),)
    # With both Basics named b, swapping the two ORs maps one model onto
    # the other: the labels agree, and only the structural ranking passes
    # the pair.
    actual = _hyperedge_beside_two_ors(("b", "b"), 5)
    expected = _hyperedge_beside_two_ors(("b", "b"), 6)
    with mock.patch.object(validate, "rank_labelled",
                           wraps=rank_labelled) as ranking:
        assert validate_full(actual, expected).passed
    assert ranking.called


@pytest.mark.parametrize("name, data", statechart_cases(),
                         ids=[name for name, _ in statechart_cases()])
def test_document_and_store_routes_agree(name, data):
    for change in PARTNER_CHANGES:
        for seed in range(3):
            partner = mutated_statechart(data, change, seed)
            if partner is None:
                continue
            for actual, expected in ((partner, data), (data, partner)):
                by_document = validate_full(parse_statechart(actual),
                                            parse_statechart(expected))
                by_store = validate_full(read_statechart(actual),
                                         read_statechart(expected))
                assert by_document == by_store, (change, seed)
                assert by_document.passed == (change in ("none", "reordered"))
                assert validate_counts(
                    parse_statechart(actual), parse_statechart(expected)
                ) == validate_counts(
                    read_statechart(actual), read_statechart(expected)
                )


def test_repeated_next_uids_count_once(golden_dir):
    golden = (golden_dir / "fork_join.statechart.json").read_bytes()
    for base in (golden, mutated_statechart(golden, "link-dropped", 0)):
        doc = json.loads(base)
        for node, _ in json_nodes(doc):
            if node.get("next"):
                node["next"] += node["next"]
        repeated = json.dumps(doc)
        assert parse_statechart(repeated) == parse_statechart(base)
        for route in (parse_statechart, read_statechart):
            for pair in ((repeated, golden), (golden, repeated)):
                plain = tuple(base if side is repeated else side
                              for side in pair)
                assert validate_full(*map(route, pair)) == validate_full(
                    *map(route, plain)
                )


def test_deep_documents_read_and_validate_without_recursion():
    doc = chain_document(3000)
    store = store_from_statechart(doc)
    assert validate_full(doc, store).passed
    assert validate_full(store, doc).passed
    deeper = chain_document(3001)
    assert not validate_full(doc, deeper).passed


@given(net=NETS, shuffle=st.booleans(),
       pool=st.none() | st.lists(st.sampled_from(["x", "y", ""]),
                                 min_size=1, max_size=3),
       changes=st.lists(st.sampled_from(PARTNER_CHANGES), min_size=1,
                        max_size=3),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_label_mismatches_report_as_before(net, shuffle, pool, changes,
                                           seed):
    if shuffle:
        net = shuffled_net(net, seed)
    if pool is not None:
        net = named_from(net, pool, random.Random(seed))
    doc, _ = transform_net(net)
    if doc is None:  # irreducible: nothing to compare
        return
    data = statechart_document_to_bytes(doc)
    partner = data
    for change in changes:
        partner = mutated_statechart(partner, change, seed) or partner
    for pair in ((data, partner), (partner, data)):
        docs = list(map(parse_statechart, pair))
        trees = rank_statecharts(*docs)
        found = label_mismatches(trees, trees.roots[1])
        # On the ranking's name paths and signatures, and on name-path ids
        # where no HyperEdge name repeats in a model, the labels compare as
        # the reference compares them on the ranks.
        checked = check_statecharts(*docs)
        assert validate._label_mismatches(label_checked(checked),
                                          checked) == found
        if not validate._edge_names_repeat(checked.docs):
            assert validate._label_mismatches(validate._path_ids(checked),
                                              checked) == found
