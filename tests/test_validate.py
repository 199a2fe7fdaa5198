from __future__ import annotations

import pytest

from helpers import build_net, load_corpus, nested_fork_join_net
from pn2sc.io import (
    document_from_statechart,
    store_from_petri_net,
    store_from_statechart,
)
from pn2sc.model import ElementKind
from pn2sc.reduce import create_statechart
from pn2sc.validate import (
    ValidationLevel,
    validate_counts,
    validate_full,
)

B = ElementKind.BASIC
OR = ElementKind.OR
AND = ElementKind.AND
H = ElementKind.HYPER_EDGE


def chain_statechart():
    pn, _ = build_net(["P1", "P2"], [("T1", ["P1"], ["P2"])])
    sc, result = create_statechart(pn)
    assert result.ok
    return sc


def fork_join_statechart():
    pn, _ = build_net(
        ["P0", "P1", "P2", "P3"],
        [("T1", ["P0"], ["P1", "P2"]), ("T2", ["P1", "P2"], ["P3"])],
    )
    sc, result = create_statechart(pn)
    assert result.ok
    return sc


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
        expected = store_from_statechart(
            next(fx for fx in load_corpus() if fx.name == "chain")
            .expected
        )
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
    assert doc.counts["basic"] == 2 * (3 * 300 + 1) + 2
    assert validate_full(twins, twins).passed
    assert not validate_full(twins, transformed(300, 299)).passed
