from __future__ import annotations

import json
import time
from collections import Counter

import pytest

from helpers import (
    PARTNER_CHANGES,
    build_net,
    chain_document,
    corpus_entry,
    json_nodes,
    load_corpus,
    mutated_statechart,
    nested_fork_join_net,
    statechart_cases,
)
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
    assert doc.counts["basic"] == 2 * (3 * 300 + 1) + 2
    assert validate_full(twins, twins).passed
    assert not validate_full(twins, transformed(300, 299)).passed


def _twin_regions(move: bool) -> ModelStore:
    """A top AND over two unnamed ORs, holding Basics a1-a3 and b1-b3;
    with ``move``, a1 sits in the second OR instead."""
    sc = ModelStore()
    chart, top = sc.create(ElementKind.STATECHART), sc.create(AND)
    sc.set_ref(chart, "topState", top)
    regions = []
    for names in (("a1", "a2", "a3"), ("b1", "b2", "b3")):
        region = sc.create(OR)
        sc.add_ref(top, "contains", region)
        for name in names:
            sc.add_ref(region, "contains", sc.create(B, name))
        regions.append(region)
    if move:
        a1 = next(b for b in sc.all_of_kind(B) if sc.name_of(b) == "a1")
        sc.set_ref(a1, "rcontains", regions[1])
    return sc


def test_basic_moved_between_twin_ors_is_one_move():
    # Both ORs have the name path Statechart()/AND()/OR(), so only the
    # descent sees the move; it must pair each OR with its likeness.
    def as_document(sc: ModelStore):
        return parse_statechart(
            statechart_document_to_bytes(document_from_statechart(sc))
        )

    actual, expected = _twin_regions(True), _twin_regions(False)
    region = "Statechart()/AND()/OR()"
    for report in (validate_full(actual, expected),
                   validate_full(as_document(actual), as_document(expected))):
        assert sorted((d.kind, d.detail) for d in report.discrepancies) == [
            ("extra-node", f"unexpected Basic(a1) under {region}"),
            ("missing-node", f"Basic(a1) missing under {region}"),
        ]


def _rotated_ors(width: int, shift: int,
                 shared: tuple[str, ...] = ()) -> StatechartDocument:
    """A top AND over ``width`` unnamed ORs; OR i holds Basics ``a{i}`` and
    ``b{(i + shift) % width}``, then one Basic for each name in
    ``shared``."""
    size = 2 + len(shared)  # Basics per OR
    basics = size * width
    kinds = ["Statechart", "AND"] + ["OR"] * width + ["Basic"] * basics
    names = [""] * (width + 2)
    children = [range(1, 2), range(2, width + 2)]
    for i in range(width):
        names += [f"a{i}", f"b{(i + shift) % width}", *shared]
        first = width + 2 + size * i
        children.append(range(first, first + size))
    children += [()] * basics
    counts = {"statechart": 1, "and": 1, "or": width, "basic": basics,
              "hyperedge": 0}
    return StatechartDocument(list(range(len(kinds))), kinds, names,
                              children, [()] * len(kinds), counts)


def test_wide_fork_of_twin_ors_fails_in_linear_time():
    # Every OR has the name path Statechart()/AND()/OR(), so the descent
    # pairs all of them; each shares a Basic with two partners.
    width = 8000
    actual, expected = _rotated_ors(width, 0), _rotated_ors(width, 1)
    started = time.perf_counter()
    report = validate_full(actual, expected)
    elapsed = time.perf_counter() - started
    assert Counter(d.kind for d in report.discrepancies) == {
        "extra-node": width, "missing-node": width}
    assert elapsed < 10, f"took {elapsed:.1f} s"
    assert validate_full(actual, _rotated_ors(width, 0)).passed


def test_wide_fork_of_twin_ors_sharing_a_basic_fails_in_linear_time():
    # Every OR also holds a Basic x, so every twin holds x's rank once:
    # the rank index must not make each choice read all the twins.
    width = 8000
    actual = _rotated_ors(width, 0, ("x",))
    expected = _rotated_ors(width, 1, ("x",))
    started = time.perf_counter()
    report = validate_full(actual, expected)
    elapsed = time.perf_counter() - started
    assert Counter(d.kind for d in report.discrepancies) == {
        "extra-node": width, "missing-node": width}
    assert elapsed < 10, f"took {elapsed:.1f} s"
    assert validate_full(actual, _rotated_ors(width, 0, ("x",))).passed


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
