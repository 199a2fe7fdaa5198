"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import time

from helpers import load_corpus, nca_oracle
from pn2sc.cli import main, run_bench
from pn2sc.generate import GenSpec, generate_sp_net
from pn2sc.io import petri_net_to_bytes, store_from_petri_net, write_statechart
from pn2sc.model import ElementKind
from pn2sc.reduce import (
    AndFiring,
    OrFiring,
    create_statechart,
    create_top,
    fixpoint,
)
from pn2sc.init import initialize_statechart
from pn2sc.validate import validate_full

SEEDS = range(50)
GOLDEN_FIXTURES = ("chain", "self_loop", "fork_join")

B = ElementKind.BASIC
OR = ElementKind.OR
AND = ElementKind.AND
H = ElementKind.HYPER_EDGE
P = ElementKind.PLACE
T = ElementKind.TRANSITION


def _fixture(name: str):
    return next(fx for fx in load_corpus() if fx.name == name)


def _transform_fixture(name: str):
    pn = store_from_petri_net(_fixture(name).net)
    sc, result = create_statechart(pn)
    assert result.ok
    return sc, result


def test_criterion_1_golden_fixtures(tmp_path, golden_dir):
    started = time.perf_counter()
    for name in GOLDEN_FIXTURES:
        in_path = tmp_path / f"{name}.net.json"
        out_path = tmp_path / f"{name}.out.json"
        in_path.write_bytes(petri_net_to_bytes(_fixture(name).net))
        assert main(["transform", str(in_path), "-o", str(out_path)]) == 0
        golden = (golden_dir / f"{name}.statechart.json").read_bytes()
        assert out_path.read_bytes() == golden, f"{name} diverges from golden"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden transforms took {elapsed:.2f}s"
    print(f"\ncriterion 1 PASS: 3 golden fixtures byte-identical "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_count_laws():
    runs = 0
    for size in (100, 1_000, 10_000):
        for seed in SEEDS:
            doc = generate_sp_net(GenSpec(size, seed))
            pn = store_from_petri_net(doc)
            in_places = pn.count_of_kind(P)
            in_transitions = pn.count_of_kind(T)
            sc, result = create_statechart(pn)
            assert result.ok, f"size {size} seed {seed} irreducible"
            assert sc.count_of_kind(B) == in_places
            assert sc.count_of_kind(H) == in_transitions
            runs += 1
    print(f"\ncriterion 2 PASS: {runs} runs, all Success with exact "
          f"Basic/HyperEdge conservation")


def test_criterion_3_per_firing_deltas():
    checked = 0
    for seed in SEEDS:
        pn = store_from_petri_net(generate_sp_net(GenSpec(1_000, seed)))
        sc, trace = initialize_statechart(pn)
        state = {
            "counts": (sc.count_of_kind(OR), sc.count_of_kind(AND),
                       pn.count_of_kind(P), pn.count_of_kind(T))
        }

        def observe(event):
            nonlocal checked
            before = state["counts"]
            after = (sc.count_of_kind(OR), sc.count_of_kind(AND),
                     pn.count_of_kind(P), pn.count_of_kind(T))
            delta = tuple(a - b for a, b in zip(after, before))
            if isinstance(event, AndFiring):
                expected = (1, 1, -(event.merged_places - 1), 0)
            else:
                assert isinstance(event, OrFiring)
                expected = (0, 0, 0, -1) if event.identity else (-1, 0, -1, -1)
            assert delta == expected, f"{event}: {delta} != {expected}"
            state["counts"] = after
            checked += 1

        fixpoint(pn, sc, trace, observe)
        assert create_top(pn, sc).ok
    print(f"\ncriterion 3 PASS: {checked} firings matched the per-rule "
          f"count deltas exactly")


def test_criterion_4_nca_oracle_equivalence():
    models = [
        _transform_fixture(name)[0]
        for name in ("chain", "self_loop", "fork_join", "double_arc")
    ]
    for size in (100, 1_000):
        for seed in SEEDS:
            pn = store_from_petri_net(generate_sp_net(GenSpec(size, seed)))
            sc, result = create_statechart(pn)
            assert result.ok
            models.append(sc)
    edges = 0
    for sc in models:
        for edge in sc.all_of_kind(H):
            assert sc.ref(edge, "rcontains") == nca_oracle(sc, edge)
            edges += 1
    print(f"\ncriterion 4 PASS: container matches the brute-force ancestor "
          f"oracle for {edges}/{edges} hyperedges across {len(models)} models")


def _corruptions():
    def drop_next_link(sc):
        edge = next(
            e for e in sc.all_of_kind(H) if sc.refs(e, "next")
        )
        sc.remove_ref(edge, "next", sc.refs(edge, "next")[0])

    def add_element(sc):
        target = sc.all_of_kind(OR)[0]
        sc.add_ref(target, "contains", sc.create(B, "intruder"))

    def move_to_wrong_container(sc):
        basic = sc.all_of_kind(B)[0]
        home = sc.ref(basic, "rcontains")
        other = next(
            c
            for kind in (AND, OR)
            for c in sc.all_of_kind(kind)
            if c != home
        )
        sc.set_ref(basic, "rcontains", other)

    return {
        "missing next link": drop_next_link,
        "additional element": add_element,
        "wrong container": move_to_wrong_container,
    }


def test_criterion_5_mutation_detection():
    detections = 0
    for name in GOLDEN_FIXTURES:
        pristine, _ = _transform_fixture(name)
        for label, corrupt in _corruptions().items():
            mutated, _ = _transform_fixture(name)
            corrupt(mutated)
            report = validate_full(mutated, pristine)
            assert not report.passed, f"{label} on {name} went undetected"
            detections += 1
    assert detections == 9
    print(f"\ncriterion 5 PASS: {detections}/9 corruptions detected by full "
          f"validation")


def test_criterion_6_performance_substitute(tmp_path):
    # (a) a 40k-place net completes the transform subcommand within 60 s
    in_path = tmp_path / "sp40000_0.json"
    in_path.write_bytes(petri_net_to_bytes(generate_sp_net(GenSpec(40_000, 0))))
    started = time.perf_counter()
    assert main(["transform", str(in_path), "-o",
                 str(tmp_path / "out.json")]) == 0
    cli_seconds = time.perf_counter() - started
    assert cli_seconds <= 60, f"40k transform took {cli_seconds:.1f}s"
    # (b), (c) growth across sizes, medians over >= 3 bench repetitions
    rows = run_bench([5_000, 10_000, 40_000], reps=3, seed=0)
    by_size = {row["size"]: row for row in rows}
    ratio = by_size[40_000]["total_ms"] / by_size[5_000]["total_ms"]
    assert ratio <= 64, f"t(40k)/t(5k) = {ratio:.1f} exceeds quadratic growth"
    print(f"\ncriterion 6 PASS: 40k transform in {cli_seconds:.1f} s "
          f"(limit 60), t(40k)/t(5k) = {ratio:.1f} (limit 64), reps = 3")


def test_criterion_7_determinism(tmp_path):
    in_path = tmp_path / "net.json"
    in_path.write_bytes(petri_net_to_bytes(_fixture("fork_join").net))
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"out{run}.json"
        assert main(["transform", str(in_path), "-o", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    spec = GenSpec(500, seed=13)
    assert petri_net_to_bytes(generate_sp_net(spec)) == petri_net_to_bytes(
        generate_sp_net(spec)
    )
    # same net, fresh stores, through the library as well
    direct = [
        write_statechart(*create_statechart(
            store_from_petri_net(_fixture("fork_join").net)
        ))
        for _ in range(2)
    ]
    assert direct[0] == direct[1] == outputs[0]
    print("\ncriterion 7 PASS: transform and generate outputs byte-identical "
          "across runs")


def test_criterion_8_irreducible_handling(tmp_path, capsys):
    fx = _fixture("two_isolated_places")
    in_path = tmp_path / "net.json"
    out_path = tmp_path / "out.json"
    in_path.write_bytes(petri_net_to_bytes(fx.net))
    code = main(["transform", str(in_path), "-o", str(out_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "2 top-level OR states" in err
    assert "2 places" in err and "0 transitions" in err
    assert not out_path.exists()
    sc, result = create_statechart(store_from_petri_net(fx.net))
    assert not result.ok
    assert sc.count_of_kind(ElementKind.STATECHART) == 0
    print("\ncriterion 8 PASS: irreducible net exits 2 with remaining-count "
          "diagnostics and no Statechart element")
