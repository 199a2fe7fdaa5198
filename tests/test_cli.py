from __future__ import annotations

import json

import pytest

from helpers import load_corpus, nested_fork_join_net
from pn2sc.cli import main
from pn2sc.io import petri_net_to_bytes


@pytest.fixture()
def net_file(tmp_path):
    def write(name: str):
        fx = next(f for f in load_corpus() if f.name == name)
        path = tmp_path / f"{name}.json"
        path.write_bytes(petri_net_to_bytes(fx.net))
        return path

    return write


def test_transform_matches_golden(tmp_path, net_file, golden_dir):
    out = tmp_path / "out.json"
    code = main(["transform", str(net_file("chain")), "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == (golden_dir / "chain.statechart.json").read_bytes()


def test_transform_irreducible_reports_top_ors(tmp_path, net_file, capsys):
    out = tmp_path / "out.json"
    code = main(
        ["transform", str(net_file("two_isolated_places")), "-o", str(out)]
    )
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "2 top-level OR states" in err
    assert "2 places" in err


def test_transform_missing_input_is_data_error(tmp_path, capsys):
    code = main(["transform", str(tmp_path / "nope.json"), "-o",
                 str(tmp_path / "out.json")])
    assert code == 65
    assert "nope.json" in capsys.readouterr().err


def test_transform_malformed_input_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"places": oops')
    code = main(["transform", str(bad), "-o", str(tmp_path / "out.json")])
    assert code == 65


def test_usage_error_exit_code(capsys):
    assert main([]) == 64
    assert main(["transform"]) == 64
    assert main(["frobnicate"]) == 64


def test_validate_passes_on_golden_pair(tmp_path, net_file, golden_dir):
    out = tmp_path / "out.json"
    assert main(["transform", str(net_file("fork_join")), "-o", str(out)]) == 0
    golden = golden_dir / "fork_join.statechart.json"
    assert main(["validate", str(out), str(golden)]) == 0
    assert main(["validate", str(out), str(golden), "--counts-only"]) == 0


def test_validate_flags_mutated_model(tmp_path, net_file, golden_dir, capsys):
    out = tmp_path / "out.json"
    assert main(["transform", str(net_file("chain")), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    edge = doc["root"]["children"][0]["children"][0]["children"][2]
    assert edge["kind"] == "HyperEdge"
    edge["next"] = []
    doc_path = tmp_path / "mutated.json"
    doc_path.write_text(json.dumps(doc))
    code = main(
        ["validate", str(doc_path), str(golden_dir / "chain.statechart.json")]
    )
    assert code == 1
    output = capsys.readouterr().out
    assert "next-set-mismatch" in output


def test_generate_writes_deterministic_file(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["generate", "--places", "80", "--seed", "3"]
    assert main(argv + ["-o", str(first)]) == 0
    assert main(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_default_file_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--places", "10", "--seed", "4"]) == 0
    assert (tmp_path / "sp10_4.json").exists()


def test_generate_rejects_bad_places():
    assert main(["generate", "--places", "0"]) == 64


def test_bench_json_schema(capsys):
    code = main(["bench", "--sizes", "30,60", "--reps", "2", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    assert [row["size"] for row in rows] == [30, 60]
    for row in rows:
        assert set(row) == {"size", "seed", "init_ms", "reduce_ms", "total_ms"}
        assert row["total_ms"] >= 0
    assert "total_ms" in captured.err  # human-readable table on stderr


def test_bench_rejects_bad_sizes():
    assert main(["bench", "--sizes", "ten"]) == 64
    assert main(["bench", "--sizes", "10", "--reps", "0"]) == 64


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_deep_spine_transforms_and_validate_rejects_cleanly(tmp_path, capsys):
    net = nested_fork_join_net(260)
    assert len(net.places) == 781
    src = tmp_path / "spine260.json"
    src.write_bytes(petri_net_to_bytes(net))
    out = tmp_path / "out.json"
    assert main(["transform", str(src), "-o", str(out)]) == 0
    # The tree is too deep for json.loads; "counts" is the last member.
    text = out.read_text()
    counts = json.loads("{" + text[text.rindex('"counts"'):])["counts"]
    assert counts["statechart"] == 1
    assert counts["basic"] == len(net.places)
    assert counts["hyperedge"] == len(net.transitions)
    capsys.readouterr()
    assert main(["validate", str(out), str(out)]) == 65
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nests too deeply" in err
    assert "Traceback" not in err
