from __future__ import annotations

import copy
import errno
import functools
import gc
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GOLDEN_DIR,
    chain_document,
    corpus_entry,
    load_corpus,
    mutated_statechart,
    nested_fork_join_net,
)
import pn2sc.cli
import pn2sc.generate
import pn2sc.io
from pn2sc.cli import main
from pn2sc.flat import transform_net
from pn2sc.io import (
    DocumentError,
    parse_statechart,
    petri_net_to_bytes,
    statechart_document_to_bytes,
)
from pn2sc.model import ModelStore
from pn2sc.validate import validate_full


@pytest.fixture()
def net_file(tmp_path):
    def write(name: str):
        path = tmp_path / f"{name}.json"
        path.write_bytes(petri_net_to_bytes(corpus_entry(name).net))
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


@pytest.mark.parametrize("text", [
    '{"places": oops',
    '{"places": [], "transitions": [], "extra": ' + "7" * 5001 + "}",
], ids=["truncated", "5001-digit-int"])
def test_transform_malformed_input_is_data_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["transform", str(bad), "-o", str(tmp_path / "out.json")])
    assert code == 65
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_validate_long_integer_is_data_error(tmp_path, golden_dir, capsys):
    golden = golden_dir / "chain.statechart.json"
    doc = json.loads(golden.read_text())
    doc["root"]["uid"] = "LONG"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"LONG"', "7" * 5001))
    assert main(["validate", str(bad), str(golden)]) == 65
    assert len(capsys.readouterr().err.splitlines()) == 1


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


def test_validate_caps_printed_discrepancies(tmp_path, golden_dir, capsys):
    golden = golden_dir / "chain.statechart.json"
    doc = json.loads(golden.read_text())
    basics = doc["root"]["children"][0]["children"][0]["children"]
    basics += [{"uid": 100 + i, "kind": "Basic", "name": f"X{i}",
                "next": [], "children": []} for i in range(60)]
    doc["counts"]["basic"] += 60
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    report = validate_full(parse_statechart(golden.read_bytes()),
                           parse_statechart(wide.read_bytes()))
    assert len(report.discrepancies) == 60
    assert main(["validate", str(golden), str(wide)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == pn2sc.cli.MAX_PRINTED_DISCREPANCIES + 2
    assert lines[-2:] == ["... and 10 more", "Full validation failed"]


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
        assert set(row) == {"size", "seed", "init_ms", "reduce_ms", "total_ms",
                            "write_ms", "parse_ms"}
        assert row["total_ms"] >= 0
        assert row["write_ms"] > 0
        assert row["parse_ms"] > 0
    assert "write_ms" in captured.err  # human-readable table on stderr


def test_bench_rejects_bad_sizes():
    assert main(["bench", "--sizes", "ten"]) == 64
    assert main(["bench", "--sizes", "10", "--reps", "0"]) == 64
    assert main(["bench", "--sizes", "0"]) == 64


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["transform", "validate", "generate",
                                     "bench"])
def test_command_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: pn2sc {command} [-h]")


def test_command_runs_without_the_collector_and_restores_it(tmp_path,
                                                            monkeypatch):
    seen = []
    real = pn2sc.generate.generate_sp_net

    def spy(spec):
        seen.append(gc.isenabled())
        return real(spec)

    monkeypatch.setattr("pn2sc.generate.generate_sp_net", spy)
    assert gc.isenabled()
    assert main(["generate", "--places", "10", "-o",
                 str(tmp_path / "a.json")]) == 0
    assert seen == [False]
    assert gc.isenabled()
    assert main(["generate", "--places", "0"]) == 64
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["--help"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


# A non-zero code first: a run() that ended the process itself, as
# os._exit does, would end this session with a failing status.
@pytest.mark.parametrize("code", [2, 64, 0])
def test_run_exits_with_main_code_and_freezes_only_after_it(code,
                                                           monkeypatch):
    seen = []

    def stub():
        seen.append(gc.get_freeze_count())
        return code

    monkeypatch.setattr("pn2sc.cli.main", stub)
    try:
        with pytest.raises(SystemExit) as exited:
            pn2sc.cli.run()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert exited.value.code == code
    assert seen == [0]
    assert frozen > 0


def test_main_in_process_freezes_nothing(tmp_path, net_file, capsys):
    assert main(["transform", str(net_file("chain")), "-o",
                 str(tmp_path / "out.json")]) == 0
    assert main(["--help"]) == 0
    assert main(["transform"]) == 64
    assert gc.get_freeze_count() == 0


#: The two process entries: ``-m``, and what the ``pn2sc`` script runs.
_ENTRIES = [["-m", "pn2sc.cli"],
            ["-c", "from pn2sc.cli import run; run()"]]


def _python(*args: str, **run_args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this pn2sc; ``run_args``
    override the ``subprocess.run`` defaults."""
    src = str(Path(pn2sc.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path
                                              else "")}
    return subprocess.run([sys.executable, *args], **{
        "capture_output": True, "text": True, "env": env, "check": True,
        **run_args,
    })


def test_cli_import_stays_lean():
    probe = ("import gc, sys; before = set(sys.modules); import pn2sc.cli; "
             "assert gc.isenabled() and gc.get_freeze_count() == 0; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    imported = set(_python("-c", probe).stdout.split())
    assert "pn2sc.cli" in imported
    assert not imported & {"dataclasses", "inspect", "statistics", "pathlib",
                           "argparse", "gettext"}
    # The CLI runs the flat route; the ModelStore reference stays unloaded,
    # and each command loads the modules it runs when it runs.
    assert not imported & {"pn2sc.model", "pn2sc.init", "pn2sc.reduce",
                           "pn2sc.flat", "pn2sc.rank", "pn2sc.validate",
                           "pn2sc.generate"}
    # bench imports statistics when it runs.
    rows = json.loads(_python("-m", "pn2sc.cli", "bench", "--sizes", "50",
                              "--reps", "1").stdout)
    assert [row["size"] for row in rows] == [50]
    assert all(row["total_ms"] >= 0 for row in rows)


def test_each_command_loads_only_the_modules_it_runs(tmp_path, net_file,
                                                   golden_dir):
    out = tmp_path / "out.json"
    golden = str(golden_dir / "chain.statechart.json")
    probe = ("import sys; from pn2sc.cli import main; "
             "code = main(sys.argv[1:]); print(code, *sorted(name for name "
             "in sys.modules if name.startswith('pn2sc.')))")
    runs = {
        "transform": ["transform", str(net_file("chain")), "-o", str(out)],
        "validate": ["validate", golden, golden],
    }
    loaded = {command: _python("-c", probe, *argv).stdout.splitlines()[-1]
              .split() for command, argv in runs.items()}
    assert loaded["transform"] == ["0", "pn2sc.cli", "pn2sc.flat", "pn2sc.io",
                                   "pn2sc.rank"]
    assert loaded["validate"] == ["0", "pn2sc.cli", "pn2sc.io", "pn2sc.rank",
                                  "pn2sc.validate"]


def test_runs_that_write_no_statechart_never_load_the_ranking(tmp_path):
    # Only building a canonical document or validating in full needs
    # pn2sc.rank: not the import, an irreducible transform, or generate.
    probe = (
        "import sys; from pn2sc.cli import main; "
        "net, out, made = sys.argv[1:]; "
        "ranked = lambda: 'pn2sc.rank' in sys.modules; loaded = [ranked()]; "
        "code = main(['transform', net, '-o', out]); loaded.append(ranked()); "
        "main(['generate', '--places', '50', '--seed', '1', '-o', made]); "
        "print(code, *loaded, ranked())"
    )
    net = GOLDEN_DIR / "two_isolated_places.net.json"
    out, generated = tmp_path / "out.json", tmp_path / "sp50_1.json"
    shown = _python("-c", probe, str(net), str(out), str(generated)).stdout
    assert shown.splitlines()[-1].split() == ["2", "False", "False", "False"]
    assert not out.exists() and generated.is_file()


def test_deep_spine_round_trips_and_a_deep_non_statechart_fails_its_schema(
        tmp_path, capsys):
    net = nested_fork_join_net(260)
    assert len(net.places) == 781
    src = tmp_path / "spine260.json"
    src.write_bytes(petri_net_to_bytes(net))
    out = tmp_path / "out.json"
    assert main(["transform", str(src), "-o", str(out)]) == 0
    # The tree is too deep for json.loads under the default recursion
    # limit; "counts" is the last member.
    text = out.read_text()
    counts = json.loads("{" + text[text.rindex('"counts"'):])["counts"]
    assert counts["statechart"] == 1
    assert counts["basic"] == len(net.places)
    assert counts["hyperedge"] == len(net.transitions)
    assert main(["validate", str(out), str(out)]) == 0
    assert "Full validation passed" in capsys.readouterr().out
    nesting = 100_001  # read whole, however deep, then schema-checked
    deep = tmp_path / "deep.json"
    deep.write_text('{"root": ' + "[" * nesting + "]" * nesting
                    + ', "counts": {}}')
    assert main(["validate", str(deep), str(out)]) == 65
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "counts is missing fields" in err
    assert "Traceback" not in err


def test_unexpected_error_exits_70_with_one_line(tmp_path, net_file, capsys,
                                                 monkeypatch):
    def broken(net):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("pn2sc.flat.transform_net", broken)
    out = tmp_path / "out.json"
    code = main(["transform", str(net_file("chain")), "-o", str(out)])
    assert code == 70
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: internal: RuntimeError: boom second line"
    ]
    assert "Traceback" not in err
    assert not out.exists()


def test_failed_write_leaves_no_partial_file(tmp_path, net_file, capsys,
                                            monkeypatch):
    chunks = pn2sc.io.statechart_document_chunks

    def broken(doc):
        yield next(chunks(doc))
        raise RuntimeError("boom")

    monkeypatch.setattr("pn2sc.io.statechart_document_chunks", broken)
    src = net_file("fork_join")
    out = tmp_path / "out.json"
    assert main(["transform", str(src), "-o", str(out)]) == 70
    assert not out.exists()
    out.write_bytes(b"kept")
    assert main(["transform", str(src), "-o", str(out)]) == 70
    assert out.read_bytes() == b"kept"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "fork_join.json", "out.json"
    ]
    assert capsys.readouterr().err.splitlines() == [
        "error: internal: RuntimeError: boom"
    ] * 2


@pytest.mark.parametrize("command", [
    ["transform", "in.json"], ["generate", "--places", "5"],
])
def test_unwritable_output_is_data_error(tmp_path, net_file, capsys,
                                         monkeypatch, command):
    net_file("chain").rename(tmp_path / "in.json")
    monkeypatch.chdir(tmp_path)
    assert main([*command, "-o", "missing_dir/out.json"]) == 65
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: cannot write missing_dir/out.json: "
        + os.strerror(errno.ENOENT)
    ]
    assert list(tmp_path.iterdir()) == [tmp_path / "in.json"]


def test_output_to_a_pipe_is_written_in_place(tmp_path, net_file, golden_dir):
    src = net_file("chain")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(pipe.read_bytes()), daemon=True
    )
    reader.start()
    assert main(["transform", str(src), "-o", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [(golden_dir / "chain.statechart.json").read_bytes()]
    assert sorted(tmp_path.iterdir()) == [src, pipe]


def test_output_through_a_symlink_is_written_in_place(tmp_path, net_file,
                                                      golden_dir):
    src = net_file("chain")
    target = tmp_path / "target.json"
    target.write_bytes(b"old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["transform", str(src), "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == (
        golden_dir / "chain.statechart.json").read_bytes()
    assert sorted(tmp_path.iterdir()) == [src, link, target]


def test_output_to_dev_stdout_reaches_redirected_stdout(tmp_path, net_file,
                                                        golden_dir):
    src = net_file("chain")
    out = tmp_path / "out.json"
    with open(out, "wb") as handle:
        _python("-m", "pn2sc.cli", "transform", str(src), "-o", "/dev/stdout",
                capture_output=False, stdout=handle)
    assert out.read_bytes() == (
        golden_dir / "chain.statechart.json").read_bytes()
    assert sorted(tmp_path.iterdir()) == [src, out]


def test_closed_stdout_exits_141_quietly(net_file, golden_dir):
    golden = str(golden_dir / "chain.statechart.json")
    src = str(Path(pn2sc.__file__).parent.parent)
    runs = [["--help"], ["bench", "--sizes", "50", "--reps", "1"],
            ["validate", golden, golden],
            ["transform", str(net_file("chain")), "-o", "/dev/stdout"]]
    for entry, argv, unbuffered in itertools.product(_ENTRIES, runs,
                                                     ("1", "")):
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody reads what the command prints
        try:
            run = _python(*entry, *argv, check=False,
                          capture_output=False, stdout=write_end,
                          stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        if argv[0] == "transform":  # an -o write is an output like any
            assert (run.returncode, run.stderr) == (
                65, "error: cannot write /dev/stdout: Broken pipe\n")
        elif argv[0] == "bench":  # its table goes to stderr
            assert run.returncode == 141
            assert run.stderr.split()[:4] == [
                "size", "init_ms", "reduce_ms", "total_ms"]
            assert len(run.stderr.splitlines()) == 2
        else:
            assert (run.returncode, run.stderr) == (141, "")


def test_long_validate_report_reaches_stdout_through_both_entries(
        tmp_path, capsys):
    charts = []
    for seed in (1, 2):
        net = tmp_path / f"sp300_{seed}.net.json"
        chart = tmp_path / f"sp300_{seed}.json"
        assert main(["generate", "--places", "300", "--seed", str(seed),
                     "-o", str(net)]) == 0
        assert main(["transform", str(net), "-o", str(chart)]) == 0
        charts.append(str(chart))
    capsys.readouterr()
    assert main(["validate", *charts]) == 1
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == (
        pn2sc.cli.MAX_PRINTED_DISCREPANCIES + 2)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pn2sc.__file__).parent.parent)
    for entry in _ENTRIES:
        run = _python(*entry, "validate", *charts, check=False, env=env)
        assert (run.returncode, run.stdout, run.stderr) == (1, expected, "")


def test_validate_builds_no_store(tmp_path, net_file, golden_dir, monkeypatch,
                                  capsys):
    out = tmp_path / "out.json"
    assert main(["transform", str(net_file("fork_join")), "-o", str(out)]) == 0
    mutated = tmp_path / "mutated.json"
    mutated.write_bytes(mutated_statechart(out.read_bytes(), "basic-renamed",
                                           seed=0))
    deep = tmp_path / "chain400.json"
    deep.write_bytes(statechart_document_to_bytes(chain_document(400)))

    def refuse(*args, **kwargs):
        raise AssertionError("validate built a ModelStore")

    monkeypatch.setattr(ModelStore, "create", refuse)
    golden = str(golden_dir / "fork_join.statechart.json")
    assert main(["validate", str(out), golden]) == 0
    assert main(["validate", str(mutated), golden]) == 1
    assert main(["validate", str(out), golden, "--counts-only"]) == 0
    assert main(["validate", str(deep), str(deep)]) == 0
    assert "error" not in capsys.readouterr().err


def test_transform_builds_no_store(tmp_path, net_file, golden_dir,
                                   monkeypatch, capsys):
    fixtures = load_corpus()
    inputs = {fx.name: net_file(fx.name) for fx in fixtures}

    def refuse(*args, **kwargs):
        raise AssertionError("transform built a ModelStore")

    monkeypatch.setattr(ModelStore, "create", refuse)
    for fx in fixtures:
        out = tmp_path / f"{fx.name}.out.json"
        code = main(["transform", str(inputs[fx.name]), "-o", str(out)])
        if fx.expected is None:
            assert code == 2
            assert not out.exists()
            continue
        assert code == 0
        golden = golden_dir / f"{fx.name}.statechart.json"
        assert out.read_bytes() == golden.read_bytes()
    assert capsys.readouterr().err.splitlines() == [
        "irreducible: 2 top-level OR states; 2 places and 0 transitions "
        "remain"
    ]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**6) | st.text(max_size=4)
    | st.sampled_from(["AND", "OR", "Basic", "HyperEdge", "Statechart"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def _like(value: object) -> st.SearchStrategy:
    """Values of the type of ``value``; a list's own items reordered."""
    if isinstance(value, str):
        return st.text(max_size=4) | st.sampled_from(["AND", "OR", "Basic"])
    if isinstance(value, int) and not isinstance(value, bool):
        return st.integers(0, 30)
    if isinstance(value, list):
        return st.permutations(value).map(list)
    return _JSON


@st.composite
def _edited(draw, data: bytes) -> bytes:
    """``data`` with one JSON value replaced, deleted or duplicated."""
    doc = json.loads(data)
    holder = doc
    while True:
        key = draw(st.sampled_from(
            sorted(holder) if isinstance(holder, dict) else range(len(holder))
        ))
        child = holder[key]
        if not (isinstance(child, (dict, list)) and child
                and draw(st.integers(0, 3))):  # go deeper 3 times in 4
            break
        holder = child
    edit = draw(st.sampled_from(("replace", "delete", "duplicate")))
    if edit == "replace":
        holder[key] = draw(_like(holder[key]) | _JSON)
    elif edit == "delete":
        del holder[key]
    elif isinstance(holder, dict):
        holder[draw(st.text(max_size=8))] = copy.deepcopy(holder[key])
    else:
        holder.insert(key, copy.deepcopy(holder[key]))
    return json.dumps(doc, indent=draw(st.sampled_from((None, 1, 2, "\t")))
                      ).encode()


@st.composite
def _garbled(draw, data: bytes) -> bytes:
    """``data`` cut short, or with a few bytes spliced in."""
    cut = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:cut]
    end = draw(st.integers(cut, min(len(data), cut + 8)))
    noise = draw(st.binary(max_size=4) | st.sampled_from(
        [b"{", b"}", b"[", b"]", b'"', b",", b":", b"-", b"9" * 5000]))
    return data[:cut] + noise + data[end:]


_NETS = sorted(GOLDEN_DIR.glob("*.net.json"))


@functools.cache
def _charts() -> list[tuple[bytes, bool]]:
    """Statechart files to damage, each with whether it can be edited as
    a value: the goldens, the output of a spine of depth 40, and a chain
    nested past the default recursion limit, which is only garbled."""
    spine, _ = transform_net(nested_fork_join_net(40))
    return [
        *((path.read_bytes(), True)
          for path in sorted(GOLDEN_DIR.glob("*.statechart.json"))),
        (statechart_document_to_bytes(spine), True),
        (statechart_document_to_bytes(chain_document(600)), False),
    ]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_input_exits_with_a_documented_code(data):
    command = data.draw(st.sampled_from(("transform", "validate")))
    if command == "transform":
        source = data.draw(st.sampled_from(_NETS)).read_bytes()
        editable = True
    else:
        source, editable = data.draw(st.sampled_from(_charts()))
    damaged = data.draw(_edited(source) | _garbled(source) if editable
                        else _garbled(source))
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "input.json")
        with open(path, "wb") as handle:
            handle.write(damaged)
        if command == "transform":
            argv = ["transform", path, "-o", os.path.join(where, "out.json")]
        else:
            partner = os.path.join(where, "partner.json")
            with open(partner, "wb") as handle:
                handle.write(source)
            pair = [path, partner]
            if data.draw(st.booleans()):
                pair.reverse()
            argv = ["validate", *pair]
            if data.draw(st.booleans()):
                argv.append("--counts-only")
        chunk_bytes = data.draw(st.sampled_from(
            (64, 4096, pn2sc.io._CHUNK_BYTES)))
        err = StringIO()
        with (redirect_stdout(StringIO()), redirect_stderr(err),
              mock.patch.object(pn2sc.io, "_CHUNK_BYTES", chunk_bytes)):
            code = main(argv)
    assert code in {0, 1, 2, 65}
    if code in {2, 65}:
        assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
    if command == "validate":
        # the message names the file as it stands, not as it is read
        try:
            parse_statechart(damaged)
        except DocumentError as exc:
            assert (code, err.getvalue()) == (65, f"error: {exc}\n")
        else:
            assert code in {0, 1}


@pytest.mark.parametrize("offset, byte, message", [
    (1222, b"]", "JSON parse error at line 47 column 33: Expecting value"),
    (300, b"\xff", "not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
     "in position 300: invalid start byte"),
])
def test_validate_names_the_column_and_offset_of_the_file(
        tmp_path, golden_dir, capsys, offset, byte, message):
    # Both follow indentation that validate drops as it reads: in the
    # text it parses they sit at column 9 and at position 175.
    golden = golden_dir / "fork_join.statechart.json"
    data = golden.read_bytes()
    damaged = tmp_path / "damaged.json"
    damaged.write_bytes(data[:offset] + byte + data[offset + 1:])
    for pair in ([damaged, golden], [golden, damaged]):
        assert main(["validate", *map(str, pair)]) == 65
        assert capsys.readouterr().err == f"error: {message}\n"
    # a pipe cannot be read twice, so it is read as it stands at once
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes,
                              args=(damaged.read_bytes(),), daemon=True)
    writer.start()
    assert main(["validate", str(pipe), str(golden)]) == 65
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_schema_error_never_reads_the_file_whole(tmp_path, golden_dir,
                                                 capsys):
    # A schema message names no position, so the file is not read again
    # as it stands to give one: the squeezed read that fails is read
    # again in chunks only.
    golden = golden_dir / "fork_join.statechart.json"
    data = golden.read_bytes()
    broken = data.replace(b'"hyperedge": ', b'"hyperedge": 1', 1)
    assert broken != data
    damaged = tmp_path / "damaged.json"
    damaged.write_bytes(broken)
    with pytest.raises(DocumentError) as exc:
        parse_statechart(broken)
    assert "does not match the tree" in str(exc.value)
    with mock.patch.object(pn2sc.cli, "_read_file",
                           side_effect=AssertionError("read again")):
        for pair in ([damaged, golden], [golden, damaged]):
            assert main(["validate", *map(str, pair)]) == 65
            assert capsys.readouterr().err == f"error: {exc.value}\n"
