"""The statechart reader against the one it replaced (``reader_reference``):
the same text gives the same document or the same DocumentError message,
and reading a file holds less. ``cli._read_statechart``, which squeezes
the whitespace of a file as it reads it, gives what ``parse_statechart``
gives for the file's bytes."""

from __future__ import annotations

import copy
import gc
import json
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_reference
from helpers import (GOLDEN_DIR, json_nodes, nested_fork_join_net,
                     past_json_depth)
from pn2sc import cli
from pn2sc import io as scio
from pn2sc.flat import transform_net
from pn2sc.generate import GenSpec, generate_sp_net


_SPINE_UID = 10 ** 6  # above every uid of the documents edited
_PLACEHOLDER = "spine goes here"


def _golden_charts() -> list[bytes]:
    return [path.read_bytes()
            for path in sorted(GOLDEN_DIR.glob("*.statechart.json"))]


def _written(net) -> bytes:
    doc, _ = transform_net(net)
    return scio.statechart_document_to_bytes(doc)


_CHARTS = st.sampled_from(_golden_charts()) | st.builds(
    _written,
    st.builds(lambda places, seed: generate_sp_net(GenSpec(places, seed)),
              st.integers(1, 30), st.integers(0, 2 ** 32))
    | st.builds(nested_fork_join_net, st.integers(1, 4)),
)
#: Values of every JSON type, and ones a node field must not hold
_WRONG_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 1.5, "", "Basic", [], [0], [True], {},
     {"uid": 0}])
_NODE_SHAPED = st.sampled_from([
    {"uid": 0, "kind": "AND", "name": "", "children": []},
    {"uid": 7, "kind": "Basic", "name": "p", "next": [], "children": []},
    {"uid": 1, "kind": "OR", "name": "", "children": [
        {"uid": 2, "kind": "Basic", "name": "q", "next": [],
         "children": []}]},
])
EDITS = ("none", "key-dropped", "key-added", "key-renamed", "wrong-type",
         "uid-repeated", "kind-unknown", "statechart-below-root",
         "node-as-counts", "node-as-next", "node-as-document",
         "link-retargeted")


@st.composite
def _edited_charts(draw) -> tuple[object, dict]:
    """A written statechart's JSON value with one edit, and its top AND
    as it was before the edit, where a spine can be hung."""
    value = json.loads(draw(_CHARTS))
    nodes = [node for node, _ in json_nodes(value)]
    top = value["root"]["children"][0]
    edit = draw(st.sampled_from(EDITS))
    node = draw(st.sampled_from(nodes))
    objects = [value, value["counts"], node]
    if edit == "key-dropped":
        target = draw(st.sampled_from(objects))
        del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "key-added":
        target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(["extra", "next", "children", "root"]))
        target[key] = draw(_WRONG_VALUES | _NODE_SHAPED)
    elif edit == "key-renamed":
        target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(target)))
        target[draw(st.sampled_from(
            ["extra", "uid", "kind", "name", "next", "children", "root"]))] = (
            target.pop(key))
    elif edit == "wrong-type":
        target = draw(st.sampled_from(objects))
        target[draw(st.sampled_from(sorted(target)))] = draw(_WRONG_VALUES)
    elif edit == "uid-repeated":
        node["uid"] = draw(st.sampled_from(nodes))["uid"]
    elif edit == "kind-unknown":
        node["kind"] = draw(st.sampled_from(
            ["Sketchchart", "basic", "Place", "Transition", ""]))
    elif edit == "statechart-below-root":
        if node is value["root"] or draw(st.booleans()):
            top["children"].append({"uid": _SPINE_UID - 1,
                                    "kind": "Statechart", "name": "",
                                    "children": []})
            value["counts"]["statechart"] += 1
        else:
            node["kind"] = "Statechart"
    elif edit == "node-as-counts":
        value["counts"] = copy.deepcopy(draw(_NODE_SHAPED))
    elif edit == "node-as-next":
        linked = [node for node in nodes if "next" in node]
        target = draw(st.sampled_from(linked))
        shaped = copy.deepcopy(draw(_NODE_SHAPED))
        if draw(st.booleans()):
            target["next"].append(shaped)
        else:
            target["next"] = [shaped]
    elif edit == "link-retargeted":
        linked = [node for node in nodes if node.get("next")]
        if linked:
            draw(st.sampled_from(linked))["next"][0] = node["uid"]
    elif edit == "node-as-document":
        value = copy.deepcopy(draw(_NODE_SHAPED))
    return value, top


def _nested_past_json(value: object, top: dict) -> str | None:
    """The text of ``value`` with a chain of ORs and ANDs hung below its
    top AND, so deep that only ``_loads_iteratively`` reads it, or None
    where the edit left no top AND in ``value`` or it no children list to
    hang the chain in. The counts take in the chain where they can, so a
    document that read still reads."""
    if type(top.get("children")) is not list:
        return None
    top["children"].append(_PLACEHOLDER)
    text = json.dumps(value)
    if json.dumps(_PLACEHOLDER) not in text:
        return None
    # each node of the chain is two levels: an object and its children
    length = past_json_depth() // 2 + 1
    chain = "".join(
        f'{{"uid":{_SPINE_UID + at},"kind":"{"AND" if at % 2 else "OR"}",'
        f'"name":"","children":['
        for at in range(length)) + "]}" * length
    counts = value.get("counts") if type(value) is dict else None
    if type(counts) is dict:
        for key, nodes in (("or", (length + 1) // 2), ("and", length // 2)):
            if type(counts.get(key)) is int:
                counts[key] += nodes
    return json.dumps(value).replace(json.dumps(_PLACEHOLDER), chain)


def _read(parse, text: bytes | str) -> tuple[str, object]:
    try:
        return "document", parse(text)
    except scio.DocumentError as exc:
        return type(exc).__name__, str(exc)


@given(case=_edited_charts(), size=st.integers(1, 80))
@settings(max_examples=250, deadline=None)
def test_reader_gives_the_reference_document_or_message(case, size):
    value, _ = case
    data = json.dumps(value, indent=2).encode("utf-8")
    text = scio.statechart_text(
        [data[at:at + size] for at in range(0, len(data), size)])
    for form in (data, text):
        assert _read(scio.parse_statechart, form) == (
            _read(reader_reference.parse_statechart, form))


@given(case=_edited_charts())
@settings(max_examples=40, deadline=None)
def test_reader_past_json_depth_gives_the_reference_document_or_message(
        case):
    deep = _nested_past_json(*case)
    if deep is None:
        return
    with mock.patch.object(scio, "_loads_iteratively",
                           wraps=scio._loads_iteratively) as fallback:
        assert _read(scio.parse_statechart, deep) == (
            _read(reader_reference.parse_statechart, deep))
    assert fallback.call_count == 2


@pytest.mark.parametrize("kind, replacement", [
    ("Basic", None), ("HyperEdge", None), ("AND", "next"), ("OR", "extra")])
def test_a_node_without_its_kind_gets_the_reference_message(kind,
                                                             replacement):
    # A linked node without "kind" keeps four keys, as many as an unlinked
    # node has, and so does an unlinked node whose "kind" is renamed.
    value = json.loads((GOLDEN_DIR / "fork_join.statechart.json")
                       .read_bytes())
    node = next(node for node, _ in json_nodes(value)
                if node["kind"] == kind)
    del node["kind"]
    if replacement is not None:
        node[replacement] = []
    data = json.dumps(value).encode("utf-8")
    found = _read(scio.parse_statechart, data)
    assert found == _read(reader_reference.parse_statechart, data)
    assert found[1].startswith("node has unknown fields: "), found


def test_an_unedited_chart_nested_past_json_still_reads():
    value = json.loads((GOLDEN_DIR / "fork_join.statechart.json")
                       .read_bytes())
    deep = _nested_past_json(value, value["root"]["children"][0])
    doc = scio.parse_statechart(deep)
    assert doc == reader_reference.parse_statechart(deep)
    assert doc.kinds.count("OR") + doc.kinds.count("AND") > (
        past_json_depth() // 2)


#: Names that hold bytes squeezing must not take for whitespace once
#: written, with plain ones, and names that squeezing would change.
_UNSPACED_NAMES = ["p", "tab\there", "\t", "v\x0bw", "f\x0cg",
                   "line\nbreak", "cr\r\n", "café", ""]
_SQUEEZE_NAMES = st.sampled_from(_UNSPACED_NAMES) | st.sampled_from(
    ["a b", "a  b", " lead", "trail "])
_SQUEEZE_EDITS = ("none", "raw-tab", "raw-break", "vt-between",
                  "ff-between")


@st.composite
def _laid_out_charts(draw) -> bytes:
    """A written statechart with names drawn from ``_SQUEEZE_NAMES``, or
    from its names without a space, laid out compact, in compact lines or
    indented, with LF or CRLF line ends, and perhaps one edit: a raw tab
    or line break for an escaped one in a string, or a 0x0B or 0x0C byte
    between two tokens."""
    value = json.loads(draw(_CHARTS))
    names = draw(st.sampled_from(
        [_SQUEEZE_NAMES, st.sampled_from(_UNSPACED_NAMES)]))
    for node, _ in json_nodes(value):
        if draw(st.booleans()):
            node["name"] = draw(names)
    layout = draw(st.sampled_from(["compact", "lines", "indent", "tabs"]))
    if layout in ("compact", "lines"):
        data = json.dumps(value, separators=(",", ":")).encode()
        if layout == "lines":
            data = data.replace(b"},{", b"},\n{")
    else:
        data = json.dumps(value, indent=2 if layout == "indent" else "\t",
                          ensure_ascii=draw(st.booleans())).encode()
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    edit = draw(st.sampled_from(_SQUEEZE_EDITS))
    if edit == "raw-tab":
        data = data.replace(b"\\t", b"\t")
    elif edit == "raw-break":
        data = data.replace(b"\\n", b"\n")
    elif edit != "none":
        at = draw(st.sampled_from(
            [found.end() for found in re.finditer(rb'"name":', data)]))
        data = data[:at] + (b"\x0b" if edit == "vt-between" else b"\x0c") + (
            data[at:])
    return data


@given(data=_laid_out_charts(),
       chunk_bytes=st.sampled_from((64, 4096, scio._CHUNK_BYTES)))
@settings(max_examples=150, deadline=None)
def test_a_file_reads_as_its_bytes_parse(data, chunk_bytes):
    with tempfile.TemporaryDirectory() as where:
        path = os.path.join(where, "chart.json")
        with open(path, "wb") as handle:
            handle.write(data)
        with mock.patch.object(scio, "_CHUNK_BYTES", chunk_bytes):
            found = _read(cli._read_statechart, path)
    assert found == _read(scio.parse_statechart, data)


def test_a_squeezed_read_keeps_only_what_it_cannot_have_changed():
    data = (GOLDEN_DIR / "fork_join.statechart.json").read_bytes()
    assert data.count(b'"name": "P1"') == 1
    for name, kept in ((b"P1", True), (b"P\\t1", True), (b"P 1", False),
                       (b"P\t1", False)):  # a raw tab is not JSON
        edited = data.replace(b'"name": "P1"', b'"name": "' + name + b'"')
        read = scio._read_squeezed([edited])
        if kept:
            assert read == scio.parse_statechart(edited)
        else:
            assert read is None


def test_squeezing_keeps_a_separator_wherever_a_run_stood():
    # Runs and words cut at every chunk boundary: one byte a chunk.
    data = b'{"a":\n  [1,\n 22, 333 ,\r\n\t4444]\n , "b": "x y"}\n'
    for size in (1, 2, 3, 5, len(data)):
        chunks = [data[at:at + size] for at in range(0, len(data), size)]
        assert scio._squeezed(chunks).split() == data.split()
    # a chunk holding 0x0B or 0x0C, or no line break, is left as it is
    for chunk in (b'[1,\x0b\n 2]', b'[1,\x0c\n 2]', b'[1,   2]'):
        assert scio._squeezed([chunk]) == chunk


def test_reading_a_file_holds_less_than_the_reference_reader(tmp_path):
    path = str(tmp_path / "sp3000.json")
    doc, _ = transform_net(generate_sp_net(GenSpec(3000, 1)))
    with open(path, "wb") as handle:
        handle.writelines(scio.statechart_document_chunks(doc))
    del doc
    readers = {
        "reference": lambda: reader_reference.read_statechart_file(
            path, scio._CHUNK_BYTES),
        "cli": lambda: cli._read_statechart(path),
    }
    peaks = {}
    for name, read in readers.items():
        gc.collect()
        tracemalloc.start()
        try:
            read()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert readers["cli"]() == readers["reference"]()
    assert peaks["cli"] <= 0.85 * peaks["reference"], peaks
