"""The Petri net reader against the one it replaced (``petri_net_reference``):
the same text gives an equal document or the same DocumentError message,
and reading, and transforming what was read, hold less."""

from __future__ import annotations

import gc
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import petri_net_reference
from helpers import GOLDEN_DIR, past_json_depth
from pn2sc import io as scio
from pn2sc.flat import transform_net
from pn2sc.generate import GenSpec, generate_sp_net

_NETS = st.sampled_from(
    [path.read_bytes() for path in sorted(GOLDEN_DIR.glob("*.net.json"))]
) | st.builds(
    lambda places, seed: scio.petri_net_to_bytes(
        generate_sp_net(GenSpec(places, seed))),
    st.integers(1, 30), st.integers(0, 2 ** 32))
_PLACE_SHAPED = st.sampled_from([{"id": "p0", "name": "p0"},
                                 {"id": "x", "name": ""}])
_TRANSITION_SHAPED = st.sampled_from([
    {"id": "t0", "name": "t0", "pre": [], "post": []},
    {"id": "x", "name": "x", "pre": ["p0"], "post": ["p0", "p1"]},
])
#: Values of every JSON type, and ones an entry's field must not hold
_WRONG_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 1.5, "", "p0", [], ["p0"], ["p0", "p0"], [0],
     [True], [[]], [{}], {}, {"id": "p0"}]) | _PLACE_SHAPED | (
    _TRANSITION_SHAPED)
EDITS = ("none", "key-dropped", "key-added", "key-renamed", "wrong-type",
         "id-repeated", "arc-unknown", "arc-repeated", "place-as-document",
         "place-as-transition", "place-in-arcs", "transition-as-place")


def _edit(draw, value: object) -> object:
    """``value`` with one of ``EDITS`` applied. An edit applies only to
    the parts an earlier edit left as a net has them: objects with keys,
    entries with an id, transitions with list arcs."""
    places, transitions = value.get("places"), value.get("transitions")
    if type(places) is not list or type(transitions) is not list:
        return value
    entries = [entry for entry in places + transitions if type(entry) is dict]
    objects = [target for target in [value] + entries if target]
    named = [entry for entry in entries if "id" in entry]
    arced = [target for target in transitions if type(target) is dict
             and type(target.get("pre")) is list
             and type(target.get("post")) is list]
    edit = draw(st.sampled_from(EDITS))
    if edit == "key-dropped":
        target = draw(st.sampled_from(objects))
        del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "key-added":
        target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(
            ["extra", "id", "name", "pre", "post", "places"]))
        target[key] = draw(_WRONG_VALUES)
    elif edit == "key-renamed":
        target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(target)))
        target[draw(st.sampled_from(
            ["extra", "id", "name", "pre", "post", "places"]))] = (
            target.pop(key))
    elif edit == "wrong-type":
        target = draw(st.sampled_from(objects))
        target[draw(st.sampled_from(sorted(target)))] = draw(_WRONG_VALUES)
    elif edit == "id-repeated" and len(named) > 1:
        target = draw(st.sampled_from(named))
        target["id"] = draw(st.sampled_from(named))["id"]
    elif edit in ("arc-unknown", "arc-repeated") and arced:
        target = draw(st.sampled_from(arced))
        arcs = target[draw(st.sampled_from(["pre", "post"]))]
        if edit == "arc-unknown":
            arcs.insert(draw(st.integers(0, len(arcs))),
                        draw(st.sampled_from(["z", "t0", ""])))
        elif arcs:
            arcs.append(draw(st.sampled_from(arcs)))
    elif edit == "place-as-document":
        value = draw(_PLACE_SHAPED)
    elif edit == "place-as-transition":
        transitions.insert(draw(st.integers(0, len(transitions))),
                           draw(_PLACE_SHAPED))
    elif edit == "place-in-arcs" and arced:
        target = draw(st.sampled_from(arced))
        target[draw(st.sampled_from(["pre", "post"]))].append(
            draw(_PLACE_SHAPED))
    elif edit == "transition-as-place":
        places.insert(draw(st.integers(0, len(places))),
                      draw(_TRANSITION_SHAPED))
    return value


@st.composite
def _edited_nets(draw, edits: int = 1) -> object:
    """A Petri net file's JSON value with ``edits`` edits, one by one."""
    value = json.loads(draw(_NETS))
    for _ in range(edits):
        # A private copy: an edit inserts sampled values, which are shared.
        value = _edit(draw, json.loads(json.dumps(value)))
    return value


def _read(parse, data: bytes | str) -> tuple[str, str]:
    """What ``parse`` makes of ``data``: the document's repr, which names
    the record types too, or the error's type and message."""
    try:
        return "document", repr(parse(data))
    except scio.DocumentError as exc:
        return type(exc).__name__, str(exc)


@given(value=_edited_nets(), indent=st.sampled_from([None, 2]))
@settings(max_examples=300, deadline=None)
def test_parser_gives_the_reference_document_or_message(value, indent):
    data = json.dumps(value, indent=indent).encode("utf-8")
    for form in (data, data.decode("utf-8")):
        assert _read(scio.parse_petri_net, form) == (
            _read(petri_net_reference.parse_petri_net, form))


@given(value=_edited_nets(edits=2), indent=st.sampled_from([None, 2]))
@settings(max_examples=300, deadline=None)
def test_parser_words_the_first_of_two_faults_as_the_reference(value,
                                                                indent):
    # Two faults in one net, say a repeated id early and an unknown arc
    # later: a net that fails the column checks still gets the message of
    # its first fault in file order.
    data = json.dumps(value, indent=indent).encode("utf-8")
    assert _read(scio.parse_petri_net, data) == (
        _read(petri_net_reference.parse_petri_net, data))


@pytest.mark.parametrize("value, message", [
    ({"places": [{"id": "t", "name": "t", "pre": [], "post": []}],
      "transitions": []},
     "place has unknown fields: ['post', 'pre']"),
    ({"id": "p", "name": "p"}, "document has unknown fields: ['id', 'name']"),
    ({"places": [], "transitions": [{"id": "p", "name": "p"}]},
     "transition is missing fields: ['pre', 'post']"),
], ids=["transition-as-place", "place-as-document", "place-as-transition"])
def test_a_misplaced_record_reads_as_the_object_it_was(value, message):
    data = json.dumps(value)
    for parse in (scio.parse_petri_net, petri_net_reference.parse_petri_net):
        with pytest.raises(scio.DocumentError) as info:
            parse(data)
        assert str(info.value) == message


def test_a_value_nested_past_json_depth_gets_the_reference_message():
    depth = past_json_depth()
    data = ('{"places": [{"id": "a", "name": ' + "[" * depth + "]" * depth
            + '}], "transitions": []}')
    with mock.patch.object(scio, "_loads_iteratively",
                           wraps=scio._loads_iteratively) as fallback:
        found = _read(scio.parse_petri_net, data)
        assert found == _read(petri_net_reference.parse_petri_net, data)
    assert fallback.call_count == 2
    assert found == ("DocumentError", "place name must be a string")


def _peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sp3000() -> bytes:
    return scio.petri_net_to_bytes(generate_sp_net(GenSpec(3000, 1)))


def test_parsing_holds_less_than_json_loads(sp3000):
    # The reference reader held 1.15 to 1.17 times json.loads' peak.
    loads = _peak(lambda: json.loads(sp3000))
    parse = _peak(lambda: scio.parse_petri_net(sp3000))
    assert scio.parse_petri_net(sp3000) == (
        petri_net_reference.parse_petri_net(sp3000))
    assert parse < 0.85 * loads, (parse, loads)


def test_transforming_what_was_parsed_holds_little_more_than_json_loads(
        sp3000):
    # The reference reader and the model with per-transition sets held 2.36
    # to 2.67 times json.loads' peak.
    loads = _peak(lambda: json.loads(sp3000))
    transform = _peak(lambda: transform_net(scio.parse_petri_net(sp3000)))
    assert transform < 2.25 * loads, (transform, loads)
