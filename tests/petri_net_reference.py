"""The Petri net reader that ``pn2sc.io.parse_petri_net`` replaced, kept
verbatim as the oracle of the parser tests: the same text must give an
equal document or the same DocumentError message, and
``parse_petri_net`` must hold less than this reader at its peak.

It loads the whole file into ``json.loads``' dicts and lists, then checks
each entry and copies it into a record.
"""

from __future__ import annotations

from pn2sc.io import (
    _PLACE_FIELDS,
    _TRANSITION_FIELDS,
    DocumentError,
    PetriNetDocument,
    PlaceSpec,
    TransitionSpec,
    _arc_fault,
    _decode,
    _expect_object,
)

_PLACE_KEYS = frozenset(_PLACE_FIELDS)
_TRANSITION_KEYS = frozenset(_TRANSITION_FIELDS)


def parse_petri_net(data: bytes | str) -> PetriNetDocument:
    """Parse and schema-check a Petri net document.

    Each entry is checked once, in an order that makes its first fault
    name the DocumentError: a place's id, that the id is new, its name; a
    transition's id, that the id is new, its arcs (see ``_arc_fault``),
    its name. json.loads yields only exact types, so the tests are exact.
    """
    raw = _expect_object(_decode(data), "document", ("places", "transitions"))
    if not isinstance(raw["places"], list) or not isinstance(
        raw["transitions"], list
    ):
        raise DocumentError("'places' and 'transitions' must be lists")
    seen_ids: set[str] = set()
    places = []
    for item in raw["places"]:
        if type(item) is not dict or item.keys() != _PLACE_KEYS:
            _expect_object(item, "place", _PLACE_FIELDS)
        pid, name = item["id"], item["name"]
        if type(pid) is not str:
            raise DocumentError("place id must be a string")
        if pid in seen_ids:
            raise DocumentError(f"duplicate id {pid!r}")
        if type(name) is not str:
            raise DocumentError("place name must be a string")
        seen_ids.add(pid)
        places.append(PlaceSpec(pid, name))
    place_ids = frozenset(seen_ids)

    transitions = []
    for item in raw["transitions"]:
        if type(item) is not dict or item.keys() != _TRANSITION_KEYS:
            _expect_object(item, "transition", _TRANSITION_FIELDS)
        tid, name, pre, post = (item["id"], item["name"], item["pre"],
                                item["post"])
        if type(tid) is not str:
            raise DocumentError("transition id must be a string")
        if tid in seen_ids:
            raise DocumentError(f"duplicate id {tid!r}")
        try:
            arcs_ok = (type(pre) is list and type(post) is list
                       and place_ids.issuperset(pre)
                       and place_ids.issuperset(post)
                       and len(set(pre)) == len(pre)
                       and len(set(post)) == len(post))
        except TypeError:  # an unhashable entry
            arcs_ok = False
        if not arcs_ok:
            raise DocumentError(_arc_fault(tid, pre, post, place_ids))
        if type(name) is not str:
            raise DocumentError("name must be a string")
        seen_ids.add(tid)
        transitions.append(TransitionSpec(tid, name, tuple(pre), tuple(post)))
    return PetriNetDocument(tuple(places), tuple(transitions))
