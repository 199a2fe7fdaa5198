"""Independent checks of pn2sc statechart files, and validate partners.

Nothing here imports pn2sc. Files are read with the json module and every
tree walk is iterative, because nested nets give deep outputs. The checks
rest on the documented statechart schema (uid, kind, name, children, next,
counts), never on the bytes a given version writes, so a writer that orders
children or spaces the file differently still passes.
"""

from __future__ import annotations

import json
import sys
import threading

from nets import Net, SplitMix64

_COUNT_KEY = {"Statechart": "statechart", "AND": "and", "OR": "or",
              "Basic": "basic", "HyperEdge": "hyperedge"}
_LINKED = ("Basic", "HyperEdge")
_COMPOUND = ("AND", "OR")


class CheckError(Exception):
    """A statechart file is not a correct transformation of its net."""


def _deep(fn, *args):
    """Run ``fn`` where the json module may nest far deeper than the
    interpreter's default recursion limit allows."""
    out: list = []
    err: list = []

    def target() -> None:
        try:
            out.append(fn(*args))
        except (ValueError, RecursionError) as exc:
            err.append(exc)

    old_limit, old_stack = sys.getrecursionlimit(), threading.stack_size()
    sys.setrecursionlimit(200_000)
    threading.stack_size(256 << 20)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if err:
        raise CheckError(f"unreadable statechart JSON: {err[0]}")
    return out[0]


def load(data: bytes) -> dict:
    doc = _deep(json.loads, data)
    if not isinstance(doc, dict) or not {"root", "counts"} <= set(doc):
        raise CheckError("document lacks root or counts")
    return doc


def dump(doc: dict) -> bytes:
    return _deep(json.dumps, doc).encode("utf-8")


class Tree:
    """Index of a statechart document: node, parent and depth by uid."""

    def __init__(self, doc: dict):
        self.node: dict[int, dict] = {}
        self.parent: dict[int, int | None] = {}
        self.depth: dict[int, int] = {}
        root = doc["root"]
        stack = [(root, None)]
        while stack:
            node, parent = stack.pop()
            if not isinstance(node, dict):
                raise CheckError("node is not an object")
            uid, kind = node.get("uid"), node.get("kind")
            if not isinstance(uid, int) or uid in self.node:
                raise CheckError(f"missing or duplicate uid {uid!r}")
            if kind not in _COUNT_KEY or not isinstance(node.get("name"), str):
                raise CheckError(f"uid {uid}: bad kind or name")
            if (kind == "Statechart") != (parent is None):
                raise CheckError("Statechart must be exactly the root")
            children = node.get("children")
            if not isinstance(children, list):
                raise CheckError(f"uid {uid}: children is not a list")
            if kind in _LINKED:
                if children or not isinstance(node.get("next"), list):
                    raise CheckError(f"uid {uid}: bad {kind} node")
            self.node[uid] = node
            self.parent[uid] = parent
            self.depth[uid] = 0 if parent is None else self.depth[parent] + 1
            stack.extend((child, uid) for child in children)
        self.root = root["uid"]

    def of_kind(self, kind: str) -> list[int]:
        return [uid for uid, node in self.node.items() if node["kind"] == kind]

    def nca(self, members: list[int]) -> int:
        """Nearest compound node that is a strict ancestor of every member
        (members are leaves, so the first step is to the parent)."""
        parent, depth = self.parent, self.depth
        best = parent[members[0]]
        for other in members[1:]:
            a, b = best, other
            while depth[a] > depth[b]:
                a = parent[a]
            while depth[b] > depth[a]:
                b = parent[b]
            while a != b:
                a, b = parent[a], parent[b]
            best = a
        return best


def check(data: bytes, net: Net) -> int:
    """Check a statechart file against the net it was made from; return
    the maximum containment depth."""
    doc = load(data)
    tree = Tree(doc)
    root = tree.node[tree.root]
    if len(root["children"]) != 1 or root["children"][0]["kind"] != "AND":
        raise CheckError("Statechart must hold exactly one AND top state")
    top = root["children"][0]["uid"]

    tally = dict.fromkeys(_COUNT_KEY.values(), 0)
    for node in tree.node.values():
        tally[_COUNT_KEY[node["kind"]]] += 1
    want = dict(tally, statechart=1, basic=len(net.places),
                hyperedge=len(net.transitions))
    if doc["counts"] != tally or tally != want:
        raise CheckError(f"counts {doc['counts']}, tree {tally}, net {want}")

    def by_name(kind: str, names: tuple[str, ...]) -> dict[str, int]:
        found = {tree.node[uid]["name"]: uid for uid in tree.of_kind(kind)}
        if sorted(found) != sorted(names):
            raise CheckError(f"{kind} names do not match the net one to one")
        return found

    basic = by_name("Basic", net.places)
    edge = by_name("HyperEdge", tuple(t for t, _, _ in net.transitions))

    def targets(uid: int, kind: str) -> set[int]:
        nxt = tree.node[uid]["next"]
        if len(set(nxt)) != len(nxt) or any(
            tree.node.get(t, {}).get("kind") != kind for t in nxt
        ):
            raise CheckError(f"uid {uid}: next must name distinct {kind}s")
        return set(nxt)

    linked_from: dict[int, set[int]] = {uid: set() for uid in edge.values()}
    for uid in basic.values():
        for target in targets(uid, "HyperEdge"):
            linked_from[target].add(uid)

    for name, pre, post in net.transitions:
        uid = edge[name]
        if targets(uid, "Basic") != {basic[p] for p in post}:
            raise CheckError(f"HyperEdge {name}: next is not its post-places")
        if linked_from[uid] != {basic[p] for p in pre}:
            raise CheckError(f"HyperEdge {name}: Basics linking to it are "
                             f"not its pre-places")
        members = sorted({basic[p] for p in pre + post})
        home = tree.nca(members) if members else top
        if tree.parent[uid] != home:
            raise CheckError(f"HyperEdge {name} is not in the nearest common "
                             f"compound ancestor of its Basics")
    return max(tree.depth.values())


def equivalent(data: bytes, rng: SplitMix64) -> bytes:
    """The same statechart with children shuffled, uids renumbered at random
    and next lists remapped: validate must pass against it."""
    doc = load(data)
    tree = Tree(doc)
    order = list(range(len(tree.node)))
    rng.shuffle(order)
    new_uid = dict(zip(tree.node, order))

    def copy(node: dict) -> dict:
        out = {"children": [], "name": node["name"], "kind": node["kind"],
               "uid": new_uid[node["uid"]]}
        if node["kind"] in _LINKED:
            nxt = [new_uid[t] for t in node["next"]]
            rng.shuffle(nxt)
            out["next"] = nxt
        return out

    root = copy(doc["root"])
    stack = [(doc["root"], root)]
    while stack:
        old, new = stack.pop()
        children = list(old["children"])
        rng.shuffle(children)
        for child in children:
            twin = copy(child)
            new["children"].append(twin)
            stack.append((child, twin))
    return dump({"counts": doc["counts"], "root": root})


def mutated(data: bytes, rng: SplitMix64) -> bytes:
    """The same statechart with one HyperEdge moved to another container or
    one Basic renamed: validate must fail against it. The victim is picked
    by name, so it does not depend on the order the writer used."""
    doc = load(data)
    tree = Tree(doc)
    top = tree.node[tree.root]["children"][0]
    if rng.below(2) == 0:
        edges = sorted(tree.of_kind("HyperEdge"),
                       key=lambda uid: tree.node[uid]["name"])
        uid = edges[rng.below(len(edges))]
        home = tree.node[tree.parent[uid]]
        if home is top:
            dest = next(c for c in top["children"] if c["kind"] in _COMPOUND)
        else:
            dest = top
        home["children"].remove(tree.node[uid])
        dest["children"].append(tree.node[uid])
    else:
        basics = sorted(tree.of_kind("Basic"),
                        key=lambda uid: tree.node[uid]["name"])
        victim = tree.node[basics[rng.below(len(basics))]]
        victim["name"] += ".renamed"
    return dump(doc)
