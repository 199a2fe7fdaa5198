#!/usr/bin/env python3
"""End-to-end benchmark of the pn2sc command line, with a traced variant.

    python3 perfbench/run.py --workload sp_wide --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree: it puts ``src`` on PYTHONPATH and
starts ``python3 -m pn2sc.cli`` once per operation, sequentially, so every
operation pays what a user pays (interpreter start, import, arguments,
files). An operation is one ``transform`` of a reducible net, one
``transform`` of an irreducible net (a rejection, exit 2) or one
``validate`` of an output against an equivalent partner (exit 0) or a
mutated one (exit 1). Every output and verdict is checked by
``checker.py``, which does not use pn2sc.

Set-up builds the workload's inputs from ``--seed``, transforms the
validated nets once in-process and writes their validate partners; it is
repeated and ``setup_s`` is the median. Then operations run in rounds
until ``--seconds`` have passed (the first round always completes).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead runs
each operation through ``traced_op.py`` (the same library calls, with a
span around each) and prints per-layer metrics: the median self time of
each span per operation, counts summed over the first round, the peak RSS
after each phase, ``cli.startup_s`` (median ``--help`` wall time) and
``trace.overhead_s`` (median over slots of traced minus untraced transform
time). All times are scaled to a reference CPU speed (``speed.py``).
Spans are written to ``.perfbench_work/<run>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A human-readable
summary, with tail percentiles where a run has enough samples, goes to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checker
import speed
from nets import (Net, SplitMix64, disjoint_union, nested_net, shuffled,
                  sp_net, with_rule_tail)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
STARTUP_SAMPLES = 10
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # stop issuing operations so that a run ends in time


# --- workloads ----------------------------------------------------------------


@dataclass
class Inputs:
    reducible: list[Net]
    validated: list[int]  # indices into reducible that get validate partners
    irreducible: list[Net]
    probe: Net | None = None


SP_WIDE_PLACES = 3000
NESTED_SPINES = 4
NESTED_DEPTHS = (60, 100)
PROBE_DEPTH = 400


def _sp_wide(rng: SplitMix64) -> Inputs:
    # twelve nets, because the output size of one net varies with its depth
    half = SP_WIDE_PLACES // 2
    return Inputs(
        reducible=[with_rule_tail(sp_net(SP_WIDE_PLACES, rng.next_u64()))
                   for _ in range(12)],
        validated=[0],
        irreducible=[disjoint_union(sp_net(half, rng.next_u64()),
                                    sp_net(half, rng.next_u64()))
                     for _ in range(3)],
    )


def _spine_depths(rng: SplitMix64, spines: int) -> list[int]:
    # evenly spread over the range, with a little jitter, so that every seed
    # gives about the same size and the same number of fixpoint rounds
    low, high = NESTED_DEPTHS
    step = (high - low) / max(spines - 1, 1)
    depths = [min(high, max(low, round(low + k * step) + rng.below(5) - 2))
              for k in range(spines)]
    rng.shuffle(depths)
    return depths


def _nested_deep(rng: SplitMix64) -> Inputs:
    half = NESTED_SPINES // 2
    return Inputs(
        reducible=[shuffled(with_rule_tail(
            nested_net(_spine_depths(rng, NESTED_SPINES))), rng)],
        validated=[0],
        irreducible=[shuffled(disjoint_union(
            nested_net(_spine_depths(rng, half)),
            nested_net(_spine_depths(rng, half))), rng)],
        probe=shuffled(nested_net([PROBE_DEPTH]), rng),
    )


def _many_small(rng: SplitMix64) -> Inputs:
    # sizes evenly spread and the same for every seed; only their order and
    # the nets' shapes vary
    sizes = [50 + (450 * k) // 23 for k in range(24)]
    every_fourth = sizes[2::4]
    rng.shuffle(sizes)
    return Inputs(
        reducible=[with_rule_tail(sp_net(n, rng.next_u64()))
                   for n in sizes],
        validated=[sizes.index(n) for n in every_fourth],
        irreducible=[disjoint_union(sp_net(n // 2, rng.next_u64()),
                                    sp_net(n // 2, rng.next_u64()))
                     for n in every_fourth],
    )


WORKLOADS: dict[str, Callable[[SplitMix64], Inputs]] = {
    "sp_wide": _sp_wide,
    "nested_deep": _nested_deep,
    "many_small": _many_small,
}


# --- set-up -------------------------------------------------------------------


@dataclass
class Prepared:
    inputs: Inputs
    reducible: list[Path]
    irreducible: list[Path]
    pairs: list[tuple[int, Path, Path, Path]]  # index, actual, equal, mutated
    probe: Path | None
    checked: dict[int, set[str]] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)


def _transform_in_process(net_file: Path) -> bytes:
    from pn2sc.io import read_petri_net, write_statechart
    from pn2sc.reduce import create_statechart

    sc, result = create_statechart(read_petri_net(net_file.read_bytes()))
    return write_statechart(sc, result)


def set_up(workload: str, seed: int, where: Path) -> Prepared:
    """Write every input and every validate partner under ``where``."""
    where.mkdir()
    rng = SplitMix64(seed)
    inputs = WORKLOADS[workload](rng)

    def write(name: str, data: bytes) -> Path:
        path = where / name
        path.write_bytes(data)
        return path

    prep = Prepared(
        inputs,
        [write(f"net{i}.json", net.to_bytes())
         for i, net in enumerate(inputs.reducible)],
        [write(f"irreducible{i}.json", net.to_bytes())
         for i, net in enumerate(inputs.irreducible)],
        [],
        inputs.probe and write("probe.json", inputs.probe.to_bytes()),
    )
    for i in inputs.validated:
        data = _transform_in_process(prep.reducible[i])
        prep.depth[i] = checker.check(data, inputs.reducible[i])
        prep.checked[i] = {hashlib.sha256(data).hexdigest()}
        prep.pairs.append((
            i,
            write(f"actual{i}.json", data),
            write(f"equal{i}.json", checker.equivalent(data, rng)),
            write(f"mutated{i}.json", checker.mutated(data, rng)),
        ))
    return prep


# --- running operations ---------------------------------------------------------


@dataclass
class Op:
    kind: str  # transform | reject | validate
    index: int
    argv: list[str]
    expect: int
    out: Path | None = None
    traced: bool = False


@dataclass
class Spawned:
    raw_s: float  # wall time as measured
    scale: float  # turns raw_s into seconds at the reference speed
    rss_mb: float
    code: int | None  # None after a timeout or a signal
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.raw_s * self.scale


@dataclass
class Result:
    op: Op
    run: Spawned
    problem: str | None = None


class Runner:
    """Runs one child per operation through ``launcher.py``, which is started
    while this process is still small (see there). Child output goes to
    files, never to a pipe, so a large traceback cannot block the child."""

    def __init__(self, where: Path):
        where.mkdir(parents=True)
        self.where = where
        self.err_path = where / "stderr.txt"
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        # children cache bytecode, as an installed tool does, whatever the
        # environment says; otherwise every start recompiles the package
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str]) -> Spawned:
        self.launcher.stdin.write(json.dumps({
            "argv": argv, "cwd": str(self.where),
            "stderr": str(self.err_path), "timeout": OP_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        code = reply["status"]
        if reply["timed_out"] or code < 0:
            code = None
        return Spawned(reply["wall_s"], reply["scale"],
                       reply["maxrss_kb"] * 1024 / 1e6, code,
                       self.err_path.read_text(errors="replace"))

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "pn2sc.cli", *args]


def _traced(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "traced_op.py"), *args]


def round_of_ops(prep: Prepared, where: Path, traced: bool) -> list[Op]:
    """One round of slots. A slot transforms a reducible net, validates an
    output against its equal or its mutated partner, and rejects an
    irreducible net. Each list is cycled so that a round uses every input.
    Traced slots also run the transform untraced, for the overhead, and
    reject nothing."""
    out = where / "out.json"
    spans = str(where / "spans.json")
    checks = [(i, str(actual), str(expected), code)
              for i, actual, equal, mutated in prep.pairs
              for expected, code in ((equal, 0), (mutated, 1))]
    slots = max(len(prep.reducible), len(checks), len(prep.irreducible))
    ops = []
    for k in range(slots):
        i = k % len(prep.reducible)
        net = str(prep.reducible[i])
        if traced:
            ops.append(Op("transform", i, _traced("transform", net, str(out),
                                                   spans), 0, out, True))
        ops.append(Op("transform", i, _cli("transform", net, "-o", str(out)),
                      0, out))
        i, actual, expected, code = checks[k % len(checks)]
        argv = (_traced("validate", actual, expected, spans) if traced
                else _cli("validate", actual, expected))
        ops.append(Op("validate", i, argv, code, traced=traced))
        if not traced:
            i = k % len(prep.irreducible)
            ops.append(Op("reject", i, _cli(
                "transform", str(prep.irreducible[i]), "-o", str(out)), 2, out))
    return ops


def execute(op: Op, runner: Runner, prep: Prepared,
            output_bytes: dict[int, int]) -> Result:
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    run = runner.spawn(op.argv)
    res = Result(op, run)
    code, err = run.code, run.stderr
    if code is None:
        res.problem = f"timed out after {OP_TIMEOUT_S:.0f} s or killed"
    elif "Traceback (most recent call last)" in err:
        res.problem = f"exit {code} with a traceback"
    elif code != op.expect:
        res.problem = f"exit {code}, expected {op.expect}"
    elif op.kind == "reject" and op.out.exists():
        res.problem = "irreducible net produced an output file"
    elif op.kind == "transform":
        res.problem = _check_output(op, prep, output_bytes)
    return res


def _check_output(op: Op, prep: Prepared,
                  output_bytes: dict[int, int]) -> str | None:
    data = op.out.read_bytes()
    output_bytes[op.index] = len(data)
    digest = hashlib.sha256(data).hexdigest()
    seen = prep.checked.setdefault(op.index, set())
    if digest not in seen:
        try:
            prep.depth[op.index] = checker.check(
                data, prep.inputs.reducible[op.index])
        except checker.CheckError as exc:
            return f"output rejected by the checker: {exc}"
        seen.add(digest)
    return None


def run_probe(prep: Prepared, runner: Runner, where: Path) -> bool:
    """Transform the deep probe and report the outcome on stderr. It counts
    in no metric. Success is exit 0 with a checked output, or a documented
    rejection code (65, 70) with a one-line message. Returns False for a
    wrong answer (a bad output, or exit 2 for this reducible net); a crash
    is reported but is the known defect this probe tracks."""
    out = where / "probe.out.json"
    run = runner.spawn(_cli("transform", str(prep.probe), "-o", str(out)))
    code, err = run.code, run.stderr
    lines = err.strip().splitlines()
    right = True
    if code == 0:
        try:
            checker.check(out.read_bytes(), prep.inputs.probe)
            verdict = "ok (transformed, output checked)"
        except checker.CheckError as exc:
            verdict, right = f"WRONG (bad output: {exc})", False
        out.unlink()
    elif code == 2:
        verdict, right = "WRONG (reported irreducible)", False
    elif code in (65, 70) and len(lines) == 1:
        verdict = f"ok (rejected with exit {code}: {lines[0]})"
    else:
        verdict = (f"FAILED (exit {code}, {len(err.encode())} bytes of "
                   f"stderr; last line: {lines[-1] if lines else ''})")
    print(f"probe depth {PROBE_DEPTH}: {verdict} after {run.raw_s:.2f} s",
          file=sys.stderr)
    return right


def measure(ops: list[Op], seconds: float, runner: Runner, prep: Prepared,
            run_started: float, on_result=None) -> tuple[list[Result], dict]:
    """Run rounds of ``ops`` until ``seconds`` have passed; the first round
    always completes."""
    results: list[Result] = []
    output_bytes: dict[int, int] = {}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for op in ops:
            now = time.perf_counter()
            if (rounds and now >= deadline) or now - run_started > RUN_LIMIT_S:
                return results, output_bytes
            res = execute(op, runner, prep, output_bytes)
            results.append(res)
            if on_result is not None:
                on_result(res, rounds)
        rounds += 1


# --- reporting ---------------------------------------------------------------


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}, too few for a tail"
    rank = n - 11
    return (f"n={n}, p{100 * (rank + 1) / n:.0f}="
            f"{sorted(values)[rank]:.4f}")


def _emit(correct: bool, attempted: int, failed: int,
          metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _failures(results: list[Result]) -> list[Result]:
    failed = [r for r in results if r.problem]
    for r in failed:
        print(f"failed: {r.op.kind} #{r.op.index}: {r.problem}",
              file=sys.stderr)
    return failed


def _warm_up(runner: Runner) -> None:
    # the first start of a fresh tree compiles the package's bytecode
    runner.spawn(_cli("--help"))


def end_to_end(prep: Prepared, runner: Runner, where: Path, seconds: int,
               setup_s: list[float], run_started: float) -> int:
    probe_right = prep.probe is None or run_probe(prep, runner, where)
    results, output_bytes = measure(
        round_of_ops(prep, where, traced=False), seconds, runner, prep,
        run_started)
    failed = _failures(results)
    good = [r for r in results if not r.problem]
    by_kind = {kind: [r for r in good if r.op.kind == kind]
               for kind in ("transform", "validate", "reject")}
    if not all(by_kind.values()):
        print("error: some kind of operation has no successful sample",
              file=sys.stderr)
        return 1
    walls = {kind: [r.run.wall_s for r in rs] for kind, rs in by_kind.items()}
    raw = {kind: [r.run.raw_s for r in rs] for kind, rs in by_kind.items()}
    places = sum(len(prep.inputs.reducible[r.op.index].places)
                 for r in by_kind["transform"])
    metrics = {
        "transform_s": (statistics.median(walls["transform"]), "s"),
        "validate_s": (statistics.median(walls["validate"]), "s"),
        "reject_s": (statistics.median(walls["reject"]), "s"),
        "places_per_s": (places / sum(walls["transform"]), "places/s"),
        "transform_peak_rss_mb": (
            max(r.run.rss_mb for r in by_kind["transform"]), "MB"),
        "validate_peak_rss_mb": (
            max(r.run.rss_mb for r in by_kind["validate"]), "MB"),
        "output_mb": (statistics.mean(output_bytes.values()) / 1e6, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    for kind, values in walls.items():
        print(f"{kind}: {_tail(values)}; unscaled median "
              f"{statistics.median(raw[kind]):.4f} s", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:>24} {value:12.4f} {unit}", file=sys.stderr)
    _emit(probe_right and not failed, len(results), len(failed), metrics)
    return 0


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, the summed time not covered by child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def per_layer(prep: Prepared, runner: Runner, where: Path, seconds: int,
              run_started: float) -> int:
    startup = [runner.spawn(_cli("--help")).wall_s
               for _ in range(STARTUP_SAMPLES)]
    spans_path = where / "spans.json"
    all_spans: list[dict] = []
    self_s: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    rss: dict[str, float] = {}
    walls: dict[bool, list[float]] = {True: [], False: []}
    covered: list[float] = []  # span time of a traced transform, import aside
    op_ids = itertools.count()

    def collect(res: Result, round_no: int) -> None:
        if res.problem:
            return
        if res.op.kind == "transform":
            walls[res.op.traced].append(res.run.wall_s)
        if not res.op.traced:
            return
        record = json.loads(spans_path.read_text())
        spans_path.unlink()
        op_id = next(op_ids)
        all_spans.extend(dict(span, op=op_id) for span in record["spans"])
        layers = {name: value * res.run.scale
                  for name, value in _self_times(record["spans"]).items()
                  if not name.startswith("op.")}
        for name, value in layers.items():
            self_s.setdefault(f"{name}_s", []).append(value)
        if res.op.kind == "transform":
            covered.append(sum(layers.values()) - layers["cli.import"])
        for phase, value in record["rss_mb"].items():
            key = f"mem.rss_mb.after_{phase}"
            rss[key] = max(rss.get(key, 0.0), value)
        if round_no == 0:
            for name, value in record["counts"].items():
                counts[name] = counts.get(name, 0) + value

    results, output_bytes = measure(
        round_of_ops(prep, where, traced=True), seconds, runner, prep,
        run_started, collect)
    failed = _failures(results)
    if not walls[True] or not walls[False]:
        print("error: no successful transform sample", file=sys.stderr)
        return 1
    with open(where / "spans.jsonl", "w") as sink:
        for span in all_spans:
            sink.write(json.dumps(span) + "\n")
    counts["io.input_bytes"] = sum(p.stat().st_size for p in prep.reducible)
    counts["io.output_bytes"] = sum(output_bytes.values())
    counts["io.output_depth"] = max(prep.depth.values())
    metrics: dict[str, tuple[float, str]] = {
        "cli.startup_s": (statistics.median(startup), "s")}
    for name in sorted(self_s):
        metrics[name] = (statistics.median(self_s[name]), "s")
    for name in sorted(counts):
        metrics[name] = (counts[name],
                         "bytes" if name.endswith("_bytes") else "count")
    for name in sorted(rss):
        metrics[name] = (rss[name], "MB")
    # each slot runs the traced transform right before the untraced one
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(walls[True], walls[False])), "s")
    for name, (value, unit) in metrics.items():
        print(f"{name:>48} {value:12.4f} {unit}", file=sys.stderr)
    share = ((statistics.median(covered) + metrics["cli.startup_s"][0])
             / statistics.median(walls[False]))
    print(f"transform spans plus cli.startup_s cover {100 * share:.0f} % of "
          f"the untraced transform time", file=sys.stderr)
    _emit(not failed, len(results), len(failed), metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    run_started = time.perf_counter()
    if not (SRC / "pn2sc" / "cli.py").is_file():
        print(f"error: no pn2sc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    where = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if where.exists():
        shutil.rmtree(where)
    speed.pin_to_one_cpu()
    runner = Runner(where)
    try:
        setup_s = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for rep in range(repeats):
            with speed.Sampler() as cpu:
                started = time.perf_counter()
                prep = set_up(args.workload, args.seed, where / f"setup{rep}")
                elapsed = time.perf_counter() - started
            setup_s.append(elapsed * cpu.scale)
            if rep:
                shutil.rmtree(where / f"setup{rep - 1}")
        _warm_up(runner)
        if args.trace:
            return per_layer(prep, runner, where, args.seconds, run_started)
        return end_to_end(prep, runner, where, args.seconds, setup_s,
                          run_started)
    finally:
        runner.close()
        shutil.rmtree(where / f"setup{rep}", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
