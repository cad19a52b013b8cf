"""Seeded benchmark of the cjtk CLI pipeline.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 22 --trace 0

Timed mode (``--trace 0``) generates the workload's inputs from the seed,
runs them through the real CLI (``python -m cjtk.cli`` from this tree's
``src``, one subprocess per invocation, serial, one client) in whole
passes until ``--seconds`` have gone by, checks every output against an
oracle computed from the scene, and prints the end-to-end metrics.  Its
times are scaled to a reference CPU speed measured beside each invocation
(see ``probe_ms``); the unscaled figures are printed too.

Traced mode (``--trace 1``) replays the same inputs in this process
through the functions the CLI stages call, with a span around each call,
and prints per-layer metrics.  See README.md beside this file.

Report lines go to standard output first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import (REPLAY_LAYERS, SETUP_LAYERS, NoTracer, Tracer,
                     patched, self_ns)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MB = 2 ** 20
SETUP_REPEATS = 5
SETUP_SLICE_S = 0.25
SETUP_MAX_REPEATS = 25
STARTUP_SAMPLES = 5
PROBE_REPEATS = 2
PROBE_LOOPS = 15000
# Reference speed: reported times are what they would be on a machine
# where one probe takes this long.
PROBE_REF_MS = 4.0


class HarnessError(Exception):
    """The benchmark cannot measure this tree."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def require_tree() -> None:
    """Import cjtk from this tree's src, in this process and in children."""
    if not (SRC / "cjtk" / "__init__.py").is_file():
        raise HarnessError(f"no cjtk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cjtk
    here = Path(cjtk.__file__).resolve()
    probe = subprocess.run(
        [sys.executable, "-c", "import cjtk; print(cjtk.__file__)"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    there = Path(probe.stdout.strip() or "?").resolve()
    for where in (here, there):
        if SRC.resolve() not in where.parents:
            raise HarnessError(f"cjtk resolves to {where}, not under {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _probe_data():
    """Float objects scattered over a few MB, and a string-keyed table."""
    floats = [i * 1.5 for i in range(10 * PROBE_LOOPS)]
    return (random.Random(0).sample(floats, PROBE_LOOPS),
            {str(i): i for i in range(PROBE_LOOPS)})


_SCATTERED, _TABLE = _probe_data()


def probe_ms() -> float:
    """Mean time of a fixed pure-Python probe, in ms: the speed this
    process gets from the machine right now.

    The host's speed steps by tens of percent for seconds to minutes at a
    time, as other tenants load it.  Timing a probe that never changes
    beside each measurement lets the benchmark report times scaled to one
    reference speed, so that a change of the host's speed cancels while a
    change of the program's cost does not.  The probe does integer
    arithmetic, walks objects scattered in memory and looks up dict keys,
    so it slows with the CPU and with the memory system alike.
    """
    total = 0.0
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        for x in _SCATTERED:
            acc += x
        for key in _TABLE:
            acc += _TABLE[key]
        total += time.perf_counter() - start
    return total * 1000 / PROBE_REPEATS


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` at the reference speed, given the probe time beside it."""
    return seconds * PROBE_REF_MS / probe


class Cli:
    """Runs ``python -m cjtk.cli ARGV`` and records wall time and max RSS.

    Invocations are started by ``spawn.py``, a small process of its own, so
    that each child's max RSS is not raised to this process's peak.  The
    probe runs right after each invocation; an invocation's probe time is
    the mean of the probes just before and just after it.
    """

    def __init__(self, cwd: Path):
        self.cmd = [sys.executable, "-m", "cjtk.cli"]
        self.cwd = cwd
        self.last_probe = None
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=child_env(), text=True)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        self.spawner.stdin.close()
        if kind is not None:
            self.spawner.terminate()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, argv, stdout: Path):
        request = {"argv": self.cmd + argv, "cwd": str(self.cwd),
                   "stdout": str(stdout),
                   "stderr": str(stdout.with_suffix(".stderr"))}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise HarnessError("the spawner process ended unexpectedly")
        reply = json.loads(reply)
        before, self.last_probe = self.last_probe, probe_ms()
        probe = (before + self.last_probe) / 2 if before else self.last_probe
        return (reply["wall_s"], reply["maxrss_kb"] / 1024, reply["exit"],
                probe)

    def __call__(self, doc, kind, argv, unit, inputs, out, outputs=()):
        from workloads import Invocation
        inv = Invocation(doc, kind, argv,
                         sum(Path(p).stat().st_size for p in inputs), unit,
                         out / (doc.replace("/", "_") + ".stdout"),
                         list(outputs))
        if argv is not None:
            inv.wall_s, inv.rss_mb, inv.exit, inv.probe_ms = \
                self.run(argv, inv.stdout)
        return inv


def _digest(path: Path):
    try:
        return hashlib.blake2b(path.read_bytes(), digest_size=16).digest()
    except OSError:
        return None


def check_all(workload, invs) -> None:
    """Set ``inv.problem`` for each invocation; identical bytes, one check."""
    verdicts: dict = {}
    for inv in invs:
        if inv.argv is None:
            inv.problem = "not run: its input was not produced"
            continue
        key = (inv.doc, inv.exit, _digest(inv.stdout),
               *(_digest(p) for p in inv.outputs))
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(inv)
            except Exception as exc:  # a malformed output fails its oracle
                verdicts[key] = f"oracle: {type(exc).__name__}: {exc}"
        inv.problem = verdicts[key]


def setup(workload, seed: int, inputs: Path, min_seconds: float,
          min_repeats: int = 1, tracer_for=None):
    """Generate the inputs at least ``min_repeats`` times and for at least
    ``min_seconds``; return the units, each repetition's seconds and the
    probe time beside each (the mean of the probes before and after it)."""
    times, probes, tracers = [], [], []
    units = None
    before = probe_ms()
    while len(times) < min_repeats or (sum(times) < min_seconds
                                       and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        tracer = tracer_for() if tracer_for else None
        units = None
        gc.collect()   # start each repetition from the same heap
        with patched(tracer, SETUP_LAYERS):
            start = time.perf_counter()
            units = workload.setup(seed, inputs)
            times.append(time.perf_counter() - start)
        tracers.append(tracer)
        after = probe_ms()
        probes.append((before + after) / 2)
        before = after
    return units, times, probes, tracers


def cli_pass(workload, units, cli, out: Path):
    out.mkdir(parents=True)
    invs = []
    for unit in units:
        invs += workload.run_unit(unit, cli, out)
    return invs


def tail(walls, level: int):
    """(value, samples beyond) at percentile ``level``, interpolated."""
    value = statistics.quantiles(walls, n=100, method="inclusive")[level - 1]
    return value, sum(w > value for w in walls)


def outcome(workload, invs) -> dict:
    """Hostile-input failures count in ``failed`` but leave ``correct``."""
    failed = [inv for inv in invs if inv.problem]
    return {"correct": all(workload.hostile(inv.kind) for inv in failed),
            "attempted": len(invs), "failed": len(failed)}


def report_failures(name, workload, invs, emit) -> None:
    kinds = sorted({inv.kind for inv in invs})
    failed = sum(bool(inv.problem) for inv in invs)
    emit(f"{name} failed_ratio {failed / len(invs):.4f} ratio "
         f"({failed}/{len(invs)})")
    for kind in kinds:
        mine = [inv for inv in invs if inv.kind == kind]
        bad = [inv for inv in mine if inv.problem]
        tag = " hostile" if workload.hostile(kind) else ""
        emit(f"{name} failed_ratio[{kind}] {len(bad) / len(mine):.4f} ratio "
             f"({len(bad)}/{len(mine)}){tag}"
             + (f" first: {bad[0].doc}: {bad[0].problem}" if bad else ""))


def timed(workload, seed, seconds, work, emit) -> dict:
    inputs = work / "inputs"
    units, setup_times, setup_probes, _ = setup(workload, seed, inputs,
                                                SETUP_SLICE_S)
    invs = []
    passes = 0
    wall = 0.0
    with Cli(work) as cli:
        cli.run(["--help"], work / "warmup.stdout")   # fill bytecode caches
        while True:
            start = time.perf_counter()
            invs += cli_pass(workload, units, cli, work / f"pass{passes}")
            wall += time.perf_counter() - start
            passes += 1
            if wall >= seconds:
                break
            # Set-up repeats between passes, outside the timed wall, so
            # setup_s samples the machine over the whole run as passes do.
            units, more, probes, _ = setup(workload, seed, inputs,
                                           SETUP_SLICE_S)
            setup_times += more
            setup_probes += probes
    check_all(workload, invs)

    ran = [inv for inv in invs if inv.argv is not None]
    in_mb = sum(inv.in_bytes for inv in ran) / MB
    level = workload.tail_level

    def figures(walls, setups):
        """The time metrics from invocation walls (s) and set-up times."""
        ms = [w * 1000 for w in walls]
        # The median over invocations of each one's median over passes.
        # The plain median of all walls falls between two input sizes, at
        # the slowest run of one and the fastest of the next, and so
        # swings with the noise.
        per_doc: dict = {}
        for inv, w in zip(ran, ms):
            per_doc.setdefault(inv.doc, []).append(w)
        return {"mb_per_s": (in_mb / sum(walls), "MB/s"),
                "doc_p50_ms": (statistics.median(
                    statistics.median(v) for v in per_doc.values()), "ms"),
                "doc_tail_ms": (tail(ms, level)[0], "ms"),
                "setup_s": (statistics.median(setups), "s")}

    walls = [scaled(inv.wall_s, inv.probe_ms) for inv in ran]
    metrics = figures(walls, list(map(scaled, setup_times, setup_probes)))
    metrics["peak_rss_mb"] = (max(inv.rss_mb for inv in ran), "MB")
    unscaled = figures([inv.wall_s for inv in ran], setup_times)
    beyond = tail(walls, level)[1]
    name = workload.name
    probe = statistics.median(inv.probe_ms for inv in ran)
    emit(f"{name} probe_ms {probe:.4g} ms (median beside the invocations; "
         f"times below are scaled to a probe of {PROBE_REF_MS} ms)")
    for key, (value, unit) in metrics.items():
        note = f" [{unscaled[key][0]:.6g} unscaled]" if key in unscaled \
            else ""
        if key == "doc_tail_ms":
            note += f" (p{level}, n={len(ran)}, {beyond} beyond)"
        emit(f"{name} {key} {value:.6g} {unit}{note}")
    emit(f"{name} timed_wall_s {wall:.3f} s ({passes} passes of "
         f"{len(units)} inputs)")
    report_failures(name, workload, invs, emit)
    result = outcome(workload, invs)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def replay_pass(workload, units, tracer, out: Path):
    """One in-process pass; returns (wall seconds, documents that raised)."""
    out.mkdir(parents=True)
    raised = []
    with patched(tracer, REPLAY_LAYERS):
        t = tracer or NoTracer()
        start = time.perf_counter()
        for unit in units:
            try:
                workload.replay(unit, t, out)
            except Exception as exc:   # the CLI would crash here too
                raised.append((unit.uid, type(exc).__name__))
        wall = time.perf_counter() - start
    return wall, raised


def aggregate(spans) -> dict:
    """span name -> calls, self ns, calls that raised, summed counts."""
    own = self_ns(spans)
    out: dict = {}
    for sp in spans:
        a = out.setdefault(sp.name, {"calls": 0, "self_ns": 0, "raised": 0,
                                     "counts": {}, "alloc": 0})
        a["calls"] += 1
        a["self_ns"] += own[sp.sid]
        a["raised"] += sp.error is not None
        a["alloc"] = max(a["alloc"], sp.peak - sp.base)
        for k, v in sp.counts.items():
            a["counts"][k] = a["counts"].get(k, 0) + v
    return out


_NONE = {"calls": 0, "self_ns": 0, "raised": 0, "counts": {}, "alloc": 0}


def traced(workload, seed, seconds, work, emit, trace_file: Path) -> dict:
    units, _, _, setup_tracers = setup(workload, seed, work / "inputs", 0.0,
                                       SETUP_REPEATS, Tracer)
    with Cli(work) as cli:
        cli.run(["--help"], work / "warmup.stdout")
        invs = cli_pass(workload, units, cli, work / "cli")
        startup_ms = [cli.run(["--help"], work / "startup.stdout")[0] * 1000
                      for _ in range(STARTUP_SAMPLES)]
    check_all(workload, invs)
    cli_ms = {inv.doc: inv.wall_s * 1000 for inv in invs
              if inv.argv is not None}

    # Traced and untraced passes alternate so drift hits both alike.
    traced_runs, plain_walls = [], []
    start = time.perf_counter()
    while not traced_runs or time.perf_counter() - start < seconds:
        k = len(plain_walls)
        tracer = Tracer()
        wall, raised = replay_pass(workload, units, tracer,
                                   work / f"traced{k}")
        traced_runs.append((wall, tracer, raised))
        plain_walls.append(replay_pass(workload, units, None,
                                       work / f"plain{k}")[0])
    alloc_tracer = Tracer(alloc=True)
    tracemalloc.start()
    try:
        replay_pass(workload, units, alloc_tracer, work / "alloc")
    finally:
        tracemalloc.stop()

    passes = [aggregate(t.spans) for _, t, _ in traced_runs]
    alloc = aggregate(alloc_tracer.spans)
    synth = [aggregate(t.spans) for t in setup_tracers]

    def med(fn, runs=passes):
        return statistics.median(fn(a) for a in runs)

    def self_ms(name, runs=passes):
        return med(lambda a: a.get(name, _NONE)["self_ns"] / 1e6, runs)

    # Counts repeat exactly from pass to pass; the first pass gives them.
    def calls(name):
        return passes[0].get(name, _NONE)["calls"]

    def count(name, key):
        return passes[0].get(name, _NONE)["counts"].get(key, 0)

    def per_s(name, key, scale=1.0):
        def rate(a):
            entry = a.get(name, _NONE)
            if not entry["self_ns"]:
                return 0.0
            return entry["counts"].get(key, 0) / scale \
                / (entry["self_ns"] / 1e9)
        return med(rate)

    def alloc_mb(name):
        return alloc.get(name, _NONE)["alloc"] / MB

    def findings(severity):
        return sum(e["counts"].get(f"findings.{severity}", 0)
                   for e in passes[0].values())

    # Per invocation: CLI wall minus the replay's root span for it.
    roots = {}
    for _, t, _ in traced_runs:
        for sp in t.spans:
            if sp.parent is None:
                roots.setdefault(sp.doc, []).append((sp.end - sp.start) / 1e6)
    overhead = [cli_ms[doc] - statistics.median(v)
                for doc, v in roots.items() if doc in cli_ms]
    accounted = [sum(sp.end - sp.start for sp in t.spans
                     if sp.parent is None) / 1e9 for _, t, _ in traced_runs]
    remainder_ms = statistics.median(
        (wall - acc) * 1000 for (wall, _, _), acc in zip(traced_runs,
                                                         accounted))

    metrics = {
        "cli.startup_ms": (statistics.median(startup_ms), "ms"),
        "cli.overhead_ms": (statistics.median(overhead), "ms"),
        "codec.parse.calls": (calls("codec.parse"), "count"),
        "codec.parse.self_ms": (self_ms("codec.parse"), "ms"),
        "codec.parse.mb_per_s": (per_s("codec.parse", "bytes", MB), "MB/s"),
        "codec.parse.raised": (passes[0].get("codec.parse", _NONE)
                               ["raised"], "count"),
        "codec.parse.alloc_peak_mb": (alloc_mb("codec.parse"), "MB"),
        "codec.dumps.calls": (calls("codec.dumps"), "count"),
        "codec.dumps.self_ms": (self_ms("codec.dumps"), "ms"),
        "codec.dumps.mb_per_s": (per_s("codec.dumps", "bytes", MB), "MB/s"),
        "validation.validate_structure.self_ms":
            (self_ms("validation.validate_structure"), "ms"),
        "validation.validate_consistency.self_ms":
            (self_ms("validation.validate_consistency"), "ms"),
        "extensions.validate_extended.self_ms":
            (self_ms("extensions.validate_extended"), "ms"),
        "validation.findings.error": (findings("error"), "count"),
        "validation.findings.warning": (findings("warning"), "count"),
        "geomops.quantize.self_ms": (self_ms("geomops.quantize"), "ms"),
        "geomops.quantize.vertices_per_s":
            (per_s("geomops.quantize", "vertices"), "1/s"),
        "geomops.quantize.alloc_peak_mb": (alloc_mb("geomops.quantize"),
                                           "MB"),
        "geomops.dequantize.self_ms": (self_ms("geomops.dequantize"), "ms"),
        "geomops.dedupe_vertices.self_ms":
            (self_ms("geomops.dedupe_vertices"), "ms"),
        "geomops.dedupe_vertices.vertices_removed":
            (count("geomops.dedupe_vertices", "vertices_removed"), "count"),
        "ops.subset.self_ms": (self_ms("ops.subset"), "ms"),
        "ops.subset.objects_out": (count("ops.subset", "objects_out"),
                                   "count"),
        "ops.subset.alloc_peak_mb": (alloc_mb("ops.subset"), "MB"),
        "ops.refresh_metadata.self_ms": (self_ms("ops.refresh_metadata"),
                                         "ms"),
        "ops.partition_grid.self_ms": (self_ms("ops.partition_grid"), "ms"),
        "ops.partition_grid.parts": (count("ops.partition_grid", "parts"),
                                     "count"),
        "ops.partition_grid.alloc_peak_mb": (alloc_mb("ops.partition_grid"),
                                             "MB"),
        "ops.merge.calls": (calls("ops.merge"), "count"),
        "ops.merge.self_ms": (self_ms("ops.merge"), "ms"),
        "ops.merge.alloc_peak_mb": (alloc_mb("ops.merge"), "MB"),
        "gml.import_citygml.self_ms": (self_ms("gml.import_citygml"), "ms"),
        "gml.import_citygml.mb_per_s":
            (per_s("gml.import_citygml", "bytes", MB), "MB/s"),
        "gml.import_citygml.objects_out":
            (count("gml.import_citygml", "objects_out"), "count"),
        "gml.import_citygml.alloc_peak_mb":
            (alloc_mb("gml.import_citygml"), "MB"),
        "synth.make_scene.self_ms": (self_ms("synth.make_scene", synth),
                                     "ms"),
        "synth.scene_to_model.self_ms":
            (self_ms("synth.scene_to_model", synth), "ms"),
        "synth.scene_to_citygml.self_ms":
            (self_ms("synth.scene_to_citygml", synth), "ms"),
        "trace.overhead_ratio": (statistics.median(w for w, _, _ in
                                                   traced_runs)
                                 / statistics.median(plain_walls), "ratio"),
        "trace.remainder_ms": (remainder_ms, "ms"),
    }

    name = workload.name
    wall_ms = statistics.median(w for w, _, _ in traced_runs) * 1000
    emit(f"{name} replay: {len(units)} inputs, {len(traced_runs)} traced "
         f"passes, median pass {wall_ms:.1f} ms")
    emit(f"{name} self time by span (median per pass; share of pass wall):")
    for span_name in sorted({k for a in passes for k in a},
                            key=lambda k: -self_ms(k)):
        ms = self_ms(span_name)
        emit(f"  {span_name:34s} {ms:10.2f} ms {100 * ms / wall_ms:6.2f}%"
             f"  calls {calls(span_name):g}")
    emit(f"  {'(outside any span)':34s} {remainder_ms:10.2f} ms "
         f"{100 * remainder_ms / wall_ms:6.2f}%")
    raised = traced_runs[0][2]
    if raised:
        emit(f"{name} replay raised on {len(raised)} inputs: "
             + ", ".join(f"{uid} ({exc})" for uid, exc in raised))
    for key, (value, unit) in metrics.items():
        emit(f"{name} {key} {value:.6g} {unit}")
    report_failures(name, workload, invs, emit)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fp:
        for phase, spans in [("setup", setup_tracers[0].spans),
                             ("replay", traced_runs[0][1].spans),
                             ("alloc", alloc_tracer.spans)]:
            for sp in spans:
                fp.write(json.dumps({"phase": phase, **sp.to_json()}) + "\n")

    result = outcome(workload, invs)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (the smoke test uses "
                             "small values)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    # Measure the toolkit with no extensions, here and in the children.
    os.environ.pop("CJTK_EXTENSIONS", None)
    try:
        require_tree()
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale)

    def emit(line):
        print(line, flush=True)

    emit("# env " + json.dumps({
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace}))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            trace_file = ROOT / ".bench_out" / \
                f"trace_{args.workload}_{args.seed}.jsonl"
            result = traced(workload, args.seed, args.seconds, work, emit,
                            trace_file)
            emit(f"# spans written to {trace_file.relative_to(ROOT)}")
        else:
            result = timed(workload, args.seed, args.seconds, work, emit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:        # another run's directory is still there
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
