"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``), runs one unit of
work through the real CLI (``run_unit``: one subprocess per invocation),
judges each invocation against an oracle computed from the scene
(``check``), and replays the same unit in-process through the public
functions the CLI stages call, in the same order (``replay``).

Input sizes sit one per log-uniform stratum, and which inputs carry
building parts or rich attributes follows the size rank, so every seed
gives the same mix of small and large inputs; the seed draws the contents
(positions, dimensions, attribute values, defect sites).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from cjtk import codec, extensions, geomops, gml, ops, synth, validation

import defects
import oracles

DIGITS = 3
GRID = (4, 4)


@dataclass
class Unit:
    uid: str
    kind: str
    path: Path
    scene: object
    bbox: list | None = None


@dataclass
class Invocation:
    doc: str
    kind: str
    argv: list
    in_bytes: int
    unit: Unit
    stdout: Path
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0
    probe_ms: float = 0.0
    rss_mb: float = 0.0
    exit: int = -1
    problem: str | None = None


def stratified_sizes(n: int, lo: float, hi: float) -> list[int]:
    """The middle of each of n log-uniform strata of [lo, hi]."""
    return [max(2, round(lo * (hi / lo) ** ((i + 0.5) / n)))
            for i in range(n)]


def flags(n: int, every: int) -> list[bool]:
    """On for alternate runs of ``every`` strata, by size rank.

    Tied to the stratum rather than drawn, so a seed cannot make the
    largest inputs all rich (or all plain) and shift the work mix.
    """
    return [(i // every) % 2 == 1 for i in range(n)]


def read_input(path) -> str:
    """What the CLI does with its INPUT argument."""
    return Path(path).read_text(encoding="utf-8")


def _scene(rng: random.Random, buildings: int, clusters: int,
           parts: bool, rich: bool, part_every: int = 4):
    origin = (80000.0 + rng.uniform(0, 10000), 440000.0 + rng.uniform(0, 10000))
    return synth.make_scene(seed=rng.randrange(2 ** 32), buildings=buildings,
                            clusters=clusters,
                            part_every=part_every if parts else 0,
                            rich_attributes=rich, origin=origin)


def _write(path: Path, data) -> None:
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)


def _load(path: Path) -> dict:
    return json.loads(path.read_bytes())


class Workload:
    name = ""
    units = 0          # inputs per pass at scale 1
    sizes = (0, 0)     # buildings per input at scale 1
    # doc_tail_ms percentile: the highest of 50/75/90/95/99 that leaves at
    # least ten invocations beyond it in a 22 s run of the toolkit as it was
    # when this benchmark was written (2 cores, Python 3.11), fixed so later
    # runs compare like with like.
    tail_level = 75

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def sized(self):
        lo, hi = self.sizes
        return stratified_sizes(self.units, lo * self.scale, hi * self.scale)

    def hostile(self, kind: str) -> bool:
        return False

    def setup(self, seed: int, inputs: Path) -> list[Unit]:
        raise NotImplementedError

    def run_unit(self, unit: Unit, cli, out: Path) -> list[Invocation]:
        raise NotImplementedError

    def check(self, inv: Invocation):
        raise NotImplementedError

    def replay(self, unit: Unit, t, out: Path) -> None:
        raise NotImplementedError


def _extensions():
    # Every invocation loads the extensions CJTK_EXTENSIONS names (none).
    return list(extensions.discover())


def _save(t, model, target: Path) -> None:
    with t.span("cli.save"):
        target.write_text(codec.dumps(model, pretty=False), encoding="utf-8")


class Ingest(Workload):
    """Clean-and-cut tiles: validate, compress, dedupe, subset, metadata."""

    name = "ingest"
    units = 10
    sizes = (50, 400)

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        sizes = self.sized()
        parts, rich = flags(len(sizes), 2), flags(len(sizes), 1)
        units = []
        for i, n in enumerate(sizes):
            scene = _scene(rng, n, 1 + i % 2, parts[i], rich[i])
            path = inputs / f"tile{i:02d}.json"
            _write(path, codec.dumps(synth.scene_to_model(scene)))
            units.append(Unit(f"tile{i:02d}", "tile", path, scene,
                              bbox=oracles.half_tile_bbox(scene)))
        rng.shuffle(units)
        return units

    def argv(self, unit, target):
        return [str(unit.path), "validate",
                "compress", "--digits", str(DIGITS), "dedupe",
                "subset", "--bbox", *map(repr, unit.bbox),
                "metadata", "save", str(target)]

    def run_unit(self, unit, cli, out):
        target = out / f"{unit.uid}.out.json"
        return [cli(unit.uid, unit.kind, self.argv(unit, target), unit,
                    [unit.path], out, outputs=[target])]

    def check(self, inv):
        if inv.exit != 0:
            return f"exit {inv.exit}, expected 0"
        doc = _load(inv.outputs[0])
        scene = inv.unit.scene
        keep = oracles.expected_subset(scene, inv.unit.bbox)
        every = oracles.expected_objects(scene)
        return (oracles.objects_problem(doc, {k: every[k] for k in keep})
                or oracles.half_quantum_problem(doc, scene, DIGITS))

    def replay(self, unit, t, out):
        with t.document(unit.uid):
            text = read_input(unit.path)
            exts = _extensions()
            with t.span("cli.validate") as sp:
                findings = validation.validate_text(text, exts)
                # The CLI formats each finding for printing; so does this.
                lines = [f"{f.severity}: [{f.code}] {f.path or '<root>'}"
                         for f in findings]
                count_findings(sp, findings)
            with t.span("cli.compress"):
                model, _ = codec.parse(text)
                model = geomops.quantize(model, digits=DIGITS,
                                         requantize=True)
            with t.span("cli.dedupe"):
                model = geomops.dedupe_vertices(model, tolerance=0.0)
            with t.span("cli.subset"):
                model = ops.subset(model, ids=None, types=None,
                                   bbox=list(unit.bbox))
            with t.span("cli.metadata"):
                model = ops.refresh_metadata(model)
            _save(t, model, out / f"{unit.uid}.out.json")


class SplitMerge(Workload):
    """Tiling round trip: compress + partition a city, merge the parts."""

    name = "split-merge"
    units = 4
    sizes = (50, 170)

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        sizes = self.sized()
        rich = flags(len(sizes), 1)
        units = []
        for i, n in enumerate(sizes):
            scene = _scene(rng, n, 8, True, rich[i], part_every=5)
            path = inputs / f"city{i}.json"
            _write(path, codec.dumps(synth.scene_to_model(scene)))
            units.append(Unit(f"city{i}", "city", path, scene))
        rng.shuffle(units)
        return units

    def run_unit(self, unit, cli, out):
        tiles = out / unit.uid
        part = cli(f"{unit.uid}/partition", "partition",
                   [str(unit.path), "compress", "--digits", str(DIGITS),
                    "partition", "--grid", f"{GRID[0]}x{GRID[1]}",
                    "--out-dir", str(tiles)],
                   unit, [unit.path], out)
        if part.exit == 0:
            part.outputs = [Path(line) for line in
                            part.stdout.read_text().splitlines() if line]
        merged = out / f"{unit.uid}.merged.json"
        argv = None
        if part.outputs:
            argv = [str(part.outputs[0])]
            for p in part.outputs[1:]:
                argv += ["merge", str(p)]
            argv += ["save", str(merged)]
        return [part, cli(f"{unit.uid}/merge", "merge", argv, unit,
                          part.outputs, out, outputs=[merged])]

    def check(self, inv):
        if inv.exit != 0:
            return f"exit {inv.exit}, expected 0"
        scene = inv.unit.scene
        every = oracles.expected_objects(scene)
        if inv.kind == "merge":
            return oracles.objects_problem(_load(inv.outputs[0]), every)
        cells = oracles.expected_cells(scene, *GRID)
        stem = inv.unit.path.stem
        seen: dict[str, str] = {}
        for path in inv.outputs:
            pid = path.stem[len(stem) + 1:]
            if not path.stem.startswith(stem + "_r") or "c" not in pid:
                return f"unexpected part file {path.name}"
            cell = tuple(int(x) for x in pid[1:].split("c"))
            doc = _load(path)
            for oid, obj in doc["CityObjects"].items():
                if oid in seen:
                    return f"{oid} is in two parts"
                seen[oid] = pid
                if obj.get("type") == "Building" \
                        and cell not in cells.get(oid, ()):
                    return f"{oid} placed in {pid}, expected " \
                           f"{sorted(cells.get(oid, ()))}"
            problem = oracles.half_quantum_problem(doc, scene, DIGITS)
            if problem:
                return f"{path.name}: {problem}"
        for box in scene.boxes:
            for p in box.parts:
                if seen.get(p.bid) != seen.get(box.bid):
                    return f"{p.bid} is not in its building's part"
        if set(seen) != set(every):
            return f"parts hold {len(seen)} objects, the city {len(every)}"
        return None

    def replay(self, unit, t, out):
        tiles = out / unit.uid
        paths = []
        with t.document(f"{unit.uid}/partition"):
            text = read_input(unit.path)
            _extensions()
            with t.span("cli.compress"):
                model, _ = codec.parse(text)
                model = geomops.quantize(model, digits=DIGITS,
                                         requantize=True)
            with t.span("cli.partition"):
                parts = ops.partition_grid(model, *GRID)
                tiles.mkdir(parents=True, exist_ok=True)
                for pid, part in parts:
                    target = tiles / f"{unit.path.stem}_{pid}.json"
                    target.write_text(codec.dumps(part), encoding="utf-8")
                    paths.append(target)
        with t.document(f"{unit.uid}/merge"):
            text = read_input(paths[0])
            _extensions()
            model = None
            for other in paths[1:]:
                with t.span("cli.merge"):
                    m, _ = codec.parse(other.read_text(encoding="utf-8"))
                    if model is None:
                        model, _ = codec.parse(text)
                    model = ops.merge([model, m], policy="error")
            if model is None:
                model, _ = codec.parse(text)
            _save(t, model, out / f"{unit.uid}.merged.json")


class ValidateGate(Workload):
    """Read-only gate: validate --json over mostly clean documents."""

    name = "validate-gate"
    units = 20
    sizes = (50, 300)
    tail_level = 90

    def hostile(self, kind):
        return defects.EXPECT[kind].hostile

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        sizes = self.sized()
        # One document per defect class on the odd strata, the rest clean:
        # the share and the sizes each class meets stay fixed across seeds.
        kinds = ["clean"] * len(sizes)
        for k, kind in enumerate(defects.DEFECTS):
            kinds[2 * k + 1] = kind
        parts, rich = flags(len(sizes), 2), flags(len(sizes), 1)
        units = []
        for i, n in enumerate(sizes):
            scene = _scene(rng, n, 1 + i % 2, parts[i], rich[i])
            text = codec.dumps(synth.scene_to_model(scene))
            if kinds[i] != "clean":
                text = defects.inject(kinds[i], json.loads(text), rng)
            path = inputs / f"doc{i:02d}.json"
            _write(path, text)
            units.append(Unit(f"doc{i:02d}", kinds[i], path, scene))
        rng.shuffle(units)
        return units

    def run_unit(self, unit, cli, out):
        return [cli(unit.uid, unit.kind,
                    [str(unit.path), "validate", "--json"],
                    unit, [unit.path], out)]

    def check(self, inv):
        return defects.judge(inv.kind, inv.exit, inv.stdout.read_bytes())

    def replay(self, unit, t, out):
        with t.document(unit.uid):
            text = read_input(unit.path)
            exts = _extensions()
            with t.span("cli.validate") as sp:
                findings = validation.validate_text(text, exts)
                lines = [json.dumps(f.to_json()) for f in findings]
                count_findings(sp, findings)


class GmlImport(Workload):
    """CityGML in, compressed CityJSON out."""

    name = "gml-import"
    units = 10
    sizes = (30, 250)

    def setup(self, seed, inputs):
        rng = random.Random(seed)
        sizes = self.sized()
        parts, rich = flags(len(sizes), 2), flags(len(sizes), 1)
        units = []
        for i, n in enumerate(sizes):
            scene = _scene(rng, n, 1 + i % 2, parts[i], rich[i])
            path = inputs / f"doc{i:02d}.gml"
            _write(path, synth.scene_to_citygml(scene))
            units.append(Unit(f"doc{i:02d}", "doc", path, scene))
        rng.shuffle(units)
        return units

    def run_unit(self, unit, cli, out):
        target = out / f"{unit.uid}.out.json"
        return [cli(unit.uid, unit.kind,
                    [str(unit.path), "import", "compress", "--digits",
                     str(DIGITS), "save", str(target)],
                    unit, [unit.path], out, outputs=[target])]

    def check(self, inv):
        if inv.exit != 0:
            return f"exit {inv.exit}, expected 0"
        doc = _load(inv.outputs[0])
        scene = inv.unit.scene
        return (oracles.objects_problem(doc, oracles.expected_objects(scene))
                or oracles.attributes_problem(doc, scene)
                or oracles.half_quantum_problem(doc, scene, DIGITS))

    def replay(self, unit, t, out):
        with t.document(unit.uid):
            text = read_input(unit.path)
            _extensions()
            with t.span("cli.import"):
                model, report = gml.import_citygml(text)
                lines = [json.dumps(r) for r in report.to_json_lines()]
            with t.span("cli.compress"):
                model = geomops.quantize(model, digits=DIGITS,
                                         requantize=True)
            _save(t, model, out / f"{unit.uid}.out.json")


def count_findings(sp, findings) -> None:
    for f in findings:
        key = f"findings.{f.severity}"
        sp.counts[key] = sp.counts.get(key, 0) + 1


WORKLOADS = {w.name: w for w in (Ingest, SplitMerge, ValidateGate, GmlImport)}
