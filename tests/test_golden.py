"""Byte identity of op outputs, pinned by sha256 digests.

Every op below runs on the committed corpus and on three ``synth`` scenes,
each raw and quantized at 3 and at 1 digits; the merges run on one input
and its variants, on partition parts, and on corpus neighbours.  Each
output's minified encoding (or the code of the ``CjtkError`` the op
raised) is hashed and compared with ``data/golden_digests.json``.  A
refactor that is meant to leave outputs as they are passes unchanged; a
change that alters outputs on purpose regenerates the file and says why
in its description::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

from cjtk import codec, extensions, geomops, ops, synth
from cjtk.errors import CjtkError

from conftest import committed_corpus

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"


def _inputs():
    """(name, model) of every base input, in a fixed order."""
    out = [(path.name.split(".")[0],
            codec.parse(path.read_bytes())[0])
           for path in committed_corpus()]
    for seed in (1, 2, 3):
        scene = synth.make_scene(seed=seed, buildings=12, clusters=2,
                                 part_every=4)
        out.append((f"synth-{seed}", synth.scene_to_model(scene)))
    return out


def _variants(model):
    """The model raw and quantized at 3 and at 1 digits."""
    out = {"raw": model}
    for digits in (3, 1):
        try:
            out[f"d{digits}"] = geomops.quantize(model, digits=digits,
                                                 requantize=True)
        except CjtkError:
            pass
    return out


def _lower_left_quarter(model):
    ext = geomops.compute_extent(model)
    return [ext[0], ext[1], (ext[0] + ext[3]) / 2, (ext[1] + ext[4]) / 2]


def _first_type(model):
    return [model.city_objects[min(model.city_objects)].type] \
        if model.city_objects else ["Building"]


def _instances(model):
    rows = []
    for oid, gi, geom in list(model.iter_geometries()):
        if geom.is_instance():
            expanded, verts = geomops.instantiate_template(model, oid, gi)
            rows.append([oid, gi, expanded.to_json(), verts])
    return rows


def _chained(parts):
    out = parts[0]
    for part in parts[1:]:
        out = ops.merge([out, part])
    return out


OPS = {
    "extent": geomops.compute_extent,
    "instances": _instances,
    "metadata": ops.refresh_metadata,
    "dedupe0": geomops.dedupe_vertices,
    "dedupe1": lambda m: geomops.dedupe_vertices(m, tolerance=1),
    "clean": geomops.remove_orphan_vertices,
    "strip": extensions.strip_extensions,
    "subset-type": lambda m: ops.subset(m, types=_first_type(m)),
    "subset-bbox": lambda m: ops.subset(m, bbox=_lower_left_quarter(m)),
    "grid2": lambda m: ops.partition_grid(m, 2, 2),
    "grid3": lambda m: ops.partition_grid(m, 3, 3),
    "by-type": ops.partition_by_type,
    "random": lambda m: ops.partition_random(m, 3, seed=7),
    "merge-self": lambda m: ops.merge([m]),
    "merge-twice": lambda m: ops.merge([m, m], policy="suffix"),
    "merge-3x3": lambda m: ops.merge(
        [p for _, p in ops.partition_grid(m, 3, 3)]),
    "merge-3x3-chained": lambda m: _chained(
        [p for _, p in ops.partition_grid(m, 3, 3)]),
}


def _encoded(result) -> str:
    if isinstance(result, list) and result \
            and isinstance(result[0], tuple):
        return "\n".join(f"{pid}\t{codec.dumps(part)}"
                         for pid, part in result)
    if isinstance(result, list):
        return json.dumps(result)
    return codec.dumps(result)


def _digest(op, *args) -> str:
    try:
        text = _encoded(op(*args))
    except CjtkError as exc:
        return f"!{exc.code}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    bases = _inputs()
    for name, model in bases:
        variants = _variants(model)
        for variant, m in variants.items():
            for op_name, op in OPS.items():
                out[f"{name}/{variant}/{op_name}"] = _digest(op, m)
        out[f"{name}/merge-mixed-digits"] = _digest(
            lambda: ops.merge(list(variants.values()), policy="suffix"))
    for (a_name, a), (b_name, b) in zip(bases, bases[1:]):
        out[f"{a_name}+{b_name}/merge-neighbours"] = _digest(
            lambda: ops.merge([a, b, a], policy="suffix"))
    return out


def test_op_outputs_match_the_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
