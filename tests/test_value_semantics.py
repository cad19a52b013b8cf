"""Operations never mutate their argument, even though results share
structure with it.

Every public operation runs on every committed corpus model, and then on
each output of every operation; the serialized input (and output) must not
change by a single byte.  Every operation, ``merge`` included, shares with
its arguments what it did not change.
"""

import pytest

from cjtk import codec, extensions, geomops, ops
from cjtk.errors import CjtkError

from conftest import committed_corpus


def _lower_left_quarter(model):
    try:
        ext = geomops.compute_extent(model)
    except CjtkError:
        return [0.0, 0.0, 1.0, 1.0]
    return [ext[0], ext[1], (ext[0] + ext[3]) / 2, (ext[1] + ext[4]) / 2]


def _instantiate_all(model):
    for oid, gi, geom in list(model.iter_geometries()):
        if geom.is_instance():
            geomops.instantiate_template(model, oid, gi)
    return None


OPS = {
    "quantize": lambda m: geomops.quantize(m, digits=3, requantize=True),
    "dequantize": geomops.dequantize,
    "dedupe_vertices": geomops.dedupe_vertices,
    "dedupe_vertices_tolerance":
        lambda m: geomops.dedupe_vertices(m, tolerance=0.5),
    "remove_orphan_vertices": geomops.remove_orphan_vertices,
    "subset_ids": lambda m: ops.subset(m, ids=list(m.city_objects)[:1]),
    "subset_types": lambda m: ops.subset(m, types=["Building", "Bridge"]),
    "subset_bbox": lambda m: ops.subset(m, bbox=_lower_left_quarter(m)),
    "partition_grid": lambda m: ops.partition_grid(m, 2, 2),
    "partition_by_type": ops.partition_by_type,
    "partition_random": lambda m: ops.partition_random(m, 3, seed=7),
    "merge_error": lambda m: ops.merge([m]),
    "merge_suffix": lambda m: ops.merge([m, m], policy="suffix"),
    "refresh_metadata": ops.refresh_metadata,
    "update_texture_paths":
        lambda m: ops.update_texture_paths(m, "textures/new"),
    "strip_extensions": extensions.strip_extensions,
    "instantiate_template": _instantiate_all,
}


def _models_out(result) -> list:
    """The models an operation produced, whatever shape it returns."""
    if result is None:
        return []
    if isinstance(result, list):
        return [part for _, part in result]
    return [result]


def _run(op, model) -> list:
    try:
        return _models_out(OPS[op](model))
    except CjtkError:
        return []


@pytest.fixture(scope="module")
def corpus_models():
    return [(path.name, codec.parse(path.read_text(encoding="utf-8"))[0])
            for path in committed_corpus()]


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_leaves_input_untouched(op, corpus_models):
    for name, model in corpus_models:
        before = codec.dumps(model)
        _run(op, model)
        assert codec.dumps(model) == before, f"{op} mutated {name}"


@pytest.mark.parametrize("op", sorted(OPS))
def test_ops_on_output_leave_output_and_input_untouched(op, corpus_models):
    for name, model in corpus_models:
        before = codec.dumps(model)
        for out in _run(op, model):
            snapshot = codec.dumps(out)
            for second in sorted(OPS):
                _run(second, out)
                assert codec.dumps(out) == snapshot, \
                    f"{second} mutated the output of {op} on {name}"
        assert codec.dumps(model) == before, \
            f"ops on the output of {op} mutated {name}"


def test_merge_shares_what_it_does_not_change():
    path = next(p for p in committed_corpus()
                if p.name.startswith("06-semantic-solid"))
    a, b = (codec.parse(path.read_bytes())[0] for _ in range(2))
    out = ops.merge([a, b], policy="suffix")
    for oid, co in a.city_objects.items():
        assert out.city_objects[oid] is co
    later = list(out.city_objects.values())[len(a.city_objects):]
    semantics = 0
    for co, moved in zip(b.city_objects.values(), later, strict=True):
        assert moved.attributes is co.attributes
        for g, h in zip(co.geometry, moved.geometry, strict=True):
            assert h.semantics is g.semantics
            semantics += g.semantics is not None
    assert semantics


@pytest.mark.parametrize("digits", [None, 3])
def test_chained_partition_merge_leaves_parts_untouched(digits,
                                                        corpus_models):
    for name, model in corpus_models:
        try:
            if digits is not None:
                model = geomops.quantize(model, digits=digits,
                                         requantize=True)
            parts = [part for _, part in ops.partition_grid(model, 2, 2)]
        except CjtkError:
            continue
        before = [codec.dumps(part) for part in parts]
        out = ops.merge(parts[:2])
        for part in parts[2:]:
            out = ops.merge([out, part])
        assert [codec.dumps(part) for part in parts] == before, \
            f"chained merge mutated a part of {name}"
