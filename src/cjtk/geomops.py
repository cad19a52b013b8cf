"""Coordinate-level operations: quantization, vertex hygiene, templates.

All functions return a new model and never mutate their argument, so a
model value can be shared freely across threads.  The result shares with
the argument every part the function did not change: quantizing rebuilds
the vertex pool and transform only, vertex hygiene rebuilds the pool and
the geometries' index arrays.  Callers that mutate a result in place
should ``copy.deepcopy`` it first.

Quantization replaces every float vertex with integer multiples of a
quantum (10^-digits), recording the quantum and a per-axis offset in the
``transform`` member; decoding is ``real = stored * scale + translate``.
Rounding is half-away-from-zero, computed in exact integer arithmetic on
the binary values of the coordinates (``float.as_integer_ratio``), so
each decoded component sits within half a quantum of the original and
requantizing an already-quantized model with the same offsets is the
identity on the stored integers.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace

from .errors import CjtkError
from .model import (CityModel, Geometry, TemplateBank, Transform,
                    iter_boundary_indices, map_boundaries)

_MAX_QUANTUM = 2 ** 53


def _quantum_multiple(value, shift: tuple[int, int], power: int) -> int:
    """(value - c/e) / 10^-digits rounded half away from zero, exactly.

    ``shift`` is the offset as an integer ratio (c, e) and ``power`` is
    10^digits.  With value = a/b the quotient is n/d with
    n = (a*e - c*b) * power and d = b*e > 0.
    """
    a, b = value.as_integer_ratio()
    c, e = shift
    n, d = (a * e - c * b) * power, b * e
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def quantize(model: CityModel, digits: int = 3,
             translate: list[float] | None = None,
             requantize: bool = False) -> CityModel:
    """New model with integer vertices and a transform of 10^-digits quanta.

    ``translate`` defaults to the per-axis minimum of the vertex pool.  A
    model that already has a transform is refused unless ``requantize`` is
    set, in which case it is decoded first.  Template vertices stay local
    and untouched: the transform applies only to the model's own pool.
    """
    if not isinstance(digits, int) or not 0 <= digits <= 12:
        raise CjtkError("BAD_TRANSFORM",
                        f"digits must be an integer in 0..12, got {digits!r}",
                        "transform")
    if model.transform is not None:
        if not requantize:
            raise CjtkError("ALREADY_QUANTIZED",
                            "model already carries a transform; pass "
                            "requantize=True to re-encode", "transform")
        model = dequantize(model)

    scale = 1 / 10 ** digits  # int / int rounds correctly
    if not model.vertices:
        return replace(model, vertices=[],
                       transform=Transform(scale=[scale] * 3,
                                           translate=[0.0, 0.0, 0.0]))

    if translate is None:
        translate = [min(v[axis] for v in model.vertices) for axis in range(3)]
    shifts = [t.as_integer_ratio() for t in translate]
    power = 10 ** digits

    pool = []
    for vi, v in enumerate(model.vertices):
        row = []
        for axis in range(3):
            q = _quantum_multiple(v[axis], shifts[axis], power)
            if abs(q) >= _MAX_QUANTUM:
                raise CjtkError("QUANTUM_OVERFLOW",
                                f"vertex {vi} needs quantum multiples beyond "
                                f"2^53; use fewer digits or another offset",
                                f"vertices/{vi}")
            row.append(q)
        pool.append(row)
    return replace(model, vertices=pool,
                   transform=Transform(scale=[scale] * 3,
                                       translate=[float(t) for t in translate]))


def dequantize(model: CityModel) -> CityModel:
    """New model with float vertices and no transform."""
    if model.transform is None:
        raise CjtkError("NO_TRANSFORM", "model carries no transform",
                        "transform")
    sx, sy, sz = model.transform.scale
    tx, ty, tz = model.transform.translate
    return replace(model, transform=None,
                   vertices=[[v[0] * sx + tx, v[1] * sy + ty, v[2] * sz + tz]
                             for v in model.vertices])


# ---------------------------------------------------------------------------
# vertex hygiene
# ---------------------------------------------------------------------------


def dedupe_vertices(model: CityModel, tolerance: float = 0.0) -> CityModel:
    """New model where vertices closer than ``tolerance`` are merged.

    Distance is Chebyshev (max per-axis difference) over the stored values,
    so on a quantized model the tolerance counts integer quanta.  Each
    vertex merges into the earliest survivor within reach; boundary indices
    are rewritten and the pool is compacted in first-appearance order.
    """
    if tolerance < 0:
        raise CjtkError("BAD_TRANSFORM", "tolerance must be >= 0")
    verts = model.vertices
    remap: dict[int, int] = {}
    survivors: list[int] = []

    if tolerance == 0:
        first: dict[tuple, int] = {}
        for vi, v in enumerate(verts):
            key = tuple(v)
            if key in first:
                remap[vi] = first[key]
            else:
                first[key] = vi
                remap[vi] = vi
                survivors.append(vi)
    else:
        cell = tolerance
        buckets: dict[tuple, list[int]] = {}
        for vi, v in enumerate(verts):
            cx, cy, cz = (math.floor(v[0] / cell), math.floor(v[1] / cell),
                          math.floor(v[2] / cell))
            target = None
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        for si in buckets.get((cx + dx, cy + dy, cz + dz), ()):
                            sv = verts[si]
                            if (abs(sv[0] - v[0]) <= tolerance
                                    and abs(sv[1] - v[1]) <= tolerance
                                    and abs(sv[2] - v[2]) <= tolerance
                                    and (target is None or si < target)):
                                target = si
            if target is None:
                buckets.setdefault((cx, cy, cz), []).append(vi)
                remap[vi] = vi
                survivors.append(vi)
            else:
                remap[vi] = target

    new_index = {old: new for new, old in enumerate(survivors)}
    return _rebase(model, survivors, lambda i: new_index[remap[i]])


def remove_orphan_vertices(model: CityModel) -> CityModel:
    """New model without vertices that no boundary references."""
    used = set()
    for _, _, geom in model.iter_geometries():
        used.update(iter_boundary_indices(geom.boundaries))
    survivors = [vi for vi in range(len(model.vertices)) if vi in used]
    new_index = {old: new for new, old in enumerate(survivors)}
    out = _rebase(model, survivors, new_index.__getitem__)
    if out.templates:
        bank = out.templates
        tused = set()
        for t in bank.templates:
            tused.update(iter_boundary_indices(t.boundaries))
        tsurv = [vi for vi in range(len(bank.vertices)) if vi in tused]
        tmap = {old: new for new, old in enumerate(tsurv)}
        out.templates = TemplateBank(
            templates=[t.remapped(tmap.__getitem__) for t in bank.templates],
            vertices=[bank.vertices[old] for old in tsurv])
    return out


def _rebase(model: CityModel, survivors: list[int], fn) -> CityModel:
    """New model keeping the ``survivors`` rows, in that order, as its pool.

    Every geometry is rebuilt with its indices passed through ``fn``;
    everything else is shared with ``model``.
    """
    objects = {oid: replace(co, geometry=[g.remapped(fn) for g in co.geometry])
               for oid, co in model.city_objects.items()}
    return replace(model, city_objects=objects,
                   vertices=[model.vertices[old] for old in survivors])


# ---------------------------------------------------------------------------
# geometry templates
# ---------------------------------------------------------------------------


def _require_instance(model: CityModel, object_id: str, geom_index: int):
    try:
        geom = model.city_objects[object_id].geometry[geom_index]
    except (KeyError, IndexError):
        raise CjtkError("UNKNOWN_ID",
                        f"no geometry {geom_index} on object {object_id!r}",
                        f"CityObjects/{object_id}/geometry/{geom_index}")
    if not geom.is_instance():
        raise CjtkError("UNKNOWN_GEOMETRY_KIND",
                        "geometry is not a template instance",
                        f"CityObjects/{object_id}/geometry/{geom_index}")
    return geom


def instance_world_vertices(model: CityModel, geom: Geometry,
                            path: str = "geometry") -> list[list[float]]:
    """Real-world vertices of one template instance.

    Each template vertex p is mapped to the first three components of
    R + M.[p 1], where M is the row-major 4x4 matrix and R the decoded
    reference point; the fourth component is dropped, not divided by.
    """
    bank = model.templates
    n = len(bank.templates) if bank else 0
    if not isinstance(geom.template, int) or not 0 <= geom.template < n:
        raise CjtkError("TEMPLATE_INDEX_OUT_OF_RANGE",
                        f"template {geom.template!r} not in 0..{n - 1}", path)
    m = geom.transformation_matrix
    if (not isinstance(m, list) or len(m) != 16
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       and math.isfinite(x) for x in m)):
        raise CjtkError("BAD_MATRIX",
                        "transformationMatrix must hold 16 finite numbers",
                        path)
    ref = model.real_vertex(geom.boundaries[0])
    template = bank.templates[geom.template]
    # One row per template vertex index the template uses, in index order,
    # so callers can remap boundaries by rank.
    out = []
    used = sorted(set(iter_boundary_indices(template.boundaries)))
    for idx in used:
        x, y, z = bank.vertices[idx]
        w = [m[0] * x + m[1] * y + m[2] * z + m[3],
             m[4] * x + m[5] * y + m[6] * z + m[7],
             m[8] * x + m[9] * y + m[10] * z + m[11]]
        out.append([ref[0] + w[0], ref[1] + w[1], ref[2] + w[2]])
    return out


def instantiate_template(model: CityModel, object_id: str,
                         geom_index: int) -> tuple[Geometry, list[list[float]]]:
    """Expand one instance into an explicit geometry plus its vertex rows.

    Returns (geometry, vertices): the geometry's boundary indices address
    the returned vertex list from zero, its kind/lod/semantics are copied
    from the template, and the vertices are real-world coordinates.
    """
    geom = _require_instance(model, object_id, geom_index)
    path = f"CityObjects/{object_id}/geometry/{geom_index}"
    verts = instance_world_vertices(model, geom, path)
    template = model.templates.templates[geom.template]
    used = sorted(set(iter_boundary_indices(template.boundaries)))
    rank = {idx: k for k, idx in enumerate(used)}
    expanded = Geometry(
        type=template.type,
        lod=geom.lod if geom.lod is not None else template.lod,
        boundaries=map_boundaries(template.boundaries, rank.__getitem__),
        semantics=copy.deepcopy(template.semantics),
    )
    return expanded, verts


# ---------------------------------------------------------------------------
# extent
# ---------------------------------------------------------------------------


def compute_extent(model: CityModel) -> list[float]:
    """[minx, miny, minz, maxx, maxy, maxz] over every referenced vertex.

    Template instances contribute their transformed template vertices;
    vertices no geometry references do not count.  An empty model (or one
    whose geometries reference nothing) has no extent.
    """
    lo = [math.inf] * 3
    hi = [-math.inf] * 3
    seen = False
    used = set()
    for oid, gi, geom in model.iter_geometries():
        if geom.is_instance():
            for v in instance_world_vertices(
                    model, geom, f"CityObjects/{oid}/geometry/{gi}"):
                seen = True
                for a in range(3):
                    lo[a] = min(lo[a], v[a])
                    hi[a] = max(hi[a], v[a])
        else:
            used.update(iter_boundary_indices(geom.boundaries))
    for idx in used:
        v = model.real_vertex(idx)
        seen = True
        for a in range(3):
            lo[a] = min(lo[a], v[a])
            hi[a] = max(hi[a], v[a])
    if not seen:
        raise CjtkError("EMPTY_MODEL", "no geometry references any vertex")
    return lo + hi
