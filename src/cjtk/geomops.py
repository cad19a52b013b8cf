"""Coordinate-level operations: quantization, vertex hygiene, templates,
extents.

All functions return a new model and never mutate their argument, so a
model value can be shared freely across threads.  The result shares with
the argument every part the function did not change: quantizing rebuilds
the vertex pool and transform only, vertex hygiene rebuilds the pool and
the geometries' index arrays, and an expanded instance shares the
template's semantics.  Nothing here deep-copies; callers that mutate a
result in place should ``copy.deepcopy`` it first.  The package's one
pool compaction (``compact_pool``, over ``model.boundary_indices`` and
``model.indices_of``) and one extent reader (``object_extent``) live
here.

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

import math

from .errors import CjtkError
from .model import (CityModel, Geometry, TemplateBank, Transform,
                    boundary_indices, indices_of, is_finite_number, is_matrix,
                    map_boundaries, replace)

_MAX_QUANTUM = 2 ** 53
_BANK = "geometry-templates/vertices-templates"


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
    """New model with float vertices and no transform; BAD_TRANSFORM
    when the scale is not three positive finite numbers."""
    if model.transform is None:
        raise CjtkError("NO_TRANSFORM", "model carries no transform",
                        "transform")
    sx, sy, sz = model.transform.checked().scale
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
    if not is_finite_number(tolerance) or tolerance < 0:
        raise CjtkError("BAD_TRANSFORM",
                        f"tolerance {tolerance!r} is not a finite number >= 0")
    verts = model.vertices
    new_index: dict[int, int] = {}
    survivors: list[int] = []

    if tolerance == 0:
        first: dict[tuple, int] = {}
        for vi, v in enumerate(verts):
            key = tuple(v)
            if key not in first:
                first[key] = len(survivors)
                survivors.append(vi)
            new_index[vi] = first[key]
    else:
        # Any cell >= tolerance finds the same neighbours; the floor keeps
        # v / cell finite when the tolerance is tiny next to the coordinates.
        cell = max(tolerance, max((abs(c) for v in verts for c in v),
                                  default=0) / 2 ** 52)
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
                new_index[vi] = len(survivors)
                survivors.append(vi)
            else:
                new_index[vi] = new_index[target]

    geometries = [g for _, _, g in model.iter_geometries()]
    if len(survivors) == len(verts) \
            and boundary_indices(geometries, len(verts)) is not None:
        return replace(model)  # nothing merged: every index maps to itself
    _pool_indices(geometries, len(verts), "vertices")  # names a bad one
    return _rebase(model, survivors, new_index.__getitem__)


def remove_orphan_vertices(model: CityModel) -> CityModel:
    """New model without vertices (or template vertices) that no boundary
    references."""
    out = _rebase(model, *compact_pool(
        (g for _, _, g in model.iter_geometries()), len(model.vertices),
        "vertices"))
    if out.templates:
        bank = out.templates
        survivors, new_index = compact_pool(bank.templates,
                                            len(bank.vertices), _BANK)
        out.templates = TemplateBank(
            templates=[t.remapped(new_index) for t in bank.templates],
            vertices=[bank.vertices[old] for old in survivors])
    return out


def compact_pool(geometries, size: int, path: str):
    """(survivors, new_index): the pool rows the geometries index, in pool
    order, and the function mapping each to its index among them.

    An index outside the pool of ``size`` rows, negative or not an integer
    included, raises VERTEX_INDEX_OUT_OF_RANGE at ``path``.
    """
    survivors = sorted(set(_pool_indices(geometries, size, path)))
    return survivors, {old: new for new, old in enumerate(survivors)}.__getitem__


def _pool_indices(geometries, size: int, path: str) -> list:
    """Every vertex index of the geometries; VERTEX_INDEX_OUT_OF_RANGE at
    ``path`` naming the first, in document order, that is not an int in
    0..size-1."""
    geometries = list(geometries)  # read one by one where not flattened
    used = boundary_indices(geometries, size)
    if used is None:
        used = [i for g in geometries for i in indices_of(g)]
        bad = [i for i in used if type(i) is not int or not 0 <= i < size]
        if bad:
            raise CjtkError("VERTEX_INDEX_OUT_OF_RANGE",
                            f"index {bad[0]!r} outside pool of {size}", path)
    return used


def _rebase(model: CityModel, survivors: list[int], new_index) -> CityModel:
    """New model keeping the ``survivors`` rows, in that order, as its pool.

    Every geometry is rebuilt with its indices passed through ``new_index``;
    everything else is shared with ``model``.
    """
    objects = {oid: replace(co, geometry=[g.remapped(new_index)
                                          for g in co.geometry])
               for oid, co in model.city_objects.items()}
    return replace(model, city_objects=objects,
                   vertices=[model.vertices[old] for old in survivors])


# ---------------------------------------------------------------------------
# geometry templates
# ---------------------------------------------------------------------------


def instance_world_vertices(model: CityModel, geom: Geometry,
                            path: str = "geometry") -> list[list[float]]:
    """Real-world vertices of one template instance.

    Each template vertex p is mapped to the first three components of
    R + M.[p 1], where M is the row-major 4x4 matrix and R the decoded
    reference point; the fourth component is dropped, not divided by.
    Rows follow ``compact_pool`` over the template's boundaries.
    """
    template = model.placed_template(geom)
    if template is None:
        n = len(model.templates.templates) if model.templates else 0
        raise CjtkError("TEMPLATE_INDEX_OUT_OF_RANGE",
                        f"template {geom.template!r} not in 0..{n - 1}", path)
    m = geom.transformation_matrix
    if not is_matrix(m):
        raise CjtkError("BAD_MATRIX",
                        "transformationMatrix must hold 16 finite numbers",
                        path)
    ref = model.real_vertex(geom.boundaries[0])
    bank = model.templates.vertices
    used, _ = compact_pool([template], len(bank), _BANK)
    out = []
    for idx in used:
        x, y, z = bank[idx]
        w = [m[0] * x + m[1] * y + m[2] * z + m[3],
             m[4] * x + m[5] * y + m[6] * z + m[7],
             m[8] * x + m[9] * y + m[10] * z + m[11]]
        out.append([ref[0] + w[0], ref[1] + w[1], ref[2] + w[2]])
    return out


def instantiate_template(model: CityModel, object_id: str,
                         geom_index: int) -> tuple[Geometry, list[list[float]]]:
    """Expand one instance into an explicit geometry plus its vertex rows.

    Returns (geometry, vertices): the geometry's boundary indices address
    the returned vertex list from zero, its kind and lod come from the
    template (unless the instance has its own lod), it shares the
    template's semantics, and the vertices are real-world coordinates.
    """
    path = f"CityObjects/{object_id}/geometry/{geom_index}"
    try:
        geom = model.city_objects[object_id].geometry[geom_index]
    except (KeyError, IndexError):
        raise CjtkError("UNKNOWN_ID", f"no geometry {geom_index} on object "
                        f"{object_id!r}", path) from None
    if not geom.is_instance():
        raise CjtkError("UNKNOWN_GEOMETRY_KIND",
                        "geometry is not a template instance", path)
    model.check_transform()
    verts = instance_world_vertices(model, geom, path)
    template = model.placed_template(geom)
    _, new_index = compact_pool([template], len(model.templates.vertices),
                                _BANK)
    expanded = Geometry(
        type=template.type,
        lod=geom.lod if geom.lod is not None else template.lod,
        boundaries=map_boundaries(template.boundaries, new_index),
        semantics=template.semantics,
    )
    return expanded, verts


# ---------------------------------------------------------------------------
# extent
# ---------------------------------------------------------------------------


def object_extent(model: CityModel, oid: str):
    """(lo, hi) corners over one object's own geometries (an instance's
    over its placed template vertices), or None when they use no vertex."""
    boxes = []
    for gi, geom in enumerate(model.city_objects[oid].geometry):
        if geom.is_instance():
            rows = instance_world_vertices(
                model, geom, f"CityObjects/{oid}/geometry/{gi}")
        else:
            indices = indices_of(geom)
            # Anything but ints stays a list, for real_vertex to name in order.
            if set(map(type, indices)) <= {int}:
                indices = set(indices)
            rows = [model.real_vertex(i) for i in indices]
        if rows:
            columns = list(zip(*rows))
            boxes.append((list(map(min, columns)), list(map(max, columns))))
    return box_union(boxes)


def box_union(boxes):
    """(lo, hi) corners around every (lo, hi) box that is not None, or
    None when there is none."""
    boxes = [box for box in boxes if box is not None]
    if not boxes:
        return None
    return ([min(lo[a] for lo, _ in boxes) for a in range(3)],
            [max(hi[a] for _, hi in boxes) for a in range(3)])


def compute_extent(model: CityModel) -> list[float]:
    """[minx, miny, minz, maxx, maxy, maxz] over every referenced vertex.

    The union of every ``object_extent``, so vertices no geometry
    references do not count, and an empty model (or one whose geometries
    reference nothing) has no extent.  BAD_TRANSFORM where the scale is
    not three positive finite numbers.
    """
    model.check_transform()
    box = box_union(object_extent(model, oid) for oid in model.city_objects)
    if box is None:
        raise CjtkError("EMPTY_MODEL", "no geometry references any vertex")
    return box[0] + box[1]
