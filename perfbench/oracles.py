"""Reference checks for the benchmark's outputs, computed from the scene.

Every expectation here is derived from the ``synth.Scene`` that generated
the input (its boxes, ids and attributes), never from another cjtk output.
Outputs are read with the standard ``json`` module, not with ``cjtk.codec``,
so a codec defect cannot hide itself.  Each check returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cjtk import synth

# Centroids closer than this (metres) to a bbox or grid edge may land on
# either side once quantized; bbox edges are moved off them, grid cells
# accept both neighbours.
EDGE_MARGIN = 0.01


def geometry_boxes(scene) -> dict:
    """id -> Box for every object that carries geometry (parts, or the
    building itself when it has none)."""
    out = {}
    for box in scene.boxes:
        if box.parts:
            for part in box.parts:
                out[part.bid] = part
        else:
            out[box.bid] = box
    return out


def expected_objects(scene) -> dict:
    """id -> CityObject type for the whole scene."""
    out = {}
    for box in scene.boxes:
        out[box.bid] = "Building"
        for part in box.parts:
            out[part.bid] = "BuildingPart"
    return out


def _xy_range(boxes):
    x0 = min(b.x for b in boxes)
    y0 = min(b.y for b in boxes)
    x1 = max(b.x + b.w for b in boxes)
    y1 = max(b.y + b.d for b in boxes)
    return x0, y0, x1, y1


def centroids(scene) -> dict:
    """id -> (x, y) centroid of the object's extent, descendants included."""
    out = {}
    for box in scene.boxes:
        members = box.parts or [box]
        x0, y0, x1, y1 = _xy_range(members)
        out[box.bid] = ((x0 + x1) / 2, (y0 + y1) / 2)
        for part in box.parts:
            px0, py0, px1, py1 = _xy_range([part])
            out[part.bid] = ((px0 + px1) / 2, (py0 + py1) / 2)
    return out


def scene_extent(scene):
    return _xy_range(list(geometry_boxes(scene).values()))


# -- subset --bbox -----------------------------------------------------------


def half_tile_bbox(scene) -> list[float]:
    """The western half of the tile, edges nudged off every centroid."""
    x0, y0, x1, y1 = scene_extent(scene)
    cents = centroids(scene).values()
    xs = [c[0] for c in cents]
    ys = [c[1] for c in cents]
    return [_clear(x0 - 1.0, xs, -1), _clear(y0 - 1.0, ys, -1),
            _clear((x0 + x1) / 2, xs, +1), _clear(y1 + 1.0, ys, +1)]


def _clear(edge: float, values, direction: int) -> float:
    while any(abs(v - edge) < EDGE_MARGIN for v in values):
        edge += direction * EDGE_MARGIN
    return edge


def expected_subset(scene, bbox) -> set[str]:
    """Objects whose own centroid is inside bbox, plus their children."""
    cents = centroids(scene)
    chosen = {oid for oid, (x, y) in cents.items()
              if bbox[0] <= x <= bbox[2] and bbox[1] <= y <= bbox[3]}
    for box in scene.boxes:
        if box.bid in chosen:
            chosen.update(p.bid for p in box.parts)
    return chosen


# -- partition --grid --------------------------------------------------------


def expected_cells(scene, nx: int, ny: int) -> dict:
    """building id -> set of acceptable (row, col) cells."""
    x0, y0, x1, y1 = scene_extent(scene)
    cents = centroids(scene)
    out = {}
    for box in scene.boxes:
        cx, cy = cents[box.bid]
        cols = _cells(cx - x0, x1 - x0, nx)
        rows = _cells(cy - y0, y1 - y0, ny)
        out[box.bid] = {(r, c) for r in rows for c in cols}
    return out


def _cells(offset: float, span: float, n: int) -> set[int]:
    if span <= 0:
        return {0}
    t = offset / span * n
    k = round(t)
    if abs(t - k) * span / n < EDGE_MARGIN:
        candidates = {k - 1, k}
    else:
        candidates = {math.ceil(t) - 1}
    return {min(max(c, 0), n - 1) for c in candidates}


# -- exact half-quantum bound ------------------------------------------------


def half_quantum_problem(doc: dict, scene, digits: int = 3):
    """Every stored corner decodes within half a quantum of the scene float.

    Decoding is exact: stored * 10^-digits + translate, with translate taken
    at its binary float value, compared in ``Fraction`` arithmetic.  The
    corner of each boundary reference is found through the shared face
    order of ``synth.box_faces``.
    """
    tr = doc.get("transform")
    if tr is None:
        return "output carries no transform"
    quantum = Fraction(1, 10 ** digits)
    if any(s != float(quantum) for s in tr["scale"]):
        return f"scale {tr['scale']} is not 10^-{digits}"
    shift = [Fraction(t) for t in tr["translate"]]
    bound = quantum / 2
    verts = doc["vertices"]
    boxes = geometry_boxes(scene)
    for oid, obj in doc["CityObjects"].items():
        geoms = obj.get("geometry", [])
        if oid not in boxes:
            if geoms:
                return f"{oid} has geometry but the scene gives it none"
            continue
        if len(geoms) != 1 or geoms[0].get("type") != "Solid":
            return f"{oid} should carry exactly one Solid"
        faces = synth.box_faces(boxes[oid])
        shell = geoms[0]["boundaries"][0]
        if len(shell) != len(faces):
            return f"{oid} shell has {len(shell)} faces, expected 6"
        for face, ring in zip(faces, shell):
            if len(ring) != 1 or len(ring[0]) != len(face):
                return f"{oid} face ring shape differs from a cuboid"
            for corner, idx in zip(face, ring[0]):
                stored = verts[idx]
                for axis in range(3):
                    decoded = stored[axis] * quantum + shift[axis]
                    if abs(decoded - Fraction(corner[axis])) > bound:
                        return (f"{oid} vertex {idx} axis {axis} is more "
                                f"than half a quantum off")
    return None


def objects_problem(doc: dict, expected: dict):
    """The output's (id, type) pairs equal ``expected``."""
    got = {oid: obj.get("type") for oid, obj in doc["CityObjects"].items()}
    if got == expected:
        return None
    missing = sorted(set(expected) - set(got))[:3]
    extra = sorted(set(got) - set(expected))[:3]
    retyped = sorted(k for k in set(got) & set(expected)
                     if got[k] != expected[k])[:3]
    return (f"objects differ: missing {missing}, unexpected {extra}, "
            f"retyped {retyped}")


def gml_attributes(box) -> dict:
    """The attributes CityGML can carry: scalars plus measuredHeight.

    ``synth.scene_to_citygml`` writes strings, ints and floats as generic
    attributes and measuredHeight as a measure; nested records (the rich
    payload's address and source) have no CityGML spelling here.
    """
    return {k: v for k, v in box.attributes.items()
            if k == "measuredHeight"
            or (isinstance(v, (str, int, float)) and not isinstance(v, bool))}


def attributes_problem(doc: dict, scene):
    want = {}
    for box in scene.boxes:
        want[box.bid] = gml_attributes(box)
        for part in box.parts:
            want[part.bid] = gml_attributes(part)
    for oid, obj in doc["CityObjects"].items():
        if obj.get("attributes", {}) != want.get(oid, {}):
            return f"{oid} attributes differ from the scene"
    return None
