"""Model-level operations: subset, merge, partition, bookkeeping.

Everything here returns new models; arguments are never mutated.  The
operations exploit the flat layout of the encoding: carving a subset or a
partition part means picking entries of the objects dictionary, rebuilding
the vertex pool with rebased indices, and pruning links — no geometry math
involved.  A result shares with its argument whatever the operation did
not change (attributes, semantics, appearance, templates, metadata
values), so callers that mutate a result in place should
``copy.deepcopy`` it first.  ``merge`` is the exception: its result is
independent of its inputs.
"""

from __future__ import annotations

import copy
import functools
import math
import random
from dataclasses import replace

from . import codec
from .errors import CjtkError
from .geomops import (compute_extent, dequantize, instance_world_vertices,
                      quantize)
from .model import CityModel, iter_boundary_indices, map_boundaries

# ---------------------------------------------------------------------------
# subset
# ---------------------------------------------------------------------------


def subset(model: CityModel, ids: list[str] | None = None,
           types: list[str] | None = None,
           bbox: list[float] | None = None) -> CityModel:
    """New model containing the selected objects and all their descendants.

    The three filters are independent and their selections are united:
    explicit identifiers (unknown ones raise UNKNOWN_ID), object types,
    and a [minx, miny, maxx, maxy] rectangle that keeps objects whose
    extent centroid falls inside it (edges inclusive).  Children always
    travel with a selected parent; a parent left out of the selection is
    dropped from its children's parents lists.
    """
    selected: set[str] = set()
    if ids:
        for oid in ids:
            if oid not in model.city_objects:
                raise CjtkError("UNKNOWN_ID", f"no city object {oid!r}",
                                f"CityObjects/{oid}")
            selected.add(oid)
    if types:
        wanted = set(types)
        selected.update(oid for oid, co in model.city_objects.items()
                        if co.type in wanted)
    if bbox is not None:
        if len(bbox) != 4 or bbox[0] > bbox[2] or bbox[1] > bbox[3]:
            raise CjtkError("INVALID_EXTENT",
                            "bbox must be [minx, miny, maxx, maxy]")
        centroid = _centroids(model)
        for oid in model.city_objects:
            c = centroid(oid)
            if c is not None and bbox[0] <= c[0] <= bbox[2] \
                    and bbox[1] <= c[1] <= bbox[3]:
                selected.add(oid)

    # Children travel with their parents.
    queue = list(selected)
    while queue:
        oid = queue.pop()
        for child in model.city_objects[oid].children:
            if child in model.city_objects and child not in selected:
                selected.add(child)
                queue.append(child)

    return _carve(model, selected)


def _centroids(model: CityModel):
    """Function giving the centroid of an object's extent plus its
    descendants'.

    Each object's own extent is computed once per returned function and
    combined with min/max, which is exact, so the centroids do not depend
    on how often an object is reached.
    """
    own = functools.cache(functools.partial(_own_extent, model))

    def centroid(oid: str):
        boxes = [box for box in map(own, _with_descendants(model, [oid]))
                 if box is not None]
        if not boxes:
            return None
        return [(min(lo[a] for lo, _ in boxes)
                 + max(hi[a] for _, hi in boxes)) / 2 for a in range(3)]

    return centroid


def _own_extent(model: CityModel, oid: str):
    """(lo, hi) corners over one object's own geometries, or None."""
    lo = [math.inf] * 3
    hi = [-math.inf] * 3
    seen = False
    for gi, geom in enumerate(model.city_objects[oid].geometry):
        if geom.is_instance():
            rows = instance_world_vertices(
                model, geom, f"CityObjects/{oid}/geometry/{gi}")
        else:
            rows = [model.real_vertex(i)
                    for i in set(iter_boundary_indices(geom.boundaries))]
        for v in rows:
            seen = True
            for a in range(3):
                lo[a] = min(lo[a], v[a])
                hi[a] = max(hi[a], v[a])
    return (lo, hi) if seen else None


def _with_descendants(model: CityModel, roots) -> set[str]:
    out: set[str] = set()
    queue = [r for r in roots if r in model.city_objects]
    while queue:
        oid = queue.pop()
        if oid in out:
            continue
        out.add(oid)
        queue.extend(c for c in model.city_objects[oid].children
                     if c in model.city_objects)
    return out


def _carve(model: CityModel, keep: set[str]) -> CityModel:
    """New model holding exactly the ``keep`` objects, pool rebased from 0.

    Only the kept objects and their geometries are rebuilt; everything
    else is shared with ``model``.
    """
    kept = [(oid, co) for oid, co in model.city_objects.items()
            if oid in keep]
    used: set[int] = set()
    uses_templates = False
    uses_appearance = False
    for _, co in kept:
        for geom in co.geometry:
            used.update(iter_boundary_indices(geom.boundaries))
            if geom.is_instance():
                uses_templates = True
            if geom.material is not None or geom.texture is not None:
                uses_appearance = True
    survivors = sorted(used)
    new_index = {old: new for new, old in enumerate(survivors)}.__getitem__
    out = replace(
        model,
        city_objects={oid: co.linked_within(
            keep, geometry=[g.remapped(new_index) for g in co.geometry])
            for oid, co in kept},
        vertices=[model.vertices[old] for old in survivors])
    if not uses_templates:
        out.templates = None
    if not uses_appearance:
        out.appearance = None if out.appearance is None else {}
    if not out.vertices:
        out.transform = None
    if out.metadata.get("geographicalExtent") is not None \
            or out.metadata.get("presentLoDs") is not None:
        out = refresh_metadata(out)
    return out


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def merge(models: list[CityModel], policy: str = "error") -> CityModel:
    """Combine several models into one.

    All inputs must agree on the reference system (or all lack one);
    otherwise CRS_MISMATCH.  Identifier clashes follow ``policy``: "error"
    raises DUPLICATE_ID, "suffix" renames later arrivals by appending
    "-<n>" (n = 2, 3, ... picking the first free name), rewriting the
    model-internal links to match.  If any input is quantized, all are
    decoded and the result is re-encoded at the finest input scale with
    fresh minimum-corner offsets; per-model index offsets keep every
    boundary, template and appearance reference valid.
    """
    if policy not in ("error", "suffix"):
        raise CjtkError("UNKNOWN_ID", f"unknown id policy {policy!r}")
    if not models:
        raise CjtkError("EMPTY_MODEL", "nothing to merge")

    crss = {(m.metadata or {}).get("referenceSystem") for m in models}
    if len(crss) > 1:
        raise CjtkError("CRS_MISMATCH",
                        "inputs use different reference systems: "
                        f"{sorted(str(c) for c in crss)}",
                        "metadata/referenceSystem")

    digits = [_transform_digits(m.transform) for m in models if m.transform]
    inputs = [_detached(m) for m in models]

    out = inputs[0]
    for nxt in inputs[1:]:
        _absorb(out, nxt, policy)

    if digits:
        out = quantize(out, digits=max(digits))
    if out.metadata.get("geographicalExtent") is not None \
            or out.metadata.get("presentLoDs") is not None:
        out = refresh_metadata(out)
    return out


def _detached(model: CityModel) -> CityModel:
    """A copy sharing nothing with ``model``, with real-valued vertices,
    for ``_absorb`` to rewrite in place."""
    if model.transform is None:
        return copy.deepcopy(model)
    model = dequantize(model)
    # The decoded pool is already fresh; the memo entry keeps deepcopy from
    # copying it a second time.
    return copy.deepcopy(model, {id(model.vertices): model.vertices})


def _transform_digits(tr) -> int:
    """Recover the decimal-digit count encoded in a transform scale."""
    try:
        exp = -round(math.log10(tr.scale[0]))
    except ValueError:
        exp = 0
    return max(0, min(12, exp))


def _absorb(out: CityModel, nxt: CityModel, policy: str) -> None:
    voffset = len(out.vertices)
    out.vertices.extend(nxt.vertices)

    toffset = len(out.templates.templates) if out.templates else 0
    if nxt.templates is not None and nxt.templates.templates:
        out.templates = _merge_templates(out.templates, nxt.templates)

    moffset = len((out.appearance or {}).get("materials", []))
    txoffset = len((out.appearance or {}).get("textures", []))
    uvoffset = len((out.appearance or {}).get("vertices-texture", []))
    if nxt.appearance:
        out.appearance = _merge_appearance(out.appearance, nxt.appearance)

    rename: dict[str, str] = {}
    for oid in nxt.city_objects:
        if oid in out.city_objects:
            if policy == "error":
                raise CjtkError("DUPLICATE_ID",
                                f"both inputs define {oid!r}",
                                f"CityObjects/{oid}")
            n = 2
            while f"{oid}-{n}" in out.city_objects \
                    or f"{oid}-{n}" in nxt.city_objects:
                n += 1
            rename[oid] = f"{oid}-{n}"

    for oid, co in nxt.city_objects.items():
        co.parents = [rename.get(p, p) for p in co.parents]
        co.children = [rename.get(c, c) for c in co.children]
        if "members" in co.extra:
            co.extra["members"] = [rename.get(m, m)
                                   for m in co.extra["members"]]
        for geom in co.geometry:
            geom.boundaries = map_boundaries(geom.boundaries,
                                             lambda i: i + voffset)
            if geom.is_instance() and toffset:
                geom.template += toffset
            if geom.material is not None and moffset:
                geom.material = _shift_material(geom.material, moffset)
            if geom.texture is not None:
                geom.texture = _shift_texture(geom.texture, txoffset, uvoffset)
        out.city_objects[rename.get(oid, oid)] = co

    for name, decl in (nxt.extensions or {}).items():
        out.extensions.setdefault(name, decl)
    for key, value in nxt.metadata.items():
        out.metadata.setdefault(key, value)
    for key, value in nxt.extra.items():
        out.extra.setdefault(key, value)


def _merge_templates(a, b):
    if a is None:
        return b
    voff = len(a.vertices)
    a.vertices.extend(b.vertices)
    a.templates.extend(t.remapped(lambda i: i + voff) for t in b.templates)
    return a


def _merge_appearance(a: dict, b: dict) -> dict:
    out = dict(a) if a else {}
    for key in ("materials", "textures", "vertices-texture"):
        if b.get(key):
            out[key] = list(out.get(key, [])) + list(b[key])
    for key in ("default-theme-material", "default-theme-texture"):
        if key in b:
            out.setdefault(key, b[key])
    return out


def _shift_material(member: dict, offset: int) -> dict:
    out = {}
    for theme, themed in member.items():
        themed = copy.deepcopy(themed)
        if isinstance(themed.get("value"), int):
            themed["value"] += offset
        if "values" in themed:
            themed["values"] = _shift_leaves(themed["values"],
                                             lambda x: x + offset)
        out[theme] = themed
    return out


def _shift_texture(member: dict, tex_offset: int, uv_offset: int) -> dict:
    def shift_ring(ring):
        # A texture ring reads [texture index, uv index, uv index, ...].
        if not ring:
            return ring
        head = ring[0] + tex_offset if isinstance(ring[0], int) else ring[0]
        return [head] + [x + uv_offset if isinstance(x, int) else x
                         for x in ring[1:]]

    def walk(node):
        if isinstance(node, list) and node \
                and all(x is None or isinstance(x, int) for x in node):
            return shift_ring(node)
        if isinstance(node, list):
            return [walk(x) for x in node]
        return node

    out = {}
    for theme, themed in member.items():
        themed = copy.deepcopy(themed)
        if "values" in themed:
            themed["values"] = walk(themed["values"])
        out[theme] = themed
    return out


def _shift_leaves(node, fn):
    if isinstance(node, list):
        return [_shift_leaves(x, fn) for x in node]
    if isinstance(node, int):
        return fn(node)
    return node


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def partition_grid(model: CityModel, nx: int, ny: int) \
        -> list[tuple[str, CityModel]]:
    """Split over an nx-by-ny grid laid on the model extent.

    Each first-level object (with its descendants) goes to the cell holding
    its extent centroid; a centroid exactly on an internal edge belongs to
    the lower-index cell.  Rows count from the minimum y.  Part identifiers
    read "r<row>c<col>"; empty cells yield no part.
    """
    if nx < 1 or ny < 1:
        raise CjtkError("EMPTY_MODEL", "grid needs at least one cell per axis")
    ext = compute_extent(model)
    spans = (ext[3] - ext[0], ext[4] - ext[1])

    centroid = _centroids(model)

    def place(oid: str) -> str:
        c = centroid(oid)
        if c is None:
            return "r0c0"
        col = _cell(c[0] - ext[0], spans[0], nx)
        row = _cell(c[1] - ext[1], spans[1], ny)
        return f"r{row}c{col}"

    return _partition(model, place)


def _cell(offset: float, span: float, n: int) -> int:
    """Cell index along one axis; exact edges resolve to the lower cell."""
    if span <= 0:
        return 0
    k = math.ceil(offset / span * n) - 1
    return min(max(k, 0), n - 1)


def partition_by_type(model: CityModel) -> list[tuple[str, CityModel]]:
    """One part per first-level object type, named after the type."""
    return _partition(model, lambda oid: model.city_objects[oid].type)


def partition_random(model: CityModel, k: int, seed: int = 0) \
        -> list[tuple[str, CityModel]]:
    """k parts filled by a seeded uniform draw per first-level object.

    Parts are named by zero-padded ordinals wide enough for k-1; empty
    parts are omitted.
    """
    if k < 1:
        raise CjtkError("EMPTY_MODEL", "k must be at least 1")
    rng = random.Random(seed)
    width = len(str(k - 1))
    return _partition(model,
                      lambda oid: str(rng.randrange(k)).zfill(width),
                      ordered=True)


def _partition(model: CityModel, place, ordered: bool = False) \
        -> list[tuple[str, CityModel]]:
    """Assign each first-level object to a part named by ``place``.

    Groups do not get their own placement: a group follows the part of its
    first member (so grouping never splits), falling back to ``place`` when
    its member list resolves to nothing.  With ``ordered``, placement runs
    in sorted identifier order so seeded strategies are reproducible.
    """
    roots = [oid for oid, co in model.city_objects.items() if not co.parents]
    if not roots:
        raise CjtkError("EMPTY_MODEL", "nothing to partition")
    if ordered:
        roots = sorted(roots)
    groups = [oid for oid in roots
              if model.city_objects[oid].type == "CityObjectGroup"]
    root_of: dict[str, str] = {}
    for root in roots:
        for member in _with_descendants(model, [root]):
            root_of.setdefault(member, root)
    part_of: dict[str, str] = {}
    for oid in roots:
        if oid not in groups:
            part_of[oid] = place(oid)
    for oid in groups:
        members = model.city_objects[oid].extra.get("members", [])
        first = next((root_of[m] for m in members
                      if root_of.get(m) in part_of), None)
        part_of[oid] = part_of[first] if first is not None else place(oid)

    assignment: dict[str, list[str]] = {}
    for oid, pid in part_of.items():
        assignment.setdefault(pid, []).append(oid)
    return [(pid, _carve(model, _with_descendants(model, members)))
            for pid, members in sorted(assignment.items())]


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def update_texture_paths(model: CityModel, base: str) -> CityModel:
    """New model whose texture image paths are base + filename component."""
    appearance = model.appearance
    if appearance and "textures" in appearance:
        textures = []
        for tex in appearance["textures"]:
            image = tex.get("image")
            if isinstance(image, str):
                filename = image.replace("\\", "/").rsplit("/", 1)[-1]
                sep = "/" if base and not base.endswith("/") else ""
                tex = {**tex, "image": base + sep + filename}
            textures.append(tex)
        appearance = {**appearance, "textures": textures}
    return replace(model, appearance=appearance)


def refresh_metadata(model: CityModel) -> CityModel:
    """New model with derived metadata recomputed.

    geographicalExtent is set from the geometry (or removed when there is
    none); presentLoDs becomes a histogram of lod values over geometries;
    presentTextures/presentMaterials flag the appearance; the declared
    extension names are mirrored into the metadata.
    """
    out = replace(model, metadata=dict(model.metadata))
    try:
        out.metadata["geographicalExtent"] = compute_extent(out)
    except CjtkError:
        out.metadata.pop("geographicalExtent", None)
    lods: dict[str, int] = {}
    for _, _, geom in out.iter_geometries():
        lod = geom.lod
        if lod is None and geom.is_instance() and out.templates \
                and isinstance(geom.template, int) \
                and 0 <= geom.template < len(out.templates.templates):
            lod = out.templates.templates[geom.template].lod
        if lod is None:
            continue
        key = _lod_key(lod)
        lods[key] = lods.get(key, 0) + 1
    if lods:
        out.metadata["presentLoDs"] = dict(sorted(lods.items()))
    else:
        out.metadata.pop("presentLoDs", None)
    app = out.appearance or {}
    if app.get("textures"):
        out.metadata["presentTextures"] = True
    else:
        out.metadata.pop("presentTextures", None)
    if app.get("materials"):
        out.metadata["presentMaterials"] = True
    else:
        out.metadata.pop("presentMaterials", None)
    if out.extensions:
        out.metadata["extensions"] = sorted(out.extensions)
    else:
        out.metadata.pop("extensions", None)
    return out


def _lod_key(lod) -> str:
    if isinstance(lod, float) and lod.is_integer():
        return str(int(lod))
    return str(lod)


def stats(model: CityModel) -> dict:
    """Counts and sizes for reporting."""
    per_type: dict[str, int] = {}
    per_kind: dict[str, int] = {}
    for co in model.city_objects.values():
        per_type[co.type] = per_type.get(co.type, 0) + 1
        for geom in co.geometry:
            kind = "GeometryInstance" if geom.is_instance() else geom.type
            per_kind[kind] = per_kind.get(kind, 0) + 1
    return {
        "cityObjects": len(model.city_objects),
        "byType": dict(sorted(per_type.items())),
        "byGeometryKind": dict(sorted(per_kind.items())),
        "vertices": len(model.vertices),
        "templates": len(model.templates.templates) if model.templates else 0,
        "quantized": model.transform is not None,
        "minifiedBytes": len(codec.dumps(model).encode("utf-8")),
    }
