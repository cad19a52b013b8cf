"""Model-level operations: subset, merge, partition, bookkeeping.

Everything here returns new models; arguments are never mutated.  The
operations exploit the flat layout of the encoding: carving a subset or a
partition part means picking entries of the objects dictionary, rebuilding
the vertex pool with rebased indices, and pruning links — no geometry math
involved.  A result shares with its argument whatever the operation did
not change (attributes, semantics, appearance, templates, metadata
values), so callers that mutate a result in place should deep-copy it
first.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from itertools import chain
from operator import itemgetter

from . import codec
from .errors import CjtkError
from .geomops import (box_union, compact_pool, compute_extent, dequantize,
                      object_extent, quantize)
from .model import (CityModel, Geometry, TemplateBank, Transform,
                    is_finite_number, map_boundaries, map_leaves, replace)

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
        if len(bbox) != 4 or not all(map(is_finite_number, bbox)) \
                or bbox[0] > bbox[2] or bbox[1] > bbox[3]:
            raise CjtkError("INVALID_EXTENT",
                            "bbox must be [minx, miny, maxx, maxy] of finite "
                            "numbers")
        centroid = _centroids(model)
        for oid in model.city_objects:
            c = centroid(oid)
            if c is not None and bbox[0] <= c[0] <= bbox[2] \
                    and bbox[1] <= c[1] <= bbox[3]:
                selected.add(oid)

    return _carve(model, _with_descendants(model, selected))


def _centroids(model: CityModel):
    """Function giving the centroid of an object's extent plus its
    descendants'.

    Each object's own extent is computed once per returned function and
    combined with min/max, which is exact, so the centroids do not depend
    on how often an object is reached.  A transform whose scale does not
    decode raises BAD_TRANSFORM here, before any centroid.
    """
    model.check_transform()
    own = functools.cache(functools.partial(object_extent, model))

    def centroid(oid: str):
        box = box_union(map(own, _with_descendants(model, [oid])))
        if box is None:
            return None
        lo, hi = box
        return [(lo[a] + hi[a]) / 2 for a in range(3)]

    return centroid


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
    geoms = [g for _, co in kept for g in co.geometry]
    survivors, new_index = compact_pool(geoms, len(model.vertices),
                                        "vertices")
    uses_templates = any(g.is_instance() for g in geoms)
    uses_appearance = any(g.material is not None or g.texture is not None
                          for g in geoms)
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
    boundary, template and appearance reference valid, and an input whose
    template bank equals one already gathered (or all of them) adds none.
    A scale that is not a positive finite number is refused with
    BAD_TRANSFORM.  Where every input carries one transform and
    re-encoding would give back the stored integers and that transform
    (``_keeps_pool``; all the tiles of one ``partition`` of a model
    quantized at its minimum corner, for one), the stored pools are
    concatenated as they are, without decoding and re-encoding them: the
    result is the same.

    Like every operation, merge shares with its inputs what it does not
    change.  It builds the containers it extends (the objects dict, the
    vertex pool, the metadata, extensions and extra dicts) and rebuilds a
    later input's objects and geometries, whose links and indices move;
    attributes, semantics and other values are shared.
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
    shared = models[0].transform
    if shared is not None and all(m.transform == shared for m in models):
        inputs = models  # their stored pools concatenate as they are
    else:
        shared = None
        inputs = [dequantize(m) if m.transform else m for m in models]

    first = inputs[0]
    out = replace(first, city_objects=dict(first.city_objects),
                  vertices=list(first.vertices),
                  metadata=dict(first.metadata),
                  extensions=dict(first.extensions), extra=dict(first.extra))
    banks = [(first.templates, 0)]
    for nxt in inputs[1:]:
        _absorb(out, nxt, policy, banks)

    if digits and not (shared is not None
                       and _keeps_pool(out.vertices, shared, max(digits))):
        out = quantize(out, digits=max(digits), requantize=True)
    if out.metadata.get("geographicalExtent") is not None \
            or out.metadata.get("presentLoDs") is not None:
        out = refresh_metadata(out)
    return out


def _keeps_pool(pool: list, tr: Transform, digits: int) -> bool:
    """Whether re-encoding the ``pool`` that ``tr`` decodes, at 10^-digits
    with fresh minimum-corner offsets, gives back ``pool`` and ``tr``
    unchanged, so that merge can skip decoding and re-encoding it.

    It does when ``tr`` is what ``quantize`` writes (a scale of 10^-digits
    on every axis and float offsets; the reprs compare the text the writer
    gives, so an int is not a float and -0.0 is not 0.0) and the pool holds
    integer rows whose least value is 0 on every axis: the fresh offset is
    then ``tr``'s own.  Each row then re-encodes to itself while
    3 * v + |translate| * 10^digits < 2^51 on its axis, because decoding
    errs by less than a quarter quantum there.
    """
    if repr(tr.scale) != repr([1 / 10 ** digits] * 3) \
            or repr(tr.translate) != repr([0.0 + t for t in tr.translate]) \
            or not pool or not set(map(type, pool)) <= {list} \
            or not set(map(len, pool)) <= {3} \
            or not set(map(type, chain.from_iterable(pool))) <= {int}:
        return False
    return all(min(map(itemgetter(axis), pool)) == 0
               and 3 * max(map(itemgetter(axis), pool))
               + abs(offset) * 10 ** digits < 2 ** 51
               for axis, offset in enumerate(tr.translate))


def _transform_digits(tr) -> int:
    """Recover the decimal-digit count of a transform scale's finest
    axis."""
    return max(0, min(12, -round(math.log10(min(tr.checked().scale)))))


def _absorb(out: CityModel, nxt: CityModel, policy: str,
            banks: list) -> None:
    """Add nxt's objects and members to out, in place.

    Only ``merge``'s own containers in ``out`` grow; of ``nxt``, only the
    objects and geometries whose links or indices move are rebuilt.
    ``banks`` pairs each template bank in ``out`` with its first index.
    """
    voffset = len(out.vertices)
    out.vertices.extend(nxt.vertices)

    toffset = len(out.templates.templates) if out.templates else 0
    if nxt.templates is not None and nxt.templates.templates:
        known = [offset for bank, offset in [(out.templates, 0), *banks]
                 if bank == nxt.templates]
        if known:  # a bank out already holds: its indices move by its offset
            toffset = known[0]
        elif out.templates is None:
            out.templates = nxt.templates
        else:
            bank_offset = len(out.templates.vertices)
            out.templates = TemplateBank(
                templates=out.templates.templates
                + [t.remapped(lambda i: i + bank_offset)
                   for t in nxt.templates.templates],
                vertices=out.templates.vertices + nxt.templates.vertices)
        if not known:
            banks.append((nxt.templates, toffset))

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

    def relink(ids):
        return [rename.get(i, i) for i in ids]

    def shift(i):
        return i + voffset

    def moved(g: Geometry) -> Geometry:
        # A material moves only when there is an offset; a texture always
        # goes through the walk, which writes a true index as 1.
        return replace(
            g, boundaries=map_boundaries(g.boundaries, shift),
            template=g.template + toffset
            if toffset and g.is_instance() else g.template,
            material=_shift_material(g.material, moffset)
            if moffset and g.material is not None else g.material,
            texture=None if g.texture is None
            else _shift_texture(g.texture, txoffset, uvoffset))

    for oid, co in nxt.city_objects.items():
        extra = co.extra
        if "members" in extra:
            extra = {**extra, "members": relink(extra["members"])}
        out.city_objects[rename.get(oid, oid)] = replace(
            co, geometry=[moved(g) for g in co.geometry],
            parents=relink(co.parents), children=relink(co.children),
            extra=extra)

    for mine, theirs in ((out.extensions, nxt.extensions),
                         (out.metadata, nxt.metadata),
                         (out.extra, nxt.extra)):
        for key, value in (theirs or {}).items():
            mine.setdefault(key, value)


def _merge_appearance(a: dict, b: dict) -> dict:
    out = dict(a) if a else {}
    for key in ("materials", "textures", "vertices-texture"):
        if b.get(key):
            out[key] = [*out.get(key, []), *b[key]]
    for key in ("default-theme-material", "default-theme-texture"):
        if key in b:
            out.setdefault(key, b[key])
    return out


def _shift_themes(member: dict, fn, is_leaf) -> dict:
    """Copy of a material or texture member, each theme's "values" mapped
    by ``map_leaves(values, fn, is_leaf)``; the rest is shared."""
    return {theme: {**themed,
                    "values": map_leaves(themed["values"], fn, is_leaf)}
            if type(themed) is dict and "values" in themed else themed
            for theme, themed in member.items()}


def _shift_material(member: dict, offset: int) -> dict:
    def shift(x):
        return x + offset if isinstance(x, int) else x

    return {theme: {**themed, "value": shift(themed["value"])}
            if type(themed) is dict and "value" in themed else themed
            for theme, themed in _shift_themes(
                member, shift, lambda x: not isinstance(x, list)).items()}


def _shift_texture(member: dict, tex_offset: int, uv_offset: int) -> dict:
    def is_leaf(node):
        # A texture ring reads [texture index, uv index, uv index, ...].
        return not isinstance(node, list) or bool(node) and all(
            x is None or isinstance(x, int) for x in node)

    def shift_ring(ring):
        if not isinstance(ring, list):
            return ring
        head = ring[0] + tex_offset if isinstance(ring[0], int) else ring[0]
        return [head] + [x + uv_offset if isinstance(x, int) else x
                         for x in ring[1:]]

    return _shift_themes(member, shift_ring, is_leaf)


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
    none; any other error of ``compute_extent``, such as an index outside
    the pool, propagates); presentLoDs becomes a histogram of lod values
    over geometries; presentTextures/presentMaterials flag the appearance;
    the declared extension names are mirrored into the metadata.  A
    derived member with nothing to say is removed.
    """
    out = replace(model, metadata=dict(model.metadata))
    try:
        out.metadata["geographicalExtent"] = compute_extent(out)
    except CjtkError as exc:
        if exc.code != "EMPTY_MODEL":
            raise
        out.metadata.pop("geographicalExtent", None)
    lods: Counter[str] = Counter()
    for _, _, geom in out.iter_geometries():
        lod = geom.lod
        if lod is None and geom.is_instance():
            template = out.placed_template(geom)
            lod = None if template is None else template.lod
        if lod is not None:
            lods[_lod_key(lod)] += 1
    app = out.appearance or {}
    for key, value in (("presentLoDs", dict(sorted(lods.items()))),
                       ("presentTextures", bool(app.get("textures"))),
                       ("presentMaterials", bool(app.get("materials"))),
                       ("extensions", sorted(out.extensions))):
        if value:
            out.metadata[key] = value
        else:
            out.metadata.pop(key, None)
    return out


def _lod_key(lod) -> str:
    if isinstance(lod, float) and lod.is_integer():
        return str(int(lod))
    return str(lod)


class _Utf8Size:
    """A text sink that keeps only the UTF-8 size of what it is given."""

    def __init__(self):
        self.size = 0

    def write(self, piece: str) -> None:
        self.size += len(piece.encode("utf-8"))


def stats(model: CityModel) -> dict:
    """Counts and sizes for reporting."""
    per_type = Counter(co.type for co in model.city_objects.values())
    per_kind = Counter(g.type for _, _, g in model.iter_geometries())
    minified = _Utf8Size()
    codec.dump(model, minified)
    return {
        "cityObjects": len(model.city_objects),
        "byType": dict(sorted(per_type.items())),
        "byGeometryKind": dict(sorted(per_kind.items())),
        "vertices": len(model.vertices),
        "templates": len(model.templates.templates) if model.templates else 0,
        "quantized": model.transform is not None,
        "minifiedBytes": minified.size,
    }
