"""Layered validation: structural rules, referential consistency and
extensions.

Structure answers "is each piece well-formed on its own".  It reports the
problems of ``codec.shape_problems``, the rules the codec raises at the
syntax stage for documents; only a model built in memory can show them
here, and a parsed document reuses the codec's shape pass instead of
running it again (``parse_and_validate``).  On a model without them it
adds its own rules: known object and geometry types, a lod on every
geometry, rings with at least three distinct corners, 16-number
transformation matrices, template indices that exist, an EPSG reference
system, a well-shaped transform and extent, and standard semantic surface
types (warnings).

Consistency answers "do the pieces agree with each other": parents and
children listing one another, semantic values mirroring the shape of the
boundaries they annotate, no duplicate vertices (warnings), and, in the
vertex pool and the template bank alike, every boundary index inside the
pool and no unreferenced vertices (warnings).

Extensions answer "is every "+" item declared and shaped as declared"
(`validate_extended`).  This module owns the layer; ``cjtk.extensions``
owns the extension files, and a validation given none never loads it.

`validate` composes the layers, the last only when a list of extensions
is supplied.  `validate_text` adds the syntax layer in front, so a
report always begins at the first stage that fails: syntax errors suppress
structure findings, structure errors suppress consistency findings, and so
on.  Each finding carries its stage, a path, a code, and a severity;
reports are sorted by (path, code).
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import filterfalse, islice
from operator import getitem

from .codec import parse, shape_problems
from .errors import ERROR, WARNING, CjtkError, Finding, reporters
from .model import (COBJECT_TYPES, GEOMETRY_DEPTH, SECOND_LEVEL_TYPES,
                    SEMANTIC_SURFACE_TYPES, CityModel, Geometry,
                    boundary_indices, depth_of, flatten, indices_of,
                    is_extent, is_finite_number, is_matrix, is_scale, walk)

_EPSG_RE = re.compile(r"^EPSG:\d+$")
ENV_VAR = "CJTK_EXTENSIONS"  # names extensions.discover's search path
_BATCH = 64  # geometries whose indices _check_pool gathers at once


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def validate_structure(model: CityModel) -> list[Finding]:
    out = sorted(Finding(path, code, ERROR, message, "structure")
                 for path, code, message in shape_problems(model))
    return out or _structure_rules(model)


def _structure_rules(model: CityModel) -> list[Finding]:
    """The structure findings of a model that breaks no shape rule."""
    out: list[Finding] = []
    err, warn = reporters(out, "structure")
    for oid, co in model.city_objects.items():
        base = f"CityObjects/{oid}"
        if not isinstance(co.type, str) or (co.type not in COBJECT_TYPES
                                            and not co.type.startswith("+")):
            err(f"{base}/type", "UNKNOWN_COTYPE",
                f"{co.type!r} is not a known city object type")
        if co.extent is not None and not is_extent(co.extent):
            err(f"{base}/geographicalExtent", "INVALID_EXTENT",
                "extent must be six finite numbers with min <= max per axis")
        for gi, geom in enumerate(co.geometry):
            _check_geometry(model, geom, f"{base}/geometry/{gi}", err, warn)

    if model.transform is not None:
        tr = model.transform
        if not is_scale(tr.scale) or len(tr.translate) != 3 \
                or not all(map(is_finite_number, tr.translate)):
            err("transform", "BAD_TRANSFORM",
                "transform needs 3 positive scales and 3 finite translations")

    crs = (model.metadata or {}).get("referenceSystem")
    if crs is not None and (not isinstance(crs, str) or not _EPSG_RE.match(crs)):
        err("metadata/referenceSystem", "INVALID_CRS",
            f"{crs!r} is not of the form EPSG:<code>")

    extent = (model.metadata or {}).get("geographicalExtent")
    if extent is not None and not is_extent(extent):
        err("metadata/geographicalExtent", "INVALID_EXTENT",
            "extent must be [minx,miny,minz,maxx,maxy,maxz] with "
            "min <= max per axis")
    out.sort()
    return out


def _check_geometry(model: CityModel, geom: Geometry, base: str, err, warn):
    if geom.is_instance():
        if model.placed_template(geom) is None:
            n = len(model.templates.templates) if model.templates else 0
            err(f"{base}/template", "TEMPLATE_INDEX_OUT_OF_RANGE",
                f"template {geom.template!r} not in 0..{n - 1}")
        if not is_matrix(geom.transformation_matrix):
            err(f"{base}/transformationMatrix", "BAD_MATRIX",
                "transformationMatrix must hold 16 finite numbers in "
                "row-major order")
        return

    if not isinstance(geom.type, str) or geom.type not in GEOMETRY_DEPTH:
        err(f"{base}/type", "UNKNOWN_COTYPE",
            f"{geom.type!r} is not a geometry kind")
        return
    if geom.lod is None:
        err(f"{base}/lod", "MISSING_REQUIRED_MEMBER",
            "every geometry carries a numeric lod")
    # Rings lie one level above the indices; walked only where one fails.
    depth = GEOMETRY_DEPTH[geom.type]
    if depth >= 3 and any(map(_ring_problem,
                              flatten([geom.boundaries], depth - 1))):
        for at, ring, left in walk(geom.boundaries, depth - 1):
            problem = not left and _ring_problem(ring)
            if problem:
                err(f"{base}/boundaries/{'/'.join(map(str, at))}",
                    "BAD_GEOMETRY_SHAPE", problem)
    if geom.semantics is not None:
        for si, surf in enumerate(geom.semantics.surfaces):
            stype = surf.get("type")
            if (isinstance(stype, str) and stype not in SEMANTIC_SURFACE_TYPES
                    and not stype.startswith("+")):
                warn(f"{base}/semantics/surfaces/{si}", "UNKNOWN_SEMANTIC_TYPE",
                     f"{stype!r} is not a standard semantic surface type")


def _ring_problem(ring) -> str | None:
    """What is wrong with one ring of vertex indices, or None."""
    if len(ring) < 3:
        return "a ring needs at least 3 vertex indices"
    if ring[0] == ring[-1]:
        return ("rings are implicitly closed; the first vertex must not be "
                "repeated at the end")
    return None


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def validate_consistency(model: CityModel) -> list[Finding]:
    out: list[Finding] = []
    err, warn = reporters(out, "consistency")

    ids = model.city_objects.keys()

    # 1. parent/child links agree in both directions.
    for oid, co in model.city_objects.items():
        for child in co.children:
            if child not in ids:
                err(f"CityObjects/{oid}/children", "PARENT_CHILD_MISMATCH",
                    f"child {child!r} does not exist")
            elif oid not in model.city_objects[child].parents:
                err(f"CityObjects/{oid}/children", "PARENT_CHILD_MISMATCH",
                    f"{child!r} does not list {oid!r} among its parents")
        for parent in co.parents:
            if parent not in ids:
                err(f"CityObjects/{oid}/parents", "PARENT_CHILD_MISMATCH",
                    f"parent {parent!r} does not exist")
            elif oid not in model.city_objects[parent].children:
                err(f"CityObjects/{oid}/parents", "PARENT_CHILD_MISMATCH",
                    f"{parent!r} does not list {oid!r} among its children")
        if co.type in SECOND_LEVEL_TYPES and not co.parents:
            warn(f"CityObjects/{oid}/parents", "MISSING_PARENT",
                 f"{co.type} normally belongs to a parent object")

    # 2. semantic values mirror the boundaries they annotate.
    for oid, gi, geom in model.iter_geometries():
        sem, depth = geom.semantics, depth_of(geom) or 0
        problem = depth >= 3 and sem is not None and sem.values is not None \
            and _semantics_problem(geom.boundaries, sem.values, depth - 2,
                                   len(sem.surfaces))
        if problem:
            err(f"CityObjects/{oid}/geometry/{gi}/semantics",
                "SEMANTICS_SHAPE_MISMATCH", problem)

    # 3. duplicate vertices (warnings).
    seen: dict[tuple, int] = {}
    for vi, v in enumerate(model.vertices):
        key = tuple(v)
        if key in seen:
            warn(f"vertices/{vi}", "DUPLICATE_VERTEX",
                 f"same coordinates as vertex {seen[key]}")
        else:
            seen[key] = vi
    del seen  # a tuple per vertex, not needed by the index pass

    # 4. every boundary index addresses an existing vertex, and every
    # vertex is addressed (warnings), in the model pool and the bank.
    _check_pool(len(model.vertices), "vertices", "vertex", "geometry",
                "CityObjects/{}/geometry/{}", model.iter_geometries(),
                err, warn)
    if model.templates:
        bank = model.templates
        _check_pool(len(bank.vertices), "geometry-templates/vertices-templates",
                    "template vertex", "template",
                    "geometry-templates/templates/{}",
                    enumerate(bank.templates), err, warn)

    out.sort()
    return out


def _check_pool(size: int, pool_path: str, vertex: str, user: str,
                path: str, geometries, err, warn) -> None:
    """Findings for a pool of ``size`` rows indexed by ``geometries``,
    tuples of what fills in ``path`` and a geometry: each geometry's first
    index outside the pool, and each row no geometry indexes.  Indices are
    gathered ``_BATCH`` geometries at a time; paths only for findings."""
    used: set = set()
    geometries = iter(geometries)
    while batch := list(islice(geometries, _BATCH)):
        leaves = boundary_indices((item[-1] for item in batch), size)
        if leaves is not None:
            used.update(leaves)
            continue
        for *key, geom in batch:  # name each geometry's first bad index
            indices = indices_of(geom)
            used.update(indices)
            for idx in indices:
                if type(idx) is not int or not 0 <= idx < size:
                    err(f"{path.format(*key)}/boundaries",
                        "VERTEX_INDEX_OUT_OF_RANGE",
                        f"index {idx!r} not in 0..{size - 1}")
                    break
    for vi in filterfalse(used.__contains__, range(size)):
        warn(f"{pool_path}/{vi}", "ORPHAN_VERTEX",
             f"{vertex} is referenced by no {user}")


def _semantics_problem(boundaries, values, levels: int, nsurf: int):
    """values must nest `levels` deep and mirror boundaries above ring level;
    leaves are surface indices or null."""
    for at, v, left in walk(values, levels):
        b = reduce(getitem, at, boundaries) if left else None
        if left and (not isinstance(v, list) or len(v) != len(b)):
            problem = f"expected {len(b)} entries mirroring the boundaries"
        elif left or v is None:
            continue
        elif not isinstance(v, int) or isinstance(v, bool):
            problem = "expected a surface index or null"
        elif not 0 <= v < nsurf:
            problem = f"surface index {v} not in 0..{nsurf - 1}"
        else:
            continue
        return f"values/{'/'.join(map(str, at))}: {problem}"
    return None


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


def validate_extended(model: CityModel, exts: list) -> list[Finding]:
    """Check every "+" item in the model against the loaded extensions.

    Undefined "+" names yield UNDECLARED_EXTENSION_MEMBER; values that
    contradict their schema fragment yield EXTENSION_SCHEMA_VIOLATION;
    geometry hidden outside the standard geometry member yields
    MISPLACED_GEOMETRY; extensions declared by the model but not provided
    yield MISSING_EXTENSION_SCHEMA.  Findings come back sorted.  ``exts``
    holds ``extensions.Extension``s, whose module loads only to check them.
    """
    if exts:
        from .extensions import check_fragment, combine
        combine(exts)
    out: list[Finding] = []
    err, _ = reporters(out, "extension")
    provided = {e.name for e in exts}
    for name in model.extensions or {}:
        if name not in provided:
            err(f"extensions/{name}", "MISSING_EXTENSION_SCHEMA",
                "declared extension was not provided")

    def declared_and_checked(tables, name, value, path, what, where=None,
                             undeclared_path=None):
        """The "+" item ``name`` is undeclared, or its ``value`` is checked
        against the fragment of the first of ``tables`` (name -> fragment
        maps, one per extension) that declares it."""
        frag = next((table[name] for table in tables if name in table), None)
        if frag is None:
            err(undeclared_path or path, "UNDECLARED_EXTENSION_MEMBER",
                f"no loaded extension defines {what}")
            return
        for problem in check_fragment(value, frag,
                                      name if where is None else where):
            err(path, "EXTENSION_SCHEMA_VIOLATION", problem)

    for oid, co in model.city_objects.items():
        base = f"CityObjects/{oid}"
        if co.type.startswith("+"):
            declared_and_checked(
                (e.extra_city_objects for e in exts), co.type, co.to_json(),
                base, repr(co.type), where=oid, undeclared_path=f"{base}/type")
        for name, value in co.attributes.items():
            if name.startswith("+"):
                declared_and_checked(
                    (e.extra_attributes.get(co.type, {}) for e in exts), name,
                    value, f"{base}/attributes/{name}",
                    f"{name!r} on {co.type}")
        for name, value in co.extra.items():
            if _contains_geometry(value):
                err(f"{base}/{name}", "MISPLACED_GEOMETRY",
                    "geometries may only live under the geometry member")

    for name, value in model.extra.items():
        if name.startswith("+"):
            declared_and_checked((e.extra_root_properties for e in exts),
                                 name, value, name, f"root member {name!r}")
    out.sort()
    return out


def _contains_geometry(value) -> bool:
    """True when a value smuggles geometry: a boundaries member anywhere,
    or a nested index array of at least ring size (two or more levels
    deep, three or more items below it, all of them integers).

    The walk keeps its own stack, so any depth of nesting is walked, and
    judges each list once: a list whose walk ends hands its depth, item
    count and all-integers flag on to the list holding it.
    """
    stack = [(iter([value]), None)]  # (children, list facts or None)
    while stack:
        children, facts = stack[-1]
        for child in children:
            if facts is not None and not isinstance(child, list):
                facts[1] += 1
                facts[2] = facts[2] and type(child) is int
            if isinstance(child, dict):
                if "boundaries" in child:
                    return True
                stack.append((iter(child.values()), None))
                break
            if isinstance(child, list):
                stack.append((iter(child), [1, 0, True]))
                break
        else:
            stack.pop()
            if facts is None:
                continue
            depth, count, ints = facts
            if depth >= 2 and count >= 3 and ints:
                return True
            holder = stack[-1][1]
            if holder is not None:
                holder[0] = max(holder[0], depth + 1)
                holder[1] += count
                holder[2] = holder[2] and ints
    return False


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def validate(model: CityModel,
             extensions: list | None = None) -> list[Finding]:
    """Structure first; consistency only on structurally sound models;
    extension checks last."""
    return _after_structure(model, validate_structure(model), extensions)


def _after_structure(model: CityModel, findings: list[Finding],
                     extensions: list | None) -> list[Finding]:
    """Structure ``findings`` and the later layers they allow."""
    if not any(f.severity == ERROR for f in findings):
        findings += validate_consistency(model)
        if extensions is not None \
                and not any(f.severity == ERROR for f in findings):
            findings += validate_extended(model, extensions)
    findings.sort()
    return findings


def validate_text(text, extensions: list | None = None) -> list[Finding]:
    """Full pipeline for raw bytes/text or an open binary file (see
    ``parse_and_validate``): syntax, then the model layers."""
    return parse_and_validate(text, extensions)[1]


def parse_and_validate(text, extensions: list | None = None) \
        -> tuple[CityModel | None, list[Finding]]:
    """``validate_text`` that also returns the parsed model, or None when
    the text does not parse.  The codec has already applied the shape
    rules, so they do not run twice.  ``codec.parse`` frees an open
    file's text once ``json.loads`` returns: the layers run without it."""
    try:
        model, _ = parse(text)
    except CjtkError as exc:
        return None, [Finding(exc.path or "", exc.code, ERROR, exc.message,
                              "syntax")]
    return model, _after_structure(model, _structure_rules(model), extensions)


def errors_of(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity == ERROR]


def warnings_of(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity == WARNING]


def is_valid(findings: list[Finding]) -> bool:
    return not errors_of(findings)
