"""Reading and writing the JSON text encoding.

The reader fails fast, with a slash-separated path from the document root,
on anything that breaks the shape of the encoding: bad JSON syntax
(including bytes that are not UTF-8, nesting deeper than the interpreter
can follow, the NaN/Infinity literals RFC 8259 excludes, and string
escapes of unpaired UTF-16 surrogates, which no UTF-8 text can hold), a
wrong or missing type tag, duplicate keys (duplicate city-object
identifiers in particular), missing required members, members that must
be objects or arrays to build a record, and a transform of finite
doubles.  It then raises the first problem of the shape rules,
``shape_problems`` (vertex rows, links, ``lod``, boundary nesting,
semantics, appearance), which live here beside the reader and which the
validator reports as findings.  Checks that need whole-model reasoning
(index ranges, family links, semantics coherence) belong to the
validator, which reports findings instead of raising.

The writer (``model_to_json``, ``dumps``, ``dump``, ``dump_all``) lives
in ``cjtk._writer``; the first use of one of its names here loads it
(PEP 562), so a program that only reads never compiles it.  The reports
of duplicate keys and lone surrogates, in ``cjtk._malformed``, load only
for a document that has one.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator
from itertools import islice

from .errors import CodecError, _not_a_number
from .model import (
    CityModel,
    CityObject,
    Geometry,
    Record,
    Semantics,
    TemplateBank,
    Transform,
    _all_ints,
    depth_of,
    flatten,
    is_finite_number,
    walk,
)

_REQUIRED = ("version", "CityObjects", "vertices")
_WRITER = ("model_to_json", "dumps", "dump", "dump_all")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class ParseDiagnostics(Record):
    """Non-fatal observations made while reading a document."""

    __slots__ = ("unknown_members",)

    def __init__(self, unknown_members: list | None = None):
        self.unknown_members = [] if unknown_members is None \
            else unknown_members


# -- reading ----------------------------------------------------------------


def _collecting_pairs_hook(duplicates: dict):
    """object_pairs_hook recording which dicts carried duplicate keys."""

    def hook(pairs):
        d = dict(pairs)
        if len(d) != len(pairs):
            seen: set = set()
            dups = []
            for k, _ in pairs:
                if k in seen and k not in dups:
                    dups.append(k)
                seen.add(k)
            duplicates[id(d)] = dups
        return d

    return hook


def decode(data: str | bytes) -> str:
    """Text of a document: a str as it is, bytes decoded as UTF-8
    (SYNTAX_ERROR where they are not)."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_start = data.rfind(b"\n", 0, e.start) + 1
        raise CodecError("SYNTAX_ERROR",
                         f"invalid UTF-8 at byte {e.start}: {e.reason}",
                         line=data.count(b"\n", 0, e.start) + 1,
                         column=e.start - line_start + 1) from None


def _reject_constant(name: str):
    # json calls this for the NaN, Infinity and -Infinity literals only.
    raise _not_a_number(name)


def parse(text) -> tuple[CityModel, ParseDiagnostics]:
    """Parse a document (text, UTF-8 bytes, or an open binary file, read
    whole); returns the model plus diagnostics.  The decoded text is freed
    as soon as ``json.loads`` returns, so a caller that hands over a file
    holds the tree, and then the model, without the text beside them."""
    text = decode(text.read() if hasattr(text, "read") else text)
    surrogates = _SURROGATE_ESCAPE.search(text) is not None
    duplicates: dict[int, list[str]] = {}
    try:
        root = json.loads(text, parse_constant=_reject_constant,
                          object_pairs_hook=_collecting_pairs_hook(duplicates))
    except json.JSONDecodeError as e:
        raise CodecError("SYNTAX_ERROR", e.msg, line=e.lineno, column=e.colno) from e
    except RecursionError:
        raise CodecError("SYNTAX_ERROR",
                         "arrays or objects nest too deeply") from None
    except ValueError:
        # int() refuses a literal beyond the interpreter's digit limit.
        raise CodecError("SYNTAX_ERROR",
                         "an integer literal has too many digits") from None
    del text
    if surrogates:
        from ._malformed import raise_lone_surrogates
        raise_lone_surrogates(root)
    if not isinstance(root, dict):
        raise CodecError("NOT_CITYJSON", "document root is not an object")
    if duplicates:
        from ._malformed import raise_duplicates
        raise_duplicates(root, duplicates)
    return model_from_json(root)


def loads(text: str | bytes) -> CityModel:
    return parse(text)[0]


def load(source) -> CityModel:
    """Parse from a path or an open text or binary file."""
    if hasattr(source, "read"):
        return parse(source)[0]
    with open(source, "rb") as fp:
        return parse(fp)[0]


def _require(cond: bool, code: str, message: str, path: str) -> None:
    if not cond:
        raise CodecError(code, message, path=path)


def _check_geometry_members(obj, path: str) -> None:
    _require(isinstance(obj, dict), "WRONG_MEMBER_TYPE",
             "geometry must be an object", path)
    _require("type" in obj, "MISSING_REQUIRED_MEMBER", "geometry has no type",
             f"{path}/type")
    if obj["type"] == "GeometryInstance":
        for member in ("template", "boundaries", "transformationMatrix"):
            _require(member in obj, "MISSING_REQUIRED_MEMBER",
                     f"geometry instance needs {member!r}", f"{path}/{member}")
    else:
        _require("boundaries" in obj, "MISSING_REQUIRED_MEMBER",
                 "geometry has no boundaries", f"{path}/boundaries")


def model_from_json(root: dict) -> tuple[CityModel, ParseDiagnostics]:
    diag = ParseDiagnostics()
    if root.get("type") != "CityJSON":
        raise CodecError("NOT_CITYJSON", f"type member is {root.get('type')!r}, "
                         "expected 'CityJSON'", path="type")
    for key in _REQUIRED:
        _require(key in root, "MISSING_REQUIRED_MEMBER",
                 f"required member {key!r} is absent", key)
    version = root["version"]
    if not isinstance(version, str) or not version.startswith("1.0"):
        raise CodecError("WRONG_MEMBER_TYPE",
                         f"version {version!r} is not a 1.0 release", path="version")
    _require(isinstance(root["CityObjects"], dict), "WRONG_MEMBER_TYPE",
             "CityObjects must be an object", "CityObjects")
    _require(isinstance(root["vertices"], list), "WRONG_MEMBER_TYPE",
             "vertices must be an array", "vertices")

    model = CityModel(version=version, vertices=root["vertices"])
    for oid, obj in root["CityObjects"].items():
        path = f"CityObjects/{oid}"
        _require(isinstance(obj, dict), "WRONG_MEMBER_TYPE",
                 "city object must be an object", path)
        _require("type" in obj, "MISSING_REQUIRED_MEMBER",
                 "city object has no type", f"{path}/type")
        _require(isinstance(obj.get("attributes", {}), dict), "WRONG_MEMBER_TYPE",
                 "attributes must be an object", f"{path}/attributes")
        geoms = obj.get("geometry", [])
        _require(isinstance(geoms, list), "WRONG_MEMBER_TYPE",
                 "geometry must be an array", f"{path}/geometry")
        for g_i, g in enumerate(geoms):
            _check_geometry_members(g, f"{path}/geometry/{g_i}")
        co = CityObject.from_json(obj)
        for g_i, g in enumerate(co.geometry):
            diag.unknown_members.extend(f"{path}/geometry/{g_i}/{k}"
                                        for k in g.extra)
            if isinstance(g.semantics, Semantics):
                diag.unknown_members.extend(
                    f"{path}/geometry/{g_i}/semantics/{k}"
                    for k in g.semantics.extra)
        diag.unknown_members.extend(f"{path}/{k}" for k in co.extra)
        model.city_objects[oid] = co

    if "transform" in root:
        t = root["transform"]
        ok = (isinstance(t, dict)
              and isinstance(t.get("scale"), list) and len(t["scale"]) == 3
              and isinstance(t.get("translate"), list) and len(t["translate"]) == 3
              and all(map(is_finite_number, t["scale"] + t["translate"])))
        _require(ok, "WRONG_MEMBER_TYPE",
                 "transform needs 3-element scale and translate", "transform")
        model.transform = Transform.from_json(t)
    if "geometry-templates" in root:
        bank = root["geometry-templates"]
        _require(isinstance(bank, dict), "WRONG_MEMBER_TYPE",
                 "geometry-templates must be an object", "geometry-templates")
        templates = bank.get("templates", [])
        if isinstance(templates, list):  # else a shape problem, raised below
            for g_i, g in enumerate(templates):
                _check_geometry_members(
                    g, f"geometry-templates/templates/{g_i}")
        model.templates = TemplateBank.from_json(bank)
    for member in ("appearance", "metadata", "extensions"):
        if member in root:
            _require(isinstance(root[member], dict), "WRONG_MEMBER_TYPE",
                     f"{member} must be an object", member)
            setattr(model, member, root[member])
    for path, code, message in shape_problems(model):
        raise CodecError(code, message, path=path)

    known = {"type", "version", "CityObjects", "vertices", "transform",
             "geometry-templates", "appearance", "metadata", "extensions"}
    model.extra = {k: v for k, v in root.items() if k not in known}
    diag.unknown_members.extend(sorted(model.extra))
    return model, diag


# -- shape rules ----------------------------------------------------------


def shape_problems(model: CityModel) -> Iterator[tuple[str, str, str]]:
    """Every (path, code, message) problem of the shape rules in ``model``,
    in document order: the codec raises the first, the validator reports
    them all.

    Vertex pools and ``templates`` are arrays; pools hold rows of three
    finite numbers.  A city object's ``parents``, ``children`` and
    ``members`` are arrays of ids.  A geometry's ``lod`` is absent or a
    finite number; an instance's boundaries hold exactly one integer
    reference point; a known kind's nest ``GEOMETRY_DEPTH[kind]`` deep over
    integers (a type that is not a string is no kind); ``semantics`` has an
    array of objects, ``surfaces``, and an array, ``values``; ``material``
    and ``texture`` are objects whose themes are objects.
    """
    yield from _pool_problems("vertices", model.vertices)
    for oid, co in model.city_objects.items():
        path = f"CityObjects/{oid}"
        for member, ids in (("parents", co.parents), ("children", co.children),
                            ("members", co.extra.get("members", []))):
            if not isinstance(ids, list) \
                    or not all(isinstance(x, str) for x in ids):
                yield (f"{path}/{member}", "WRONG_MEMBER_TYPE",
                       f"{member} must be an array of ids")
        for gi, geom in enumerate(co.geometry):
            yield from _geometry_problems(f"{path}/geometry/{gi}", geom)
    if model.templates is not None:
        templates = model.templates.templates
        if not isinstance(templates, list):
            yield ("geometry-templates/templates", "WRONG_MEMBER_TYPE",
                   "templates must be an array")
        else:
            for ti, geom in enumerate(templates):
                yield from _geometry_problems(
                    f"geometry-templates/templates/{ti}", geom)
        yield from _pool_problems("geometry-templates/vertices-templates",
                                  model.templates.vertices)


def _geometry_problems(path: str, geom: Geometry):
    if geom.lod is not None and not is_finite_number(geom.lod):
        yield f"{path}/lod", "WRONG_MEMBER_TYPE", "lod must be a number"
    b, where, depth = geom.boundaries, f"{path}/boundaries", depth_of(geom)
    bad = [] if depth is None else _boundary_problem(b, depth, where)
    if not bad and geom.is_instance() and len(b) != 1:
        bad = [(where, "BAD_GEOMETRY_SHAPE",
                "instance boundaries hold exactly one reference point")]
    yield from bad
    sem = geom.semantics
    if sem is not None:
        if not (isinstance(sem, Semantics) and isinstance(sem.surfaces, list)
                and isinstance(sem.values, list)):
            yield (f"{path}/semantics", "WRONG_MEMBER_TYPE",
                   "semantics needs surfaces and values arrays")
        else:
            for i, surface in enumerate(sem.surfaces):
                if not isinstance(surface, dict):
                    yield (f"{path}/semantics/surfaces/{i}",
                           "WRONG_MEMBER_TYPE",
                           "semantic surface must be an object")
    for member, value in (("material", geom.material),
                          ("texture", geom.texture)):
        if value is not None and not isinstance(value, dict):
            yield (f"{path}/{member}", "WRONG_MEMBER_TYPE",
                   f"{member} must be an object")
        elif value is not None:
            yield from ((f"{path}/{member}/{theme}", "WRONG_MEMBER_TYPE",
                         f"{member} theme must be an object")
                        for theme, themed in value.items()
                        if not isinstance(themed, dict))


def _pool_problems(path: str, pool):
    if not isinstance(pool, list):
        return [(path, "WRONG_MEMBER_TYPE",
                 f"{path.rpartition('/')[2]} must be an array")]
    if _finite_rows(pool):
        return []
    return islice(((f"{path}/{i}", "BAD_GEOMETRY_SHAPE",
                    "vertex must hold exactly three finite numbers")
                   for i, v in enumerate(pool) if not isinstance(v, list)
                   or len(v) != 3 or not all(map(is_finite_number, v))), 1)


def _finite_rows(rows) -> bool:
    coords = flatten(rows, 1)
    if coords is None or not set(map(len, rows)) <= {3} \
            or not set(map(type, coords)) <= {int, float}:  # no bool
        return False
    try:
        return all(map(math.isfinite, coords))
    except OverflowError:  # an int beyond a double's range
        return False


def _boundary_problem(boundaries, depth: int, path: str) -> list:
    """The first node, if any, where ``boundaries`` do not nest ``depth``
    list levels deep over integers."""
    leaves = flatten([boundaries], depth)
    if leaves is not None and _all_ints(leaves):
        return []
    for at, node, left in walk(boundaries, depth):
        if left and not isinstance(node, list):
            message = f"expected {left} more array level(s)"
        elif not left and type(node) is not int:
            message = f"vertex reference {node!r} is not an integer"
        else:
            continue
        return [(path + "".join(f"/{i}" for i in at), "BAD_GEOMETRY_SHAPE",
                 message)]
    return []


def __getattr__(name: str):
    """A name of the writer.  The first such access loads ``cjtk._writer``
    and binds all its names here, so later ones are plain lookups and code
    that replaces ``codec.dumps`` (a tracer) finds it in this module."""
    if name not in _WRITER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _writer
    globals().update((writer, getattr(_writer, writer)) for writer in _WRITER)
    return globals()[name]
