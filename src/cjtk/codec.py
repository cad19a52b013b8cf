"""Reading and writing the JSON text encoding.

The reader fails fast, with a slash-separated path from the document root,
on anything that breaks the shape of the encoding: bad JSON syntax
(including bytes that are not UTF-8, nesting deeper than the interpreter
can follow, the NaN/Infinity literals RFC 8259 excludes, and string
escapes of unpaired UTF-16 surrogates, which no UTF-8 text can hold), a
wrong or missing type tag, duplicate keys (duplicate city-object
identifiers in particular), missing required members, members that must
be objects or arrays to build a record, and a transform of finite
doubles.  It then raises the first problem of ``model.shape_problems``
(vertex rows, links, ``lod``, boundary nesting, semantics, appearance).
Checks that need whole-model reasoning (index ranges, family links,
semantics coherence) belong to the validator, which reports findings
instead of raising.

The writer emits members in one canonical order so output is stable
across runs: type, version, metadata, extensions, transform, CityObjects,
vertices, appearance, geometry-templates, then any retained unknown
members.  Minified mode uses no whitespace; integers print without a
decimal point and reals with their shortest round-trip form.  A NaN or
infinity, which the reader refuses, is a ``SYNTAX_ERROR`` here too.

``dumps`` and ``dump`` share one piece generator, and ``dump`` writes each
piece as it comes, so writing a model holds one batch of city objects or
vertex rows in text form at a time rather than the whole document (about
150 KB of Python objects for a 3.3 MB document, against about 8 times the
document for one ``json.dumps`` call).  The bytes are those of
``json.dumps(model_to_json(model), ...)`` with the same options.  A path
is written through a temporary sibling, so a failed write leaves no file.
"""

from __future__ import annotations

import json
import os
import re
import stat
from itertools import islice

from .errors import CodecError
from .model import (
    CityModel,
    CityObject,
    Record,
    Semantics,
    TemplateBank,
    Transform,
    is_finite_number,
    shape_problems,
)

_REQUIRED = ("version", "CityObjects", "vertices")
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


def _nodes(root):
    """Every value of a parsed document with its slash-separated path, each
    container before what it holds."""
    stack = [(root, "")]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, dict):
            for k, v in node.items():
                stack.append((v, f"{path}/{k}" if path else str(k)))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                stack.append((v, f"{path}/{i}"))


def _raise_lone_surrogates(root) -> None:
    # An escaped surrogate that is not half of a pair decodes to a str that
    # UTF-8 cannot encode.  The path is the string's, or for a key the
    # object's, and so never holds the surrogate itself.
    for node, path in _nodes(root):
        strings = node if isinstance(node, dict) else \
            [node] if isinstance(node, str) else ()
        for s in strings:
            try:
                s.encode("utf-8")
            except UnicodeEncodeError:
                raise CodecError("SYNTAX_ERROR", "unpaired surrogate escape "
                                 "in a string (RFC 8259, section 8.2)",
                                 path=path) from None


def _raise_duplicates(root, duplicates: dict) -> None:
    # Resolve each offending dict back to its document path; report the
    # first offence in path order.  The CityObjects dict gets its own code
    # because its keys are object identifiers.
    paths = {id(node): path for node, path in _nodes(root)
             if isinstance(node, dict)}
    offences = []
    for did, keys in duplicates.items():
        where = paths.get(did, "?")
        for k in keys:
            offences.append((f"{where}/{k}" if where else str(k), where, k))
    offences.sort()
    path, where, key = offences[0]
    if where == "CityObjects":
        raise CodecError("DUPLICATE_ID",
                         f"identifier {key!r} appears more than once", path=path)
    raise CodecError("DUPLICATE_KEY", f"key {key!r} appears more than once",
                     path=path)


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


def _not_a_number(name: str) -> CodecError:
    return CodecError("SYNTAX_ERROR",
                      f"{name} is not a JSON number (RFC 8259, section 6)")


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
        _raise_lone_surrogates(root)
    if not isinstance(root, dict):
        raise CodecError("NOT_CITYJSON", "document root is not an object")
    if duplicates:
        _raise_duplicates(root, duplicates)
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


# -- writing ----------------------------------------------------------------

# City objects, and vertex rows, encoded at once in minified output.  The
# stdlib encoder briefly holds about 8 times the text it makes, so a batch
# of 16 objects or 512 rows (under 20 KB of text) peaks near 150 KB; larger
# batches were no faster on a 3.3 MB document.
_OBJECT_BATCH = 16
_VERTEX_BATCH = 512

_MINIFIED = json.JSONEncoder(ensure_ascii=False, allow_nan=False,
                             separators=(",", ":"))
_PRETTY = json.JSONEncoder(ensure_ascii=False, allow_nan=False, indent=2)
_STREAMED = object()  # the CityObjects value that ``_pieces`` encodes


def _root(model: CityModel, city_objects) -> dict:
    """The members of ``model`` in canonical order, with ``city_objects``
    as the CityObjects value."""
    out: dict[str, object] = {"type": "CityJSON", "version": model.version}
    if model.metadata:
        out["metadata"] = model.metadata
    if model.extensions:
        out["extensions"] = model.extensions
    if model.transform is not None:
        out["transform"] = model.transform.to_json()
    out["CityObjects"] = city_objects
    out["vertices"] = model.vertices
    if model.appearance is not None:
        out["appearance"] = model.appearance
    if model.templates is not None:
        out["geometry-templates"] = model.templates.to_json()
    out.update(model.extra)
    return out


def model_to_json(model: CityModel) -> dict:
    """Canonically ordered plain-dict form of a model."""
    return _root(model, {oid: co.to_json()
                         for oid, co in model.city_objects.items()})


def _pieces(model: CityModel, pretty: bool):
    """The text of ``model``, in pieces whose concatenation is
    ``json.dumps(model_to_json(model), ...)`` with the writer's layout.

    Minified, each member is encoded on its own, the city objects
    ``_OBJECT_BATCH`` at a time (each object's plain-dict form is built
    only for its batch) and the vertex pool ``_VERTEX_BATCH`` rows at a
    time, so no piece holds more than one batch.  Pretty, the pieces are
    the encoder's own chunks.
    """
    try:
        if pretty:
            yield from _PRETTY.iterencode(model_to_json(model))
            return
        yield "{"
        for i, (key, value) in enumerate(
                _root(model, _STREAMED).items()):
            if i:
                yield ","
            if value is _STREAMED:
                yield '"CityObjects":{'
                objects = iter(model.city_objects.items())
                batch = list(islice(objects, _OBJECT_BATCH))
                while batch:
                    yield _MINIFIED.encode(
                        {oid: co.to_json() for oid, co in batch})[1:-1]
                    batch = list(islice(objects, _OBJECT_BATCH))
                    if batch:
                        yield ","
                yield "}"
            elif key == "vertices" and value is model.vertices \
                    and type(value) is list:
                yield '"vertices":['
                for start in range(0, len(value), _VERTEX_BATCH):
                    if start:
                        yield ","
                    yield _MINIFIED.encode(
                        value[start:start + _VERTEX_BATCH])[1:-1]
                yield "]"
            else:
                yield _MINIFIED.encode({key: value})[1:-1]
        yield "}"
    except ValueError:
        raise _not_a_number("a NaN or infinite value") from None


def dumps(model: CityModel, pretty: bool = False) -> str:
    return "".join(_pieces(model, pretty))


def dump(model: CityModel, target, pretty: bool = False) -> None:
    """Write to an open text file, or to a path, piece by piece.

    A path is written through a temporary sibling that replaces it only
    once the whole text is written, so a write that fails leaves no file
    behind and an existing file as it was; the replacement keeps the
    existing file's permission bits.  A path that names something other
    than a regular file (``/dev/stdout``, a named pipe) is written in
    place.
    """
    pieces = _pieces(model, pretty)
    if hasattr(target, "write"):
        for piece in pieces:
            target.write(piece)
        return
    path = os.fspath(target)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fp:
            fp.writelines(pieces)
        return
    path = os.path.realpath(path)  # a symbolic link keeps its target
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fp = open(temporary, "w", encoding="utf-8")
    except OSError as exc:  # name the file asked for, not the temporary
        raise type(exc)(exc.errno, exc.strerror, os.fspath(target)) from None
    try:
        with fp:
            fp.writelines(pieces)
        if os.path.exists(path):
            os.chmod(temporary, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
