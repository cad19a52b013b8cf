"""Extension files: loading, checking, combining and stripping.

An extension is a JSON document of type ``CityJSON_Extension`` that may add
three kinds of things to the core encoding, all spelled with a leading
``+``: new city object types (``extraCityObjects``), new attributes on core
types (``extraAttributes``, keyed by host type), and new root members
(``extraRootProperties``).  Extensions only ever add; the core members keep
their meaning, so software that ignores the ``+`` names can still process
the file.

Three rules are enforced.  Everything an extension introduces must begin
with ``+``.  A new city object schema must define the ``type`` and
``geometry`` members.  And geometries may only live under the standard
``geometry`` member, never inside invented ones.

Value schemas are restricted rule trees over exactly five keywords:
type (string, number, integer, boolean, object, array), properties, items,
required, and enum.  Anything else is rejected when the file loads, not
silently ignored, as is a file that is not such a document at all: each
raises ``ExtensionError``.  When several loaded extensions define a "+"
name, the first one's fragment checks it.

Checking a model against loaded extensions is validation's last layer,
``validation.validate_extended``, which this module names too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import ExtensionError
from .model import COBJECT_TYPES, CityModel, Record, replace
from .validation import ENV_VAR, validate_extended  # noqa: F401

_FRAGMENT_KEYS = {"type", "properties", "items", "required", "enum"}
_TYPE_NAMES = {"string", "number", "integer", "boolean", "object", "array"}


class Extension(Record):
    """One loaded extension file."""

    __slots__ = ("name", "uri", "version", "description",
                 "extra_root_properties", "extra_attributes",
                 "extra_city_objects")

    def __init__(self, name: str, uri: str = "", version: str = "",
                 description: str = "",
                 extra_root_properties: dict | None = None,
                 extra_attributes: dict | None = None,
                 extra_city_objects: dict | None = None):
        self.name = name
        self.uri = uri
        self.version = version
        self.description = description
        self.extra_root_properties = {} if extra_root_properties is None \
            else extra_root_properties
        self.extra_attributes = {} if extra_attributes is None \
            else extra_attributes
        self.extra_city_objects = {} if extra_city_objects is None \
            else extra_city_objects


def _check_fragment_rules(frag, path: str) -> None:
    if not isinstance(frag, dict):
        raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                             "schema fragment must be an object", path)
    for key in frag:
        if key not in _FRAGMENT_KEYS:
            raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                                 f"keyword {key!r} is not supported",
                                 f"{path}/{key}")
    ftype = frag.get("type")
    if ftype is not None:
        names = ftype if isinstance(ftype, list) else [ftype]
        for name in names:
            if not isinstance(name, str) or name not in _TYPE_NAMES:
                raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                                     f"type {name!r} is not supported",
                                     f"{path}/type")
    props = frag.get("properties", {})
    if not isinstance(props, dict):
        raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                             "properties must map member names to fragments",
                             f"{path}/properties")
    for name, sub in props.items():
        _check_fragment_rules(sub, f"{path}/properties/{name}")
    if "items" in frag:
        _check_fragment_rules(frag["items"], f"{path}/items")
    if "required" in frag and not (isinstance(frag["required"], list)
                                   and all(isinstance(x, str)
                                           for x in frag["required"])):
        raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                             "required must list member names",
                             f"{path}/required")
    if "enum" in frag and not isinstance(frag["enum"], list):
        raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD", "enum must be a list",
                             f"{path}/enum")


def _check_new_name(kind: str, name: str, frag, path: str) -> None:
    """A new name must begin with "+", and its fragment keep the rules."""
    if not name.startswith("+"):
        raise ExtensionError("BAD_PLUS_PREFIX",
                             f"new {kind} {name!r} must begin with '+'", path)
    _check_fragment_rules(frag, path)


def _object_member(doc: dict, member: str, path: str = "") -> dict:
    """``doc[member]`` ({} when absent), which must be a JSON object."""
    value = doc.get(member, {})
    path = path or member
    if not isinstance(value, dict):
        raise ExtensionError("WRONG_MEMBER_TYPE", f"{path} must be an object",
                             path)
    return value


def load_extension(source) -> Extension:
    """Load an extension from a path, an open file, or a parsed dict."""
    try:
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, encoding="utf-8") as fp:
                doc = json.load(fp)
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding
        raise ExtensionError("SYNTAX_ERROR",
                             f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ExtensionError("NOT_EXTENSION",
                             f"document is a JSON {type(doc).__name__}, "
                             "not an object")
    if doc.get("type") != "CityJSON_Extension":
        raise ExtensionError("NOT_EXTENSION",
                             f"type member is {doc.get('type')!r}", path="type")
    if "name" not in doc:
        raise ExtensionError("MISSING_REQUIRED_MEMBER", "extension has no name",
                             path="name")
    if not isinstance(doc["name"], str):
        raise ExtensionError("WRONG_MEMBER_TYPE", "name must be a string",
                             path="name")

    roots = _object_member(doc, "extraRootProperties")
    attrs = _object_member(doc, "extraAttributes")
    cotypes = _object_member(doc, "extraCityObjects")

    for name, frag in roots.items():
        _check_new_name("root member", name, frag,
                        f"extraRootProperties/{name}")
    for host in attrs:
        if host not in COBJECT_TYPES:
            # Extending another extension's "+" type is not allowed either.
            raise ExtensionError("UNKNOWN_COTYPE",
                                 f"attributes may only target core types, "
                                 f"not {host!r}", f"extraAttributes/{host}")
        per_attr = _object_member(attrs, host, f"extraAttributes/{host}")
        for name, frag in per_attr.items():
            _check_new_name("attribute", name, frag,
                            f"extraAttributes/{host}/{name}")
    for name, frag in cotypes.items():
        _check_new_name("object type", name, frag, f"extraCityObjects/{name}")
        props = frag.get("properties", {})
        if "type" not in props or "geometry" not in props:
            raise ExtensionError("MISSING_GEOMETRY_RULE",
                                 f"{name!r} must define the 'type' and "
                                 "'geometry' members",
                                 f"extraCityObjects/{name}")

    return Extension(
        name=doc["name"],
        uri=doc.get("uri", doc.get("url", "")),
        version=str(doc.get("version", "")),
        description=doc.get("description", ""),
        extra_root_properties=roots,
        extra_attributes=attrs,
        extra_city_objects=cotypes,
    )


def discover(search_path: str | None = None) -> list[Extension]:
    """Load every extension reachable through the search path.

    The path comes from the CJTK_EXTENSIONS environment variable unless
    given explicitly: os.pathsep-separated directories or single files.
    Files that are not valid extension documents are skipped.
    """
    if search_path is None:
        search_path = os.environ.get(ENV_VAR, "")
    found: list[Extension] = []
    seen: set[str] = set()
    for entry in search_path.split(os.pathsep):
        if not entry:
            continue
        p = Path(entry)
        candidates = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for cand in candidates:
            try:
                ext = load_extension(cand)
            except (OSError, ExtensionError):
                continue
            if ext.name not in seen:
                seen.add(ext.name)
                found.append(ext)
    return found


# -- lookup across several loaded extensions --------------------------------


def combine(exts: list[Extension]) -> dict[str, Extension]:
    """Index extensions by name, rejecting clashing "+" definitions."""
    by_name: dict[str, Extension] = {}
    seen_keys: dict[tuple, str] = {}
    for ext in exts:
        by_name[ext.name] = ext
        keys = ([("object", t) for t in ext.extra_city_objects]
                + [("root", r) for r in ext.extra_root_properties]
                + [("attr", host, a) for host, per in ext.extra_attributes.items()
                   for a in per])
        for key in keys:
            if key in seen_keys and seen_keys[key] != ext.name:
                raise ExtensionError(
                    "EXTENSION_KEY_COLLISION",
                    f"{key[-1]!r} is defined by both {seen_keys[key]!r} "
                    f"and {ext.name!r}")
            seen_keys[key] = ext.name
    return by_name


# -- fragment checking -------------------------------------------------------


def check_fragment(value, fragment: dict, where: str = "value") -> list[str]:
    """Check a value against a schema fragment; returns problem strings."""
    problems: list[str] = []
    ftype = fragment.get("type")
    if ftype is not None and not _matches_type(value, ftype):
        problems.append(f"{where} is not of type {ftype!r}")
        return problems
    if "enum" in fragment and value not in fragment["enum"]:
        problems.append(f"{where} is not one of {fragment['enum']!r}")
    if isinstance(value, dict):
        for name, sub in fragment.get("properties", {}).items():
            if name in value:
                problems.extend(check_fragment(value[name], sub, f"{where}/{name}"))
        for name in fragment.get("required", []):
            if name not in value:
                problems.append(f"{where} lacks required member {name!r}")
    if isinstance(value, list) and "items" in fragment:
        for i, item in enumerate(value):
            problems.extend(check_fragment(item, fragment["items"], f"{where}/{i}"))
    return problems


def _matches_type(value, ftype) -> bool:
    if isinstance(ftype, list):
        return any(_matches_type(value, t) for t in ftype)
    if ftype == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if ftype == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if ftype == "string":
        return isinstance(value, str)
    if ftype == "boolean":
        return isinstance(value, bool)
    if ftype == "object":
        return isinstance(value, dict)
    if ftype == "array":
        return isinstance(value, list)
    return True


# -- stripping ----------------------------------------------------------------


def strip_extensions(model: CityModel) -> CityModel:
    """New model with every "+" item and the extensions declaration removed.

    Objects of "+" types disappear entirely (links to them are pruned);
    "+" attributes and "+" root members are dropped.  The result is a
    plain core model; running this twice changes nothing more.  Only the
    kept objects and the root members are rebuilt; geometries and the rest
    are shared with ``model``.
    """
    keep = {oid for oid, co in model.city_objects.items()
            if not co.type.startswith("+")}
    return replace(
        model, extensions={},
        extra={k: v for k, v in model.extra.items() if not k.startswith("+")},
        city_objects={oid: co.linked_within(
            keep, attributes={k: v for k, v in co.attributes.items()
                              if not k.startswith("+")})
            for oid, co in model.city_objects.items() if oid in keep})
