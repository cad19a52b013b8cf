"""Extension files: loading, checking, applying.

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
silently ignored.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ERROR, ExtensionError, Finding
from .model import (COBJECT_TYPES, CityModel, iter_boundary_indices,
                    nesting_depth)

ENV_VAR = "CJTK_EXTENSIONS"

_FRAGMENT_KEYS = {"type", "properties", "items", "required", "enum"}
_TYPE_NAMES = {"string", "number", "integer", "boolean", "object", "array"}


@dataclass
class Extension:
    """One loaded extension file."""

    name: str
    uri: str = ""
    version: str = ""
    description: str = ""
    extra_root_properties: dict = field(default_factory=dict)
    extra_attributes: dict = field(default_factory=dict)
    extra_city_objects: dict = field(default_factory=dict)


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
            if name not in _TYPE_NAMES:
                raise ExtensionError("UNSUPPORTED_SCHEMA_KEYWORD",
                                     f"type {name!r} is not supported",
                                     f"{path}/type")
    for name, sub in frag.get("properties", {}).items():
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


def load_extension(source) -> Extension:
    """Load an extension from a path, an open file, or a parsed dict."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, encoding="utf-8") as fp:
            doc = json.load(fp)
    if doc.get("type") != "CityJSON_Extension":
        raise ExtensionError("NOT_EXTENSION",
                             f"type member is {doc.get('type')!r}", path="type")
    if "name" not in doc:
        raise ExtensionError("MISSING_REQUIRED_MEMBER", "extension has no name",
                             path="name")

    roots = doc.get("extraRootProperties", {})
    attrs = doc.get("extraAttributes", {})
    cotypes = doc.get("extraCityObjects", {})
    for member, value in (("extraRootProperties", roots),
                          ("extraAttributes", attrs),
                          ("extraCityObjects", cotypes)):
        if not isinstance(value, dict):
            raise ExtensionError("WRONG_MEMBER_TYPE", f"{member} must be an object",
                                 path=member)

    for name, frag in roots.items():
        if not name.startswith("+"):
            raise ExtensionError("BAD_PLUS_PREFIX",
                                 f"new root member {name!r} must begin with '+'",
                                 f"extraRootProperties/{name}")
        _check_fragment_rules(frag, f"extraRootProperties/{name}")
    for host, per_attr in attrs.items():
        if host not in COBJECT_TYPES:
            # Extending another extension's "+" type is not allowed either.
            raise ExtensionError("UNKNOWN_COTYPE",
                                 f"attributes may only target core types, "
                                 f"not {host!r}", f"extraAttributes/{host}")
        for name, frag in per_attr.items():
            if not name.startswith("+"):
                raise ExtensionError("BAD_PLUS_PREFIX",
                                     f"new attribute {name!r} must begin with '+'",
                                     f"extraAttributes/{host}/{name}")
            _check_fragment_rules(frag, f"extraAttributes/{host}/{name}")
    for name, frag in cotypes.items():
        if not name.startswith("+"):
            raise ExtensionError("BAD_PLUS_PREFIX",
                                 f"new object type {name!r} must begin with '+'",
                                 f"extraCityObjects/{name}")
        _check_fragment_rules(frag, f"extraCityObjects/{name}")
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
            except (OSError, ValueError, ExtensionError):
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


def _cotype_fragment(exts: list[Extension], cotype: str):
    for ext in exts:
        if cotype in ext.extra_city_objects:
            return ext.extra_city_objects[cotype]
    return None


def _attribute_fragment(exts: list[Extension], host: str, attr: str):
    for ext in exts:
        frag = ext.extra_attributes.get(host, {}).get(attr)
        if frag is not None:
            return frag
    return None


def _root_fragment(exts: list[Extension], name: str):
    for ext in exts:
        if name in ext.extra_root_properties:
            return ext.extra_root_properties[name]
    return None


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


# -- model-level validation ---------------------------------------------------


def validate_extended(model: CityModel, exts: list[Extension]) -> list[Finding]:
    """Check every "+" item in the model against the loaded extensions.

    Undefined "+" names yield UNDECLARED_EXTENSION_MEMBER; values that
    contradict their schema fragment yield EXTENSION_SCHEMA_VIOLATION;
    geometry hidden outside the standard geometry member yields
    MISPLACED_GEOMETRY; extensions declared by the model but not provided
    yield MISSING_EXTENSION_SCHEMA.  Findings come back sorted.
    """
    combine(exts)
    out: list[Finding] = []
    provided = {e.name for e in exts}
    for name in model.extensions or {}:
        if name not in provided:
            out.append(Finding(f"extensions/{name}", "MISSING_EXTENSION_SCHEMA",
                               ERROR, "declared extension was not provided",
                               "extension"))

    for oid, co in model.city_objects.items():
        base = f"CityObjects/{oid}"
        if co.type.startswith("+"):
            frag = _cotype_fragment(exts, co.type)
            if frag is None:
                out.append(Finding(f"{base}/type", "UNDECLARED_EXTENSION_MEMBER",
                                   ERROR,
                                   f"no loaded extension defines {co.type!r}",
                                   "extension"))
            else:
                for problem in check_fragment(co.to_json(), frag, oid):
                    out.append(Finding(base, "EXTENSION_SCHEMA_VIOLATION", ERROR,
                                       problem, "extension"))
        for name, value in co.attributes.items():
            if not name.startswith("+"):
                continue
            path = f"{base}/attributes/{name}"
            frag = _attribute_fragment(exts, co.type, name)
            if frag is None:
                out.append(Finding(path, "UNDECLARED_EXTENSION_MEMBER", ERROR,
                                   f"no loaded extension defines {name!r} on "
                                   f"{co.type}", "extension"))
            else:
                for problem in check_fragment(value, frag, name):
                    out.append(Finding(path, "EXTENSION_SCHEMA_VIOLATION", ERROR,
                                       problem, "extension"))
        for name, value in co.extra.items():
            if _contains_geometry(value):
                out.append(Finding(f"{base}/{name}", "MISPLACED_GEOMETRY", ERROR,
                                   "geometries may only live under the "
                                   "geometry member", "extension"))

    for name, value in model.extra.items():
        if not name.startswith("+"):
            continue
        frag = _root_fragment(exts, name)
        if frag is None:
            out.append(Finding(name, "UNDECLARED_EXTENSION_MEMBER", ERROR,
                               f"no loaded extension defines root member "
                               f"{name!r}", "extension"))
        else:
            for problem in check_fragment(value, frag, name):
                out.append(Finding(name, "EXTENSION_SCHEMA_VIOLATION", ERROR,
                                   problem, "extension"))
    out.sort()
    return out


def _contains_geometry(value) -> bool:
    """True when a value smuggles geometry: a boundaries member anywhere,
    or a nested index array of at least ring size."""
    if isinstance(value, dict):
        if "boundaries" in value:
            return True
        return any(_contains_geometry(v) for v in value.values())
    if isinstance(value, list):
        if (nesting_depth(value) >= 2
                and sum(1 for _ in iter_boundary_indices(value)) >= 3
                and all(isinstance(x, int) and not isinstance(x, bool)
                        for x in iter_boundary_indices(value))):
            return True
        return any(_contains_geometry(v) for v in value)
    return False


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
