"""Scoped CityGML 2.0 importer.

The XML encoding allows the same geometry to be written in many ways: a
ring can be one posList, repeated pos elements, or a coordinates blob;
polygons can sit inside the solid shell with the semantic surfaces
pointing at them through XLink, or live inside the semantic surfaces with
the shell holding the links; features nest instead of being listed flat.
This importer canonicalizes all of that into the flat, pooled, indexed
representation, so every supported spelling of the same city yields a
deep-equal model.  Elements are matched by local name, whatever their
namespace URI or prefix.

The document is parsed in chunks of 65,536 characters, or bytes where it
comes as bytes, or as a binary file, in the encoding its XML declaration
names.  The parser reports each element as it starts, and nothing as it
ends.  After each chunk the elements it started are taken in document
order: each tag is rewritten to its local name, its gml:ids are indexed
for the XLinks that point at them and its srsName is read.  Of elements
sharing a gml:id, the first keeps it, and the first srsName that is not
an EPSG code is the one reported.

The document is converted one member at a time.  After each chunk, every
child of the root but the last (a ``cityObjectMember`` or
``featureMember``, or any other) is complete, and once the parser is
closed the last is too.  Each complete child is converted and then freed
with its gml:ids, so the tree holds the complete members of one chunk
plus the one still open.  Where one member cannot settle its conversion
alone, the importer reads the document a second time, keeps the whole
tree and converts the members once the parse is done, as a whole-tree
reading does; that read, like any read under a root that is not a
``CityModel``, drops each complete child's tails and whitespace-only
texts instead (no reader needs them).  A second read happens on a link
to an element outside the member being converted, the root included,
and on a member whose conversion fails, so that errors keep the
precedence of the whole-tree reading: a syntax error anywhere, then the
root, then the srsNames, then the first failing member in document order.

Scope (fixed at build time): Building with BuildingPart and the semantic
boundary surfaces, SolitaryVegetationObject, and a generic fallback for
other features; gml:Solid, gml:MultiSurface and gml:CompositeSurface built
from polygons with exterior/interior linear rings; coordinate spellings
posList, repeated pos, and coordinates.  LoD comes from the element names
(lod1Solid, lod2MultiSurface, ...); interior (LoD4) models are rejected.
Appearances and terrain are out of scope; anything skipped lands in the
import report, never on the floor.  Input the importer cannot read raises
a coded ``GmlImportError``: a coordinate or ``srsDimension`` that is not a
number, or an XLink that leads back to where it came from, among others.
"""

from __future__ import annotations

import io
import math
import re
import xml.etree.ElementTree as ET

from .errors import GmlImportError
from .model import (CityModel, CityObject, Geometry, Record, Semantics,
                    is_finite_number)

XLINK_HREF = "{http://www.w3.org/1999/xlink}href"

_SEMANTIC_SURFACES = {
    "RoofSurface", "GroundSurface", "WallSurface", "ClosureSurface",
    "OuterCeilingSurface", "OuterFloorSurface", "Window", "Door",
}

_BUILDING_ATTRS = {
    "class": str, "function": str, "usage": str, "roofType": str,
    "yearOfConstruction": int, "yearOfDemolition": int,
    "storeysAboveGround": int, "storeysBelowGround": int,
    "measuredHeight": float,
}

_VEGETATION_ATTRS = {
    "class": str, "function": str, "usage": str, "species": str,
    "height": float, "trunkDiameter": float, "crownDiameter": float,
}

_GENERIC_ATTR_CASTS = {
    "stringAttribute": str,
    "intAttribute": int,
    "doubleAttribute": float,
    "dateAttribute": str,
    "uriAttribute": str,
    "measureAttribute": float,
}

_SIMPLE_FEATURES = {"SolitaryVegetationObject": _VEGETATION_ATTRS,
                    "GenericCityObject": {}}

_EPSG_CODE = re.compile(r"EPSG(?::+|/0/)(\d+)")
_LOD_HOLDER = re.compile(r"lod(\d)")

_CHUNK = 1 << 16  # characters (or bytes) handed to the XML parser at once


class _LocalNames(dict):
    """Clark name to local name, each sliced once and then shared."""

    def __missing__(self, clark: str) -> str:
        name = self[clark] = clark.rpartition("}")[2]
        return name


def _cast(elem: ET.Element, cast):
    """An element's text cast by ``cast`` (str, int or float), or the text
    itself where it does not parse to a value JSON can carry."""
    text = (elem.text or "").strip()
    try:
        value = cast(text)
    except ValueError:
        return text
    return value if cast is str or is_finite_number(value) else text


def _scalar(elem: ET.Element, cast):
    """``_cast``, as a {value, uom} pair where the element carries a uom."""
    value = _cast(elem, cast)
    uom = elem.get("uom")
    if uom:
        return {"value": value, "uom": uom}
    return value


def _holder_lod(name: str, oid: str) -> int | None:
    """The LoD an lod* geometry holder's name gives, or None; LoD4
    (interiors) is refused."""
    m = _LOD_HOLDER.match(name)
    if m is None:
        return None
    lod = int(m.group(1))
    if lod == 4:
        raise GmlImportError(
            "LOD4_UNSUPPORTED",
            f"{name} on {oid}: interior (LoD4) models are not supported")
    return lod


def _epsg_code(srs: str) -> int:
    """The EPSG code an srsName ends in: "EPSG:n", the OGC URN
    "urn:ogc:def:crs:EPSG::n" or the OGC URI
    "http://www.opengis.net/def/crs/EPSG/0/n".  A compound of two codes
    is refused, since CityJSON 1.0 takes one."""
    found = list(_EPSG_CODE.finditer(srs))
    if len(found) > 1:
        named = " and ".join(f"EPSG:{m.group(1)}" for m in found)
        raise GmlImportError(
            "NON_EPSG_CRS",
            f"{srs!r} compounds {named}; CityJSON 1.0 takes one code, that "
            "of the compound system (e.g. EPSG:7415 for RD New + NAP)")
    m = found[0] if found else None
    if m is None or m.end() != len(srs):
        raise GmlImportError("NON_EPSG_CRS",
                             f"cannot read an EPSG code out of {srs!r}")
    try:
        return int(m.group(1))
    except ValueError:  # beyond the interpreter's digit limit
        raise GmlImportError("NON_EPSG_CRS",
                             f"the EPSG code in srsName has "
                             f"{len(m.group(1))} digits") from None


class VertexPool:
    """Exact-match pooling of coordinate triples."""

    def __init__(self):
        self.rows: list[list[float]] = []
        self._index: dict[tuple, int] = {}

    def add(self, point: tuple[float, float, float]) -> int:
        key = tuple(point)
        idx = self._index.get(key)
        if idx is None:
            idx = len(self.rows)
            self._index[key] = idx
            self.rows.append(list(key))
        return idx


def normalize_ring(ring_elem: ET.Element, pool: VertexPool) -> list[int]:
    """Index list of one LinearRing, any spelling, closure stripped."""
    points = _ring_points(ring_elem)
    if points and points[0] == points[-1]:
        points = points[:-1]
    if len(set(points)) < 3:
        raise GmlImportError("RING_TOO_SHORT",
                             f"a ring needs at least 3 distinct points, "
                             f"got {len(set(points))}")
    return [pool.add(p) for p in points]


def _ring_points(ring_elem: ET.Element) -> list[tuple]:
    dim = _dimension(ring_elem, 0)
    pos_children = []
    for child in ring_elem:
        name = child.tag
        if name == "posList":
            return _pos_points(child, dim)
        if name == "pos":
            pos_children.append(child)
        elif name == "coordinates":
            cs = child.get("cs", ",")
            ts = child.get("ts", " ")
            for name, separator in (("cs", cs), ("ts", ts)):
                if not separator:
                    raise GmlImportError(
                        "BAD_COORDINATE_TOKEN",
                        f"coordinates {name} names no separator")
            text = (child.text or "").strip()
            points = []
            for chunk in text.replace("\n", ts).split(ts):
                if not chunk:
                    continue
                points.extend(_group(chunk.split(cs), dim or 3))
            return points
    if pos_children:
        points = []
        for child in pos_children:
            points.extend(_pos_points(child, dim))
        return points
    raise GmlImportError("BAD_COORDINATE_TOKEN",
                         "ring carries no posList/pos/coordinates")


def _dimension(elem: ET.Element, outer: int) -> int:
    """The srsDimension ``elem`` declares, else ``outer``, the one of the
    element around it (0 for none)."""
    text = elem.get("srsDimension")
    try:
        return int(text or 0) or outer
    except ValueError:
        raise GmlImportError("BAD_COORDINATE_TOKEN",
                             f"srsDimension {text!r} is not an integer") \
            from None


def _pos_points(elem: ET.Element, dim: int) -> list[tuple]:
    """Points of one posList or pos element inside a ring of dimension
    ``dim`` (0 when the ring declares none; 3 when neither does)."""
    return _group((elem.text or "").split(), _dimension(elem, dim) or 3)


def _group(tokens: list[str], dim: int) -> list[tuple]:
    if dim not in (2, 3):
        raise GmlImportError("BAD_COORDINATE_TOKEN",
                             f"unsupported coordinate dimension {dim}")
    try:
        values = list(map(float, tokens))
    except ValueError as exc:
        bad = str(exc).rsplit(":", 1)[-1].strip()
        raise GmlImportError("BAD_COORDINATE_TOKEN",
                             f"cannot read coordinate token {bad}")
    if not all(map(math.isfinite, values)):
        bad = next(t for t, v in zip(tokens, values) if not math.isfinite(v))
        raise GmlImportError("BAD_COORDINATE_TOKEN",
                             f"coordinate token {bad!r} is not finite")
    if not values or len(values) % dim:
        raise GmlImportError("BAD_COORDINATE_TOKEN",
                             f"coordinate count {len(values)} does not "
                             f"divide into {dim}-tuples")
    rows = [tuple(values[i:i + dim]) for i in range(0, len(values), dim)]
    if dim == 2:
        rows = [(x, y, 0.0) for x, y in rows]
    return rows


class ImportReport(Record):
    """What came in, what was skipped."""

    __slots__ = ("features", "surfaces", "vertices", "crs", "skipped")

    def __init__(self, features: dict | None = None, surfaces: int = 0,
                 vertices: int = 0, crs: str | None = None,
                 skipped: list | None = None):
        self.features = {} if features is None else features
        self.surfaces = surfaces
        self.vertices = vertices
        self.crs = crs
        self.skipped = [] if skipped is None else skipped

    def skip(self, element: str, reason: str) -> None:
        self.skipped.append({"element": element, "reason": reason})

    def to_json_lines(self) -> list[dict]:
        head = {"record": "summary",
                "features": dict(sorted(self.features.items())),
                "surfaces": self.surfaces, "vertices": self.vertices}
        if self.crs:
            head["crs"] = self.crs
        return [head] + [{"record": "skipped", **entry}
                         for entry in self.skipped]


def import_citygml(source: str | bytes | io.BufferedIOBase
                   ) -> tuple[CityModel, ImportReport]:
    """CityModel plus report from one CityGML 2.0 document: a str, bytes
    in the encoding its XML declaration names (UTF-8 where it names none),
    or a binary file of such bytes, read in chunks from where it stands
    (read whole first where it cannot seek back there)."""
    if not isinstance(source, (str, bytes)) and not source.seekable():
        source = source.read()
    start = None if isinstance(source, (str, bytes)) else source.tell()
    try:
        return _import(source, free=True)
    except _Reread:
        # Leave the handler first: its traceback holds the first read's
        # frames, and with them its tree and the model built so far.
        pass
    if start is not None:
        source.seek(start)
    return _import(source, free=False)


class _Reread(Exception):
    """A member cannot settle its conversion alone: the document is to be
    read again, its tree kept whole."""


def _import(source, free: bool) -> tuple[CityModel, ImportReport]:
    """One read of the document; ``free`` converts and frees each child of
    the root once it is complete."""
    importer = _Importer(free)
    parser = ET.XMLPullParser(events=("start",))
    try:
        for chunk in _chunks(source):
            try:
                parser.feed(chunk)
            except (LookupError, ValueError) as exc:
                # a declared encoding that the parser cannot decode
                raise GmlImportError("XML_SYNTAX_ERROR",
                                     f"cannot decode the document: {exc}") \
                    from None
            importer.take(parser.read_events(), closed=False)
        parser.close()
        importer.take(parser.read_events(), closed=True)
    except ET.ParseError as exc:
        line, column = exc.position
        raise GmlImportError(
            "XML_SYNTAX_ERROR",
            f"not well-formed XML at line {line}, column {column}: "
            f"{exc.msg.split(':')[0] if hasattr(exc, 'msg') else exc}")
    return importer.run()


def _chunks(source):
    """The document in pieces of ``_CHUNK`` characters or bytes."""
    if isinstance(source, (str, bytes)):
        for at in range(0, len(source), _CHUNK):
            yield source[at:at + _CHUNK]
    else:
        while chunk := source.read(_CHUNK):
            yield chunk


def _trim(child: ET.Element) -> None:
    """Drop the tails and whitespace-only texts under a complete element,
    which no reader needs (they strip or split the text anyway)."""
    for elem in child.iter():
        elem.tail = None
        text = elem.text
        if text is not None and text.isspace():
            elem.text = None


class _Importer:
    def __init__(self, free: bool):
        # Convert and free each child of the root once it is complete,
        # where the root is a CityModel.
        self.free = free
        self.root: ET.Element | None = None
        self.settled = 0  # children of the root already trimmed
        self.member: set[ET.Element] = set()  # the one being converted
        self.pool = VertexPool()
        self.objects: dict[str, CityObject] = {}
        self.report = ImportReport()
        self.counters: dict[str, int] = {}
        # polygon element -> the semantic surface element that claims it
        self.claims: dict[ET.Element, ET.Element] = {}
        self.names = _LocalNames()
        # gml:id -> element, or None once the element has been freed
        self.ids: dict[str, ET.Element | None] = {}
        # the ids kept below the root and not yet freed, in document order
        self.held: list[str] = []
        self.codes: set[int] = set()  # EPSG codes of the srsNames
        self.bad_srs: GmlImportError | None = None  # the first NON_EPSG_CRS

    # -- parse ------------------------------------------------------------

    def take(self, events, closed: bool) -> None:
        """Take in the elements the parser has started since the last
        call, then settle the children of the root that are complete.

        As each element starts, in document order: rewrite its tag to its
        local name, index its gml:ids, of which the first holder keeps
        each, and read its srsName, keeping the first that is not an EPSG
        code as the error that ``run`` raises once the parse has
        succeeded.  Every child of the root but the last is complete, and
        once the parser is ``closed`` the last is too.  With ``free``,
        each complete child is converted and freed; otherwise its tails
        and whitespace-only texts are dropped (``_trim``)."""
        names, ids, held, root = self.names, self.ids, self.held, self.root
        for _, elem in events:
            elem.tag = names[elem.tag]
            for key, value in elem.items():
                if key == "srsName":
                    if value:
                        self._read_srs(value)
                elif names[key] == "id" and ids.setdefault(value, elem) \
                        is elem:
                    held.append(value)
            if root is None:
                root = self.root = elem
                self.free = self.free and elem.tag == "CityModel"
                held.clear()  # the root's own id is never freed
        if root is None:
            return
        still_open = 0 if closed else 1  # the root's last child
        while len(root) - self.settled > still_open:
            child = root[self.settled]
            if self.free:
                self._free(child)  # which takes it out of the root
            else:
                _trim(child)
                self.settled += 1

    def _free(self, child: ET.Element) -> None:
        """Convert a complete child of the root, then free it and mark its
        gml:ids as freed.  A link out of it, which ``_resolve`` refuses, or
        any other coded error reads the document again."""
        self.member = member = set(child.iter())
        try:
            self._root_child(child)
        except GmlImportError:
            raise _Reread from None
        self.root.remove(child)
        ids, held = self.ids, self.held
        done = 0
        while done < len(held) and ids[held[done]] in member:
            ids[held[done]] = None
            done += 1
        del held[:done]
        self.claims.clear()
        member.clear()

    def _read_srs(self, value: str) -> None:
        try:
            self.codes.add(_epsg_code(value))
        except GmlImportError as exc:
            if self.bad_srs is None:
                self.bad_srs = exc

    # -- driver ---------------------------------------------------------

    def run(self) -> tuple[CityModel, ImportReport]:
        root = self.root
        name = root.tag
        if name != "CityModel":
            raise GmlImportError("NOT_CITYGML",
                                 f"root element is {name!r}, "
                                 "expected CityModel")
        crs = self._crs()
        for child in root:
            self._root_child(child)
        metadata = {"referenceSystem": crs} if crs else {}
        model = CityModel(city_objects=self.objects,
                          vertices=self.pool.rows, metadata=metadata)
        self.report.vertices = len(self.pool.rows)
        self.report.crs = crs
        return model, self.report

    def _root_child(self, child: ET.Element) -> None:
        name = child.tag
        if name in ("cityObjectMember", "featureMember"):
            for feature in child:
                self._feature(feature)
        elif name != "boundedBy":  # the envelope; the parse read its CRS
            self.report.skip(name, "unsupported document member")

    def _crs(self) -> str | None:
        """The one CRS that the srsNames give, as "EPSG:n", or None where
        none is given."""
        if self.bad_srs is not None:
            raise self.bad_srs
        codes = self.codes
        if len(codes) > 1:
            raise GmlImportError("MIXED_CRS",
                                 f"document mixes reference systems "
                                 f"{sorted(codes)}; all geometries must "
                                 "share one")
        return f"EPSG:{codes.pop()}" if codes else None

    def _resolve(self, href: str) -> ET.Element:
        """Element for an in-document reference of the form "#<gml-id>"."""
        if not href.startswith("#"):
            raise GmlImportError("EXTERNAL_XLINK",
                                 f"only in-document references are "
                                 f"supported, got {href!r}")
        target = self.ids.get(href[1:])
        if target is None:
            raise GmlImportError("UNRESOLVED_XLINK",
                                 f"no element carries gml:id {href[1:]!r}")
        if self.free and target not in self.member:
            # The root or another member: the root is still open, and a
            # later member may be too.
            raise _Reread
        return target

    # -- features ---------------------------------------------------------

    def _feature(self, elem: ET.Element, parent: str | None = None):
        name = elem.tag
        if name == "Building" or name == "BuildingPart":
            # Parts depth first in document order, on a stack of their own,
            # so that no nesting depth runs into the recursion limit.
            stack = [(elem, parent)]
            while stack:
                elem, parent = stack.pop()
                oid, parts = self._building(elem, elem.tag, parent)
                stack.extend((part, oid) for part in reversed(parts))
            return
        attr_casts = _SIMPLE_FEATURES.get(name)
        if attr_casts is None:
            # Fallback: keep the feature rather than dropping it, noted in
            # the report.
            self.report.skip(name, "unknown feature imported as "
                                   "GenericCityObject")
            name, attr_casts = "GenericCityObject", {}
        oid, co = self._city_object(elem, name, parent)
        for child in elem:
            if not self._common_member(co, oid, child, attr_casts):
                self.report.skip(child.tag, f"unsupported {name} member")

    def _city_object(self, elem: ET.Element, cotype: str,
                     parent: str | None) -> tuple[str, CityObject]:
        """A new, counted object for a feature, linked to its parent; its
        id is the feature's gml:id, else a per-type counter."""
        oid = next((value for key, value in elem.items()
                    if self.names[key] == "id"), None)
        if oid is None:
            self.counters[cotype] = self.counters.get(cotype, 0) + 1
            oid = f"{cotype}_{self.counters[cotype]}"
        co = CityObject(type=cotype)
        self.objects[oid] = co
        self.report.features[cotype] = self.report.features.get(cotype, 0) + 1
        if parent:
            co.parents.append(parent)
            self.objects[parent].children.append(oid)
        return oid, co

    def _common_member(self, co: CityObject, oid: str, child: ET.Element,
                       attr_casts: dict) -> bool:
        """Read a member any feature can carry: a typed attribute of
        ``attr_casts``, a generic attribute or an lod* geometry holder.
        False for any other member."""
        name = child.tag
        if name in attr_casts:
            co.attributes[name] = _scalar(child, attr_casts[name])
        elif name in _GENERIC_ATTR_CASTS:
            self._generic_attribute(co, child, name)
        elif name.startswith("lod"):
            geom = self._lod_geometry(child, oid)
            if geom is not None:
                co.geometry.append(geom)
        else:
            return False
        return True

    def _building(self, elem: ET.Element, cotype: str,
                  parent: str | None) -> tuple[str, list[ET.Element]]:
        """The building's object id and its direct BuildingParts, which
        the caller converts next."""
        oid, co = self._city_object(elem, cotype, parent)
        surfaces = self._register_boundaries(elem)
        direct_parts = []
        for child in elem:
            if self._common_member(co, oid, child, _BUILDING_ATTRS):
                continue
            name = child.tag
            if name == "consistsOfBuildingPart":
                for part in child:
                    if part.tag == "BuildingPart":
                        direct_parts.append(part)
            elif name == "boundedBy":
                pass  # consumed by _register_boundaries
            elif name == "address":
                self.report.skip("address", "addresses are not imported")
            else:
                self.report.skip(name, "unsupported building member")

        if not co.geometry and surfaces:
            co.geometry.append(self._surfaces_geometry(surfaces, oid))
        return oid, direct_parts

    def _generic_attribute(self, co: CityObject, elem: ET.Element, kind: str):
        name = elem.get("name")
        if not name:
            self.report.skip(kind, "generic attribute without a name")
            return
        cast = _GENERIC_ATTR_CASTS[kind]
        for child in elem:
            if child.tag == "value":
                co.attributes[name] = _scalar(child, cast) \
                    if kind == "measureAttribute" else _cast(child, cast)
                return
        self.report.skip(kind, f"generic attribute {name!r} without a value")

    # -- semantic surfaces -------------------------------------------------

    def _register_boundaries(self, feature: ET.Element) -> list[ET.Element]:
        """Claim polygons for the feature's boundedBy surfaces.

        Returns the surface feature elements in document order, so a
        building without an explicit geometry can still assemble one
        MultiSurface out of them.
        """
        surfaces = []
        for bounded in feature:
            if bounded.tag != "boundedBy":
                continue
            for surf in bounded:
                stype = surf.tag
                if stype == "Envelope":
                    continue  # a feature bbox, not a boundary surface
                if stype not in _SEMANTIC_SURFACES:
                    self.report.skip(stype, "unsupported boundary surface")
                    continue
                surfaces.append(surf)
                for poly in self._surface_polygons(surf):
                    self.claims.setdefault(poly, surf)
        return surfaces

    def _surface_polygons(self, surf: ET.Element) -> list[ET.Element]:
        """Polygons of one semantic surface: inline and href'd alike."""
        out = []
        for elem in surf.iter():
            if elem.tag == "Polygon":
                out.append(elem)
            href = elem.get(XLINK_HREF)
            if href is not None:
                target = self._resolve(href)
                if target.tag == "Polygon":
                    out.append(target)
        return out

    # -- geometries ---------------------------------------------------------

    def _lod_geometry(self, holder: ET.Element, oid: str):
        name = holder.tag
        lod = _holder_lod(name, oid)
        if lod is None:
            self.report.skip(name, "unrecognized geometry holder")
            return None
        body = next(iter(holder), None)
        if body is None:
            href = holder.get(XLINK_HREF)
            if href is not None:
                body = self._resolve(href)
        if body is None:
            self.report.skip(name, "empty geometry holder")
            return None
        kind = body.tag
        if kind == "Solid":
            return self._solid(body, lod, oid)
        if kind in ("MultiSurface", "CompositeSurface"):
            tracker = _SemanticsTracker()
            return tracker.attach(Geometry(
                type=kind, lod=lod, boundaries=self._polygons(body, tracker)))
        self.report.skip(kind, f"unsupported geometry of {oid}")
        return None

    def _solid(self, solid: ET.Element, lod, oid: str) -> Geometry:
        shells = []
        tracker = _SemanticsTracker()
        for child in solid:
            name = child.tag
            if name not in ("exterior", "interior"):
                self.report.skip(name, f"unsupported solid member of {oid}")
                continue
            shell = self._polygons(child, tracker)
            if shell:
                shells.append(shell)
        return tracker.attach(Geometry(type="Solid", lod=lod,
                                       boundaries=shells),
                              shape=[len(s) for s in shells])

    def _surfaces_geometry(self, surfaces: list[ET.Element],
                           oid: str) -> Geometry:
        """MultiSurface assembled from boundedBy surfaces alone."""
        tracker = _SemanticsTracker()
        polys = []
        lod = None
        for surf in surfaces:
            for child in surf:
                child_lod = _holder_lod(child.tag, oid)
                if child_lod is None:
                    continue
                lod = child_lod if lod is None else lod
                polys.extend(self._polygons(child, tracker))
        return tracker.attach(
            Geometry(type="MultiSurface", lod=lod if lod is not None else 2,
                     boundaries=polys))

    def _polygons(self, container: ET.Element, tracker) -> list:
        """Boundaries of the polygons under a shell or collection."""
        return [self._polygon(p, tracker)
                for p in self._collect_polygons(container)]

    def _collect_polygons(self, container: ET.Element) -> list[ET.Element]:
        """Polygons under a shell/collection, resolving member links,
        preserving document order.

        The walk keeps its own stack, so neither deep nesting nor a long
        chain of links runs into the recursion limit.  Each entry holds
        the children still to visit and the link target it entered, if
        any; ``on_path`` holds the targets between the container and the
        walk's position, where a link back is a cycle.
        """
        out = []
        on_path = {container}
        stack = [(iter(container), None)]
        while stack:
            children, entered = stack[-1]
            child = next(children, None)
            if child is None:
                stack.pop()
                on_path.discard(entered)
                continue
            name = child.tag
            if name == "Polygon":
                out.append(child)
            elif name in ("surfaceMember", "surfaceMembers", "exterior",
                          "interior", "CompositeSurface", "MultiSurface"):
                href = child.get(XLINK_HREF)
                if href is not None and len(child) == 0:
                    target = self._resolve(href)
                    if target.tag == "Polygon":
                        out.append(target)
                    elif target in on_path:
                        raise GmlImportError(
                            "UNRESOLVED_XLINK",
                            f"reference cycle through {href}")
                    else:
                        on_path.add(target)
                        stack.append((iter(target), target))
                else:
                    stack.append((iter(child), None))
            else:
                self.report.skip(name, "unsupported surface member")
        return out

    def _polygon(self, polygon: ET.Element, tracker) -> list[list[int]]:
        rings = []
        for child in polygon:
            name = child.tag
            if name in ("exterior", "interior"):
                for ring in child:
                    if ring.tag == "LinearRing":
                        rings.append(normalize_ring(ring, self.pool))
                    else:
                        self.report.skip(ring.tag, "unsupported ring type")
            else:
                self.report.skip(name, "unsupported polygon member")
        self.report.surfaces += 1
        tracker.note(self.claims.get(polygon))
        return rings


class _SemanticsTracker:
    """Assigns semantic-surface indices in polygon-consumption order.

    Surfaces get their index the first time one of their polygons is
    consumed, so a file whose boundedBy surfaces are reordered — but whose
    shell walks the polygons in the same order — produces identical
    semantics arrays.
    """

    def __init__(self):
        self.surfaces: list[dict] = []
        self.by_surface: dict[ET.Element, int] = {}
        self.values: list = []

    def note(self, surface: ET.Element | None) -> None:
        """Count one polygon, claimed by the semantic surface element
        ``surface`` or by none."""
        if surface is None:
            self.values.append(None)
            return
        idx = self.by_surface.get(surface)
        if idx is None:
            idx = len(self.surfaces)
            self.by_surface[surface] = idx
            self.surfaces.append({"type": surface.tag})
        self.values.append(idx)

    def attach(self, geom: Geometry,
               shape: list[int] | None = None) -> Geometry:
        """Hang the collected semantics on the geometry.

        ``shape`` re-nests the flat per-polygon values into per-shell lists
        for solids (one entry per shell, its value = that shell's polygon
        count).
        """
        if not self.surfaces:
            return geom
        values = self.values
        if shape is not None:
            nested, pos = [], 0
            for count in shape:
                nested.append(values[pos:pos + count])
                pos += count
            values = nested
        geom.semantics = Semantics(surfaces=self.surfaces, values=values)
        return geom
