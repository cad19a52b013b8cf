"""Byte identity of op outputs, pinned by sha256 digests.

Every op below runs on the committed corpus and on three ``synth`` scenes,
each raw and quantized at 3 and at 1 digits; the merges run on one input
and its variants, on partition parts, and on corpus neighbours.  Each
output's minified encoding (or the code of the ``CjtkError`` the op
raised) is hashed and compared with ``data/golden_digests.json``.  The
CityGML importer (model plus report lines) and the extension loader and
checker (loaded members, findings) are pinned the same way, their errors
by code, path and message (keys under ``gml/`` and ``ext/``).  The
findings of ``validate_text`` and ``validate`` on the corpus, the synth
scenes, the shape mutants and the consistency mutants, and what the ops
give or raise on the consistency mutants built in memory, are pinned
under ``validate/``.  The help of the command line and of each stage
(standard output and exit code of ``--help``) is pinned under
``cli/help/``.  A refactor that is meant to leave outputs as they
are passes unchanged; a change that alters outputs on purpose regenerates
the file and says why in its description::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

from cjtk import cli, codec, extensions, geomops, gml, ops, synth, validation
from cjtk.errors import CjtkError

from conftest import NOISE_EXTENSION_PATH, committed_corpus
from gmlvariants import (CUBE_FACES, CUBE_VARIANTS, RESPELLED,
                         SQUARE_POINTS, SQUARE_VARIANTS)
from helpers import (base_inputs, consistency_mutants, mutant_text,
                     record_model, shape_mutants)

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"


def _variants(model):
    """The model raw and quantized at 3 and at 1 digits."""
    out = {"raw": model}
    for digits in (3, 1):
        try:
            out[f"d{digits}"] = geomops.quantize(model, digits=digits,
                                                 requantize=True)
        except CjtkError:
            pass
    return out


def _lower_left_quarter(model):
    ext = geomops.compute_extent(model)
    return [ext[0], ext[1], (ext[0] + ext[3]) / 2, (ext[1] + ext[4]) / 2]


def _first_type(model):
    return [model.city_objects[min(model.city_objects)].type] \
        if model.city_objects else ["Building"]


def _instances(model):
    rows = []
    for oid, gi, geom in list(model.iter_geometries()):
        if geom.is_instance():
            expanded, verts = geomops.instantiate_template(model, oid, gi)
            rows.append([oid, gi, expanded.to_json(), verts])
    return rows


def _chained(parts):
    out = parts[0]
    for part in parts[1:]:
        out = ops.merge([out, part])
    return out


OPS = {
    "extent": geomops.compute_extent,
    "instances": _instances,
    "metadata": ops.refresh_metadata,
    "dedupe0": geomops.dedupe_vertices,
    "dedupe1": lambda m: geomops.dedupe_vertices(m, tolerance=1),
    "clean": geomops.remove_orphan_vertices,
    "strip": extensions.strip_extensions,
    "subset-type": lambda m: ops.subset(m, types=_first_type(m)),
    "subset-bbox": lambda m: ops.subset(m, bbox=_lower_left_quarter(m)),
    "grid2": lambda m: ops.partition_grid(m, 2, 2),
    "grid3": lambda m: ops.partition_grid(m, 3, 3),
    "by-type": ops.partition_by_type,
    "random": lambda m: ops.partition_random(m, 3, seed=7),
    "merge-self": lambda m: ops.merge([m]),
    "merge-twice": lambda m: ops.merge([m, m], policy="suffix"),
    "merge-3x3": lambda m: ops.merge(
        [p for _, p in ops.partition_grid(m, 3, 3)]),
    "merge-3x3-chained": lambda m: _chained(
        [p for _, p in ops.partition_grid(m, 3, 3)]),
}


def _encoded(result) -> str:
    if isinstance(result, list) and result \
            and isinstance(result[0], tuple):
        return "\n".join(f"{pid}\t{codec.dumps(part)}"
                         for pid, part in result)
    if isinstance(result, list):
        return json.dumps(result)
    return codec.dumps(result)


def _digest(op, *args) -> str:
    try:
        text = _encoded(op(*args))
    except CjtkError as exc:
        return f"!{exc.code}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned(fn) -> str:
    """Digest of ``fn()``'s text, or of the message of the CjtkError it
    raised."""
    try:
        text = fn()
    except CjtkError as exc:
        text = f"!{exc.code} at {exc.path}: {exc.message}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the CityGML importer ------------------------------------------------------

_GML_NS = (' xmlns:core="http://www.opengis.net/citygml/2.0"'
           ' xmlns:bldg="http://www.opengis.net/citygml/building/2.0"'
           ' xmlns:veg="http://www.opengis.net/citygml/vegetation/2.0"'
           ' xmlns:gen="http://www.opengis.net/citygml/generics/2.0"'
           ' xmlns:frn="http://www.opengis.net/citygml/cityfurniture/2.0"'
           ' xmlns:gml="http://www.opengis.net/gml"'
           ' xmlns:xlink="http://www.w3.org/1999/xlink"')


def _gml_doc(body: str) -> str:
    return f'<core:CityModel{_GML_NS}>{body}</core:CityModel>'


def _gml_ring(points, dx=0) -> str:
    text = " ".join(f"{x + dx} {y} {z}" for x, y, z in points + points[:1])
    return (f'<gml:LinearRing><gml:posList>{text}</gml:posList>'
            '</gml:LinearRing>')


def _gml_polygon(points, pid=None, dx=0, holes=()) -> str:
    ident = f' gml:id="{pid}"' if pid else ""
    inner = "".join(f"<gml:interior>{_gml_ring(h, dx)}</gml:interior>"
                    for h in holes)
    return (f'<gml:Polygon{ident}><gml:exterior>{_gml_ring(points, dx)}'
            f'</gml:exterior>{inner}</gml:Polygon>')


_SQUARE = SQUARE_POINTS
_HOLE = [(2, 1, 0), (2, 2, 0), (3, 2, 0), (3, 1, 0)]
_BOX = CUBE_FACES


def _members(polygons) -> str:
    return "".join(f"<gml:surfaceMember>{p}</gml:surfaceMember>"
                   for p in polygons)


def _kitchen_sink() -> str:
    """One document touching each feature, attribute, holder and skip path
    of the importer."""
    shell = _members(_gml_polygon(face, pid=f"k-f{i}", dx=20)
                     for i, face in enumerate(_BOX))
    inner_shell = _members(_gml_polygon(face, dx=20.25) for face in _BOX[:2])
    solid = ('<gml:Solid><gml:name>box</gml:name><gml:exterior>'
             f'<gml:CompositeSurface>{shell}</gml:CompositeSurface>'
             '</gml:exterior><gml:interior><gml:CompositeSurface>'
             f'{inner_shell}</gml:CompositeSurface></gml:interior>'
             '</gml:Solid>')
    roof = ('<bldg:boundedBy><bldg:RoofSurface><gml:name>r</gml:name>'
            '<bldg:lod2MultiSurface><gml:MultiSurface>'
            '<gml:surfaceMember xlink:href="#k-f1"/>'
            '</gml:MultiSurface></bldg:lod2MultiSurface>'
            '</bldg:RoofSurface></bldg:boundedBy>')
    wall = ('<bldg:boundedBy><bldg:WallSurface><bldg:lod2MultiSurface>'
            '<gml:MultiSurface><gml:surfaceMember xlink:href="#k-f2"/>'
            '<gml:surfaceMember xlink:href="#k-f3"/></gml:MultiSurface>'
            '</bldg:lod2MultiSurface><bldg:opening><bldg:Window>'
            '<bldg:lod3MultiSurface><gml:MultiSurface>'
            '<gml:surfaceMember xlink:href="#k-f4"/></gml:MultiSurface>'
            '</bldg:lod3MultiSurface></bldg:Window></bldg:opening>'
            '</bldg:WallSurface></bldg:boundedBy>'
            '<bldg:boundedBy><bldg:BalconySurface/></bldg:boundedBy>'
            '<bldg:boundedBy><gml:Envelope/></bldg:boundedBy>')
    part_surfaces = (
        '<bldg:boundedBy><bldg:GroundSurface><gml:name>g</gml:name>'
        '<bldg:lod3MultiSurface><gml:MultiSurface>'
        + _members([_gml_polygon(_BOX[0], dx=40)])
        + '</gml:MultiSurface></bldg:lod3MultiSurface><bldg:lod2MultiSurface>'
        '<gml:MultiSurface>' + _members([_gml_polygon(_BOX[1], dx=40)])
        + '</gml:MultiSurface></bldg:lod2MultiSurface></bldg:GroundSurface>'
        '</bldg:boundedBy><bldg:boundedBy><bldg:ClosureSurface>'
        '<bldg:lod2MultiSurface><gml:MultiSurface>'
        + _members([_gml_polygon(_BOX[2], dx=40)])
        + '</gml:MultiSurface></bldg:lod2MultiSurface></bldg:ClosureSurface>'
        '</bldg:boundedBy>')
    shared = ('<gml:MultiSurface gml:id="ms-shared">'
              + _members([_gml_polygon(_SQUARE, dx=60)])
              + '</gml:MultiSurface>')
    odd_polygon = (
        '<gml:Polygon><gml:name>odd</gml:name><gml:exterior>'
        '<gml:Ring/></gml:exterior><gml:interior>'
        + _gml_ring(_HOLE, 70) + '</gml:interior></gml:Polygon>')
    building = (
        '<bldg:Building gml:id="b-1"><gml:description>d</gml:description>'
        '<bldg:function>residential</bldg:function>'
        '<bldg:storeysAboveGround>three</bldg:storeysAboveGround>'
        '<bldg:yearOfConstruction>1931</bldg:yearOfConstruction>'
        '<bldg:measuredHeight uom="m">9.8</bldg:measuredHeight>'
        '<bldg:roofType uom="x">gable</bldg:roofType>'
        '<gen:stringAttribute name="district"><gen:value>Oud-West'
        '</gen:value></gen:stringAttribute>'
        '<gen:intAttribute name="dwellings"><gen:value>4</gen:value>'
        '</gen:intAttribute>'
        '<gen:intAttribute name="floors"><gen:value>4.5</gen:value>'
        '</gen:intAttribute>'
        '<gen:doubleAttribute name="area"><gen:value uom="m2">120.5'
        '</gen:value></gen:doubleAttribute>'
        '<gen:measureAttribute name="heat"><gen:value uom="kWh">1520'
        '</gen:value></gen:measureAttribute>'
        '<gen:measureAttribute name="bare"><gen:value>7.5</gen:value>'
        '</gen:measureAttribute>'
        '<gen:dateAttribute name="built"><gen:value>1931-01-01</gen:value>'
        '</gen:dateAttribute>'
        '<gen:uriAttribute name="link"><gen:value>http://example.org/b'
        '</gen:value></gen:uriAttribute>'
        '<gen:stringAttribute><gen:value>nameless</gen:value>'
        '</gen:stringAttribute>'
        '<gen:stringAttribute name="empty"><gen:note/></gen:stringAttribute>'
        '<bldg:address><core:Address/></bldg:address>'
        '<bldg:lod0FootPrint><gml:MultiSurface>'
        + _members([_gml_polygon(_SQUARE, holes=[_HOLE])])
        + '</gml:MultiSurface></bldg:lod0FootPrint>'
        f'<bldg:lod2Solid>{solid}</bldg:lod2Solid>'
        '<bldg:lodding/><bldg:lod1Solid/>'
        '<bldg:lod1MultiCurve><gml:MultiCurve/></bldg:lod1MultiCurve>'
        '<bldg:lod3MultiSurface xlink:href="#ms-shared"/>'
        f'<bldg:lod2MultiSurface>{shared}</bldg:lod2MultiSurface>'
        + roof + wall +
        '<bldg:consistsOfBuildingPart><gml:name>n</gml:name>'
        f'<bldg:BuildingPart gml:id="b-1-p1">{part_surfaces}'
        '<bldg:consistsOfBuildingPart><bldg:BuildingPart>'
        '<bldg:lod1MultiSurface><gml:CompositeSurface>'
        + _members([_gml_polygon(_SQUARE, dx=50)])
        + '</gml:CompositeSurface></bldg:lod1MultiSurface>'
        '</bldg:BuildingPart></bldg:consistsOfBuildingPart>'
        '</bldg:BuildingPart></bldg:consistsOfBuildingPart></bldg:Building>')
    vegetation = (
        '<veg:SolitaryVegetationObject gml:id="t-1">'
        '<veg:species>Tilia x europaea</veg:species>'
        '<veg:height uom="m">12</veg:height>'
        '<veg:trunkDiameter>0.4</veg:trunkDiameter>'
        '<veg:crownDiameter>wide</veg:crownDiameter>'
        '<gen:intAttribute name="age"><gen:value>40</gen:value>'
        '</gen:intAttribute>'
        '<veg:roofType>none</veg:roofType>'
        '<veg:lod1ImplicitRepresentation><core:ImplicitGeometry/>'
        '</veg:lod1ImplicitRepresentation>'
        '<veg:lod2Geometry><gml:CompositeSurface>'
        + _members([_gml_polygon(_SQUARE, dx=80)])
        + '<gml:surfaceMember><gml:OrientableSurface/></gml:surfaceMember>'
        '<gml:Envelope/></gml:CompositeSurface></veg:lod2Geometry>'
        '</veg:SolitaryVegetationObject>')
    return _gml_doc(
        '<gml:name>sink</gml:name>'
        '<gml:boundedBy><gml:Envelope srsName="urn:ogc:def:crs:EPSG::7415"/>'
        '</gml:boundedBy>'
        f'<core:cityObjectMember>{building}</core:cityObjectMember>'
        f'<core:cityObjectMember>{vegetation}</core:cityObjectMember>'
        '<core:cityObjectMember><frn:CityFurniture gml:id="f-1">'
        '<frn:class>bench</frn:class><frn:lod1Geometry><gml:MultiSurface>'
        + _members([odd_polygon]) + '</gml:MultiSurface></frn:lod1Geometry>'
        '</frn:CityFurniture></core:cityObjectMember>'
        '<core:featureMember><gen:GenericCityObject>'
        '<gen:doubleAttribute name="d"><gen:value>2.5</gen:value>'
        '</gen:doubleAttribute></gen:GenericCityObject>'
        '<gen:GenericCityObject/></core:featureMember>'
        '<core:cityObjectMember><bldg:Building><bldg:boundedBy>'
        '<bldg:WallSurface><gml:name>w</gml:name></bldg:WallSurface>'
        '</bldg:boundedBy></bldg:Building></core:cityObjectMember>')


def _one_polygon_building(holder: str, polygon: str) -> str:
    return _gml_doc(
        '<core:cityObjectMember><bldg:Building gml:id="b">'
        f'<bldg:{holder}><gml:MultiSurface><gml:surfaceMember>{polygon}'
        f'</gml:surfaceMember></gml:MultiSurface></bldg:{holder}>'
        '</bldg:Building></core:cityObjectMember>')


def _ring_polygon(inner: str, ring_attrs="") -> str:
    return (f'<gml:Polygon><gml:exterior><gml:LinearRing{ring_attrs}>{inner}'
            '</gml:LinearRing></gml:exterior></gml:Polygon>')


def _gml_inputs():
    """(name, CityGML text) of every import input, in a fixed order.  The
    namespace respellings are left out: the variant tests hold each equal
    to a variant pinned here."""
    out = [(f"square-{name}", make()) for name, make
           in sorted(SQUARE_VARIANTS.items()) if name not in RESPELLED]
    out += [(f"cube-{name}", make()) for name, make
            in sorted(CUBE_VARIANTS.items()) if name not in RESPELLED]
    for seed in (1, 2, 3):
        for part_every in (0, 3):
            scene = synth.make_scene(seed=seed, buildings=8, clusters=2,
                                     part_every=part_every)
            out.append((f"synth-{seed}-parts{part_every}",
                        synth.scene_to_citygml(scene)))
    sink = _kitchen_sink()
    square = _gml_polygon(_SQUARE)
    pos = "".join(f"<gml:pos>{x} {y} {z}</gml:pos>" for x, y, z in _SQUARE)
    pos2 = "".join(f'<gml:pos srsDimension="2">{x} {y}</gml:pos>'
                   for x, y, _ in _SQUARE)
    out += [
        ("kitchen-sink", sink),
        ("pos-2d", _one_polygon_building("lod2MultiSurface",
                                         _ring_polygon(pos2))),
        ("coordinates-ring-2d", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(
                "<gml:coordinates>0,0 8,0 8,5 0,5</gml:coordinates>",
                ' srsDimension="2"'))),
        ("pos-ring-4d", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(pos, ' srsDimension="4"'))),
        ("poslist-odd-count", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(
                "<gml:posList>0 0 0 1 0 0 1 1</gml:posList>"))),
        ("poslist-bad-token", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(
                "<gml:posList>0 0 0 1 zero 0 1 1 0</gml:posList>"))),
        ("poslist-nan-token", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(
                "<gml:posList>0 0 0 1 nan 0 1 1 0</gml:posList>"))),
        ("ring-without-points", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(""))),
        ("ring-too-short", _one_polygon_building(
            "lod2MultiSurface", _ring_polygon(
                "<gml:posList>0 0 0 1 0 0 0 0 0</gml:posList>"))),
        ("lod4-holder", _one_polygon_building("lod4MultiSurface", square)),
        ("lod4-surface", sink.replace("bldg:lod3MultiSurface><gml:Multi"
                                      "Surface><gml:surfaceMember><gml:Pol",
                                      "bldg:lod4MultiSurface><gml:Multi"
                                      "Surface><gml:surfaceMember><gml:Pol",
                                      1).replace(
            "</bldg:lod3MultiSurface><bldg:lod2",
            "</bldg:lod4MultiSurface><bldg:lod2", 1)),
        ("unresolved-xlink", sink.replace('"#k-f1"', '"#ghost"')),
        ("external-xlink", sink.replace('"#k-f1"', '"city.gml#k-f1"')),
        ("unresolved-holder-xlink", sink.replace('"#ms-shared"', '"#no"')),
        ("mixed-crs", sink.replace("<gml:MultiCurve/>",
                                   '<gml:MultiCurve srsName="EPSG:28992"/>')),
        ("non-epsg-crs", sink.replace("urn:ogc:def:crs:EPSG::7415",
                                      "urn:ogc:def:crs:OGC:1.3:CRS84")),
        ("not-citygml", "<Garage/>"),
        ("xml-syntax", "<core:CityModel>"),
    ]
    return out


def _imported(text: str) -> str:
    model, report = gml.import_citygml(text)
    return "\n".join([codec.dumps(model)]
                     + [json.dumps(line) for line in report.to_json_lines()])


# -- extension files and extended models ---------------------------------------


def _extension_docs():
    """(name, extension document) of every load input, in a fixed order."""
    noise = json.loads(NOISE_EXTENSION_PATH.read_text(encoding="utf-8"))
    barrier = {
        "type": "CityJSON_Extension", "name": "Barrier", "version": 1.0,
        "url": "https://example.org/barrier.json",
        "extraCityObjects": {"+NoiseBarrier": {
            "type": "object",
            "properties": {"type": {"type": "string",
                                    "enum": ["+NoiseBarrier"]},
                           "geometry": {"type": "array",
                                        "items": {"type": "object"}},
                           "attributes": {"type": "object", "properties": {
                               "height": {"type": ["number", "integer"]}},
                               "required": ["height"]}},
            "required": ["type", "geometry"]}},
        "extraRootProperties": {"+noise-census": {
            "type": "object", "properties": {"year": {"type": "integer"}}}},
        "extraAttributes": {"Bridge": {"+noise-deck": {"type": "boolean"}}},
    }

    def with_member(member, payload):
        return {"type": "CityJSON_Extension", "name": "X", member: payload}

    out = [("noise", noise), ("barrier", barrier),
           ("not-extension", {"type": "CityJSON", "name": "X"}),
           ("no-name", {"type": "CityJSON_Extension"})]
    for member in ("extraRootProperties", "extraAttributes",
                   "extraCityObjects"):
        out.append((f"{member}-not-object", with_member(member, [])))
    out += [
        ("root-no-plus", with_member("extraRootProperties",
                                     {"census": {"type": "object"}})),
        ("attr-no-plus", with_member("extraAttributes",
                                     {"Building": {"a": {"type": "string"}}})),
        ("cotype-no-plus", with_member("extraCityObjects", {"Kiosk": {
            "properties": {"type": {}, "geometry": {}}}})),
        ("attr-host-unknown", with_member("extraAttributes",
                                          {"+Kiosk": {"+a": {}}})),
        ("cotype-no-geometry-rule", with_member("extraCityObjects", {
            "+Kiosk": {"type": "object", "properties": {"type": {}}}})),
        ("cotype-no-properties", with_member("extraCityObjects",
                                             {"+Kiosk": {}})),
        ("fragment-not-object", with_member("extraRootProperties",
                                            {"+x": "string"})),
        ("fragment-foreign-keyword", with_member(
            "extraRootProperties", {"+x": {"type": "string", "minimum": 3}})),
        ("fragment-unknown-type", with_member(
            "extraAttributes",
            {"Road": {"+x": {"type": ["string", "float"]}}})),
        ("fragment-required-not-list", with_member(
            "extraRootProperties", {"+x": {"required": "value"}})),
        ("fragment-enum-not-list", with_member(
            "extraRootProperties", {"+x": {"enum": "abc"}})),
        ("fragment-nested-keyword", with_member(
            "extraCityObjects", {"+Kiosk": {"properties": {
                "type": {}, "geometry": {"items": {"maxLength": 4}}}}})),
    ]
    return out


def _loaded(doc) -> str:
    ext = extensions.load_extension(doc)
    return json.dumps({name: getattr(ext, name) for name in ext.__slots__},
                      sort_keys=True)


def _extended_models():
    """(name, model) of corpus 08 and mutated copies of it."""
    path = next(p for p in committed_corpus() if p.name.startswith("08-"))
    base = json.loads(path.read_text(encoding="utf-8"))
    oid = next(iter(base["CityObjects"]))

    def mutated(change):
        tree = copy.deepcopy(base)
        change(tree, tree["CityObjects"][oid])
        return codec.loads(json.dumps(tree))

    def wrong_types(tree, co):
        co["attributes"]["+noise-buildingReflection"] = 42
        co["attributes"]["+noise-buildingReflectionCorrection"] = {
            "value": "loud", "uom": 3}

    def undeclared(tree, co):
        co["attributes"]["+noise-unknown"] = 1
        tree["CityObjects"]["k-1"] = {"type": "+Kiosk", "geometry": []}
        tree["+noise-map"] = {"cells": 4}
        tree["extensions"]["Thermal"] = {"url": "t", "version": "2"}

    def barrier(tree, co):
        tree["extensions"]["Barrier"] = {"url": "b", "version": "1.0"}
        tree["CityObjects"]["w-1"] = {"type": "+NoiseBarrier", "geometry": [],
                                      "attributes": {"height": 3}}
        tree["CityObjects"]["w-2"] = {"type": "+NoiseBarrier",
                                      "geometry": [],
                                      "attributes": {"h": "x"}}
        tree["CityObjects"]["br-1"] = {"type": "Bridge", "attributes": {
            "+noise-deck": "yes", "+noise-buildingReflection": "facade"}}
        tree["+noise-census"] = {"year": "2020"}
        tree["+noise-other"] = 1

    def misplaced(tree, co):
        co["shape"] = {"boundaries": [[[0, 1, 2, 3]]]}
        co["footprint"] = [[0, 1, 2], [3, 4, 5]]
        co["scores"] = [1, 2]
        co["nested"] = {"deeper": [{"rings": [[0, 1, 2, 3]]}]}
        co["flags"] = [[True, False, True]]

    return [("08", codec.loads(json.dumps(base))),
            ("08-wrong-types", mutated(wrong_types)),
            ("08-undeclared", mutated(undeclared)),
            ("08-barrier", mutated(barrier)),
            ("08-misplaced", mutated(misplaced))]


def _extension_sets():
    docs = dict(_extension_docs())
    noise = extensions.load_extension(docs["noise"])
    barrier = extensions.load_extension(docs["barrier"])
    clash = extensions.load_extension(
        {"type": "CityJSON_Extension", "name": "Clash",
         "extraRootProperties": {"+noise-census": {"type": "string"}}})
    strict = extensions.load_extension(
        {"type": "CityJSON_Extension", "name": "Noise", "extraAttributes": {
            "Building": {"+noise-buildingReflection": {"enum": ["x"]}}}})
    return [("none", []), ("noise", [noise]),
            ("noise+barrier", [noise, barrier]),
            ("barrier+noise", [barrier, noise]),
            ("barrier+clash", [barrier, clash]),
            ("noise+strict", [noise, strict]),
            ("strict+noise", [strict, noise])]


def _checked(model, exts) -> str:
    return json.dumps([f.to_json()
                       for f in extensions.validate_extended(model, exts)])


# -- validation ----------------------------------------------------------------


def _findings(text, model) -> str:
    """The findings of ``validate_text(text)`` and of ``validate(model)``."""
    return json.dumps({how: [f.to_json() for f in findings] for how, findings
                       in (("text", validation.validate_text(text)),
                           ("model", validation.validate(model)))})


MEMORY_OPS = {
    "subset": lambda m: ops.subset(m, ids=sorted(m.city_objects)),
    "grid2": lambda m: ops.partition_grid(m, 2, 2),
    "clean": geomops.remove_orphan_vertices,
    "dedupe0": geomops.dedupe_vertices,
    "extent": geomops.compute_extent,
}


def _validation_digests(bases) -> dict[str, str]:
    """Findings of every corpus file, of the synth scenes raw and
    quantized, of every shape mutant and of every consistency mutant; and
    what the ops give or raise on the consistency mutants built in
    memory (keys under ``validate/``)."""
    out = {}
    for path in committed_corpus():
        text = path.read_bytes()
        out[f"validate/corpus/{path.name.split('.')[0]}"] = _pinned(
            lambda: _findings(text, codec.parse(text)[0]))
    for name, model in bases:
        if name.startswith("synth-"):
            for variant, m in _variants(model).items():
                out[f"validate/{name}/{variant}"] = _pinned(
                    lambda: _findings(codec.dumps(m), m))
    for name, row in shape_mutants().items():
        out[f"validate/shape/{name}"] = _pinned(
            lambda: _findings(mutant_text(row.tree), record_model(row.tree)))
    for name, tree in consistency_mutants().items():
        out[f"validate/memory/{name}"] = _pinned(
            lambda: _findings(mutant_text(tree), record_model(tree)))
        for op_name, op in MEMORY_OPS.items():
            out[f"validate/memory/{name}/{op_name}"] = _pinned(
                lambda: _encoded(op(record_model(tree))))
    return out


def _help_digests() -> dict[str, str]:
    """The exit code and standard output of ``cjtk --help`` and of
    ``cjtk IN <stage> --help`` for every stage (keys under ``cli/help/``)."""
    out = {}
    for name in ["cjtk", *cli._STAGES]:
        argv = ["--help"] if name == "cjtk" else ["IN", name, "--help"]
        stdout, code = io.StringIO(), None
        try:
            with contextlib.redirect_stdout(stdout):
                cli.main(argv)
        except SystemExit as done:
            code = done.code
        out[f"cli/help/{name}"] = _pinned(
            lambda: f"{code}\n{stdout.getvalue()}")
    return out


def digests() -> dict[str, str]:
    out = _help_digests()
    for name, text in _gml_inputs():
        out[f"gml/{name}"] = _pinned(lambda: _imported(text))
    for name, doc in _extension_docs():
        out[f"ext/load/{name}"] = _pinned(lambda: _loaded(doc))
    for name, model in _extended_models():
        for set_name, exts in _extension_sets():
            out[f"ext/{name}/{set_name}"] = _pinned(
                lambda: _checked(model, exts))
    bases = base_inputs()
    out.update(_validation_digests(bases))
    for name, model in bases:
        variants = _variants(model)
        for variant, m in variants.items():
            for op_name, op in OPS.items():
                out[f"{name}/{variant}/{op_name}"] = _digest(op, m)
        out[f"{name}/merge-mixed-digits"] = _digest(
            lambda: ops.merge(list(variants.values()), policy="suffix"))
    for (a_name, a), (b_name, b) in zip(bases, bases[1:]):
        out[f"{a_name}+{b_name}/merge-neighbours"] = _digest(
            lambda: ops.merge([a, b, a], policy="suffix"))
    return out


def test_op_outputs_match_the_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n",
                      encoding="utf-8")
