"""CityGML importer: spelling variants, scoped features, error codes."""

import io
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cjtk import codec, gml, import_citygml, synth
from cjtk.errors import GmlImportError
from cjtk.validation import validate

from gmlvariants import (CUBE_FACES, CUBE_VARIANTS, SQUARE_VARIANTS,
                         _cube_inline, _document, _polygon_xml)
from helpers import tree_of

_GEN_NS = (' xmlns:core="http://www.opengis.net/citygml/2.0"'
           ' xmlns:bldg="http://www.opengis.net/citygml/building/2.0"'
           ' xmlns:veg="http://www.opengis.net/citygml/vegetation/2.0"'
           ' xmlns:gen="http://www.opengis.net/citygml/generics/2.0"'
           ' xmlns:gml="http://www.opengis.net/gml"'
           ' xmlns:xlink="http://www.w3.org/1999/xlink"')


def gen_document(body: str) -> str:
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<core:CityModel{_GEN_NS}>\n{body}\n</core:CityModel>\n')


def solid_xml(dx=0.0) -> str:
    faces = [[(x + dx, y, z) for x, y, z in face] for face in CUBE_FACES]
    members = "".join("<gml:surfaceMember>" + _polygon_xml(face)
                      + "</gml:surfaceMember>" for face in faces)
    return ('<gml:Solid><gml:exterior><gml:CompositeSurface>'
            f'{members}</gml:CompositeSurface></gml:exterior></gml:Solid>')


# ---------------------------------------------------------------------------
# spelling variants collapse onto one model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SQUARE_VARIANTS))
def test_square_variants_import_identically(name):
    reference, _ = import_citygml(SQUARE_VARIANTS["poslist-one-line"]())
    model, report = import_citygml(SQUARE_VARIANTS[name]())
    assert tree_of(model) == tree_of(reference)
    assert report.features == {"Building": 1}
    assert report.surfaces == 1
    assert validate(model) == []


def test_square_canonical_shape():
    model, _ = import_citygml(SQUARE_VARIANTS["poslist-one-line"]())
    geom = model.city_objects["sq-1"].geometry[0]
    assert geom.type == "MultiSurface" and geom.lod == 2
    assert geom.boundaries == [[[0, 1, 2, 3]]]
    assert model.vertices == [[0.0, 0.0, 0.0], [8.0, 0.0, 0.0],
                              [8.0, 5.0, 0.0], [0.0, 5.0, 0.0]]


@pytest.mark.parametrize("name", sorted(CUBE_VARIANTS))
def test_cube_variants_import_identically(name):
    reference, _ = import_citygml(
        CUBE_VARIANTS["inline-shell-xlinked-surfaces"]())
    model, _ = import_citygml(CUBE_VARIANTS[name]())
    assert tree_of(model) == tree_of(reference)
    assert validate(model) == []


def test_cube_canonical_shape():
    model, report = import_citygml(
        CUBE_VARIANTS["inline-shell-xlinked-surfaces"]())
    geom = model.city_objects["cube-1"].geometry[0]
    assert geom.type == "Solid" and geom.lod == 2
    assert len(model.vertices) == 8
    assert geom.boundaries[0][0] == [[0, 1, 2, 3]]
    assert geom.semantics.surfaces == [{"type": "GroundSurface"},
                                       {"type": "RoofSurface"},
                                       {"type": "WallSurface"}]
    assert geom.semantics.values == [[0, 1, 2, 2, 2, 2]]
    assert report.surfaces == 6


def test_inlined_and_xlinked_twins_are_equal():
    inlined, _ = import_citygml(
        CUBE_VARIANTS["inline-shell-xlinked-surfaces"]())
    xlinked, _ = import_citygml(
        CUBE_VARIANTS["xlinked-shell-inline-surfaces"]())
    assert tree_of(inlined) == tree_of(xlinked)


# ---------------------------------------------------------------------------
# features, attributes, structure
# ---------------------------------------------------------------------------


def test_building_with_part_and_attributes():
    body = f'''  <core:cityObjectMember>
    <bldg:Building gml:id="b-1">
      <bldg:function>residential</bldg:function>
      <bldg:yearOfConstruction>1931</bldg:yearOfConstruction>
      <bldg:measuredHeight uom="m">9.8</bldg:measuredHeight>
      <gen:stringAttribute name="district">
        <gen:value>Oud-West</gen:value>
      </gen:stringAttribute>
      <gen:intAttribute name="dwellings"><gen:value>4</gen:value></gen:intAttribute>
      <gen:doubleAttribute name="parcelArea"><gen:value>120.5</gen:value></gen:doubleAttribute>
      <gen:measureAttribute name="heatDemand"><gen:value uom="kWh">1520.0</gen:value></gen:measureAttribute>
      <bldg:lod2Solid>{solid_xml()}</bldg:lod2Solid>
      <bldg:consistsOfBuildingPart>
        <bldg:BuildingPart gml:id="b-1-p1">
          <bldg:lod2Solid>{solid_xml(dx=2.0)}</bldg:lod2Solid>
        </bldg:BuildingPart>
      </bldg:consistsOfBuildingPart>
    </bldg:Building>
  </core:cityObjectMember>'''
    model, report = import_citygml(gen_document(body))
    assert set(model.city_objects) == {"b-1", "b-1-p1"}
    main = model.city_objects["b-1"]
    part = model.city_objects["b-1-p1"]
    assert main.children == ["b-1-p1"] and part.parents == ["b-1"]
    assert part.type == "BuildingPart"
    assert main.attributes == {
        "function": "residential",
        "yearOfConstruction": 1931,
        "measuredHeight": {"value": 9.8, "uom": "m"},
        "district": "Oud-West",
        "dwellings": 4,
        "parcelArea": 120.5,
        "heatDemand": {"value": 1520.0, "uom": "kWh"},
    }
    assert report.features == {"Building": 1, "BuildingPart": 1}
    assert validate(model) == []


def test_vegetation_feature_and_uom_scalar():
    body = '''  <core:cityObjectMember>
    <veg:SolitaryVegetationObject gml:id="t-1">
      <veg:species>Tilia x europaea</veg:species>
      <veg:height uom="m">12.0</veg:height>
    </veg:SolitaryVegetationObject>
  </core:cityObjectMember>'''
    model, _ = import_citygml(gen_document(body))
    tree = model.city_objects["t-1"]
    assert tree.type == "SolitaryVegetationObject"
    assert tree.attributes == {"species": "Tilia x europaea",
                               "height": {"value": 12.0, "uom": "m"}}


def test_unknown_feature_becomes_generic_and_is_reported():
    body = ('  <core:cityObjectMember>'
            '<bldg:WeirdTower gml:id="w-1"/></core:cityObjectMember>')
    model, report = import_citygml(gen_document(body))
    assert model.city_objects["w-1"].type == "GenericCityObject"
    assert {"element": "WeirdTower",
            "reason": "unknown feature imported as GenericCityObject"} \
        in report.skipped


def test_unnamed_feature_gets_a_counter_id():
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        ' gml:id="sq-1"', "")
    model, _ = import_citygml(text)
    assert set(model.city_objects) == {"Building_1"}


def test_boundedby_only_building_is_assembled():
    # No lodXSolid on the building itself: the semantic surfaces carry
    # the polygons and the importer assembles one MultiSurface.
    full = CUBE_VARIANTS["xlinked-shell-inline-surfaces"]()
    head, _, tail = full.partition("<bldg:lod2Solid>")
    _, _, rest = tail.partition("</bldg:lod2Solid>")
    model, _ = import_citygml(head + rest)
    geom = model.city_objects["cube-1"].geometry[0]
    assert geom.type == "MultiSurface" and geom.lod == 2
    assert len(geom.boundaries) == 6
    assert geom.semantics.values == [0, 1, 2, 2, 2, 2]
    assert validate(model) == []


def test_address_and_envelope_are_quietly_handled():
    body = f'''  <core:cityObjectMember>
    <bldg:Building gml:id="b-1">
      <gml:boundedBy>
        <gml:Envelope srsName="urn:ogc:def:crs:EPSG::7415">
          <gml:lowerCorner>0 0 0</gml:lowerCorner>
          <gml:upperCorner>1 1 1</gml:upperCorner>
        </gml:Envelope>
      </gml:boundedBy>
      <bldg:address><core:Address/></bldg:address>
      <bldg:lod2Solid>{solid_xml()}</bldg:lod2Solid>
    </bldg:Building>
  </core:cityObjectMember>'''
    model, report = import_citygml(gen_document(body))
    assert model.metadata == {"referenceSystem": "EPSG:7415"}
    assert report.crs == "EPSG:7415"
    reasons = {entry["element"] for entry in report.skipped}
    assert "Envelope" not in reasons
    assert "address" in reasons
    assert validate(model) == []


@pytest.mark.parametrize("srs", [
    "EPSG:7415", "urn:ogc:def:crs:EPSG::7415",
    "http://www.opengis.net/def/crs/EPSG/0/7415"])
def test_epsg_spellings(srs):
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        "<gml:MultiSurface>", f'<gml:MultiSurface srsName="{srs}">')
    model, _ = import_citygml(text)
    assert model.metadata["referenceSystem"] == "EPSG:7415"


def test_lod0_holder_is_recognized():
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        "lod2MultiSurface", "lod0FootPrint")
    model, _ = import_citygml(text)
    assert model.city_objects["sq-1"].geometry[0].lod == 0


def test_report_json_lines():
    body = ('  <core:cityObjectMember>'
            '<bldg:WeirdTower gml:id="w-1"/></core:cityObjectMember>')
    _, report = import_citygml(gen_document(body))
    lines = report.to_json_lines()
    assert lines[0]["record"] == "summary"
    assert lines[0]["features"] == {"GenericCityObject": 1}
    assert all(line["record"] == "skipped" for line in lines[1:])


# ---------------------------------------------------------------------------
# error codes
# ---------------------------------------------------------------------------


def expect_code(text, code):
    with pytest.raises(GmlImportError) as exc:
        import_citygml(text)
    assert exc.value.code == code


def test_xml_syntax_error():
    expect_code("<core:CityModel>", "XML_SYNTAX_ERROR")


@pytest.mark.parametrize("encoding", ["Shift_JIS", "no-such-encoding"])
def test_an_encoding_the_parser_cannot_decode(encoding):
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        'encoding="UTF-8"', f'encoding="{encoding}"')
    with pytest.raises(GmlImportError) as exc:
        import_citygml(text.encode("ascii"))
    assert exc.value.code == "XML_SYNTAX_ERROR"
    assert exc.value.message.startswith("cannot decode the document")


def test_not_citygml():
    expect_code("<Garage/>", "NOT_CITYGML")


def test_unresolved_xlink():
    text = _cube_inline().replace('xlink:href="#c-f0"',
                                  'xlink:href="#ghost"')
    expect_code(text, "UNRESOLVED_XLINK")


def test_external_xlink():
    text = _cube_inline().replace('xlink:href="#c-f0"',
                                  'xlink:href="city.xml#c-f0"')
    expect_code(text, "EXTERNAL_XLINK")


@pytest.mark.parametrize("name", ["cs", "ts"])
def test_an_empty_coordinates_separator_is_a_bad_token(name):
    """A coordinates element whose ``cs`` or ``ts`` is empty names no
    separator to split its text at: a coded error, not a crash, read
    member by member and as a whole tree alike."""
    custom = SQUARE_VARIANTS["coordinates-custom-separators"]()
    text = re.sub(f'{name}="[^"]*"', f'{name}=""', custom)
    assert text != custom
    expect_code(text, "BAD_COORDINATE_TOKEN")
    assert _whole_tree_outcome(text) == (
        "BAD_COORDINATE_TOKEN", f"coordinates {name} names no separator")


def test_mixed_crs():
    text = SQUARE_VARIANTS["poslist-one-line"]()
    text = text.replace("<gml:MultiSurface>",
                        '<gml:MultiSurface srsName="EPSG:7415">')
    text = text.replace("<gml:Polygon>",
                        '<gml:Polygon srsName="urn:ogc:def:crs:EPSG::28992">')
    expect_code(text, "MIXED_CRS")


def test_non_epsg_crs():
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        "<gml:MultiSurface>",
        '<gml:MultiSurface srsName="urn:ogc:def:crs:OGC:1.3:CRS84">')
    expect_code(text, "NON_EPSG_CRS")


@pytest.mark.parametrize("srs", [
    "urn:ogc:def:crs,crs:EPSG::28992,crs:EPSG::5709",
    "http://www.opengis.net/def/crs-compound?"
    "1=http://www.opengis.net/def/crs/EPSG/0/28992&amp;"
    "2=http://www.opengis.net/def/crs/EPSG/0/5709"])
def test_compound_crs_is_refused_naming_both_codes(srs):
    """A compound of RD New and NAP heights would otherwise read as its
    last code, the height datum alone."""
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        "<gml:MultiSurface>", f'<gml:MultiSurface srsName="{srs}">')
    with pytest.raises(GmlImportError) as exc:
        import_citygml(text)
    assert exc.value.code == "NON_EPSG_CRS"
    assert "EPSG:28992 and EPSG:5709" in exc.value.message
    assert "CityJSON 1.0 takes one code" in exc.value.message


def test_ring_too_short():
    poly = _polygon_xml([(0, 0, 0), (1, 0, 0)], closed=False)
    body = (f'  <core:cityObjectMember><bldg:Building gml:id="b">'
            f'<bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>'
            f'{poly}</gml:surfaceMember></gml:MultiSurface>'
            f'</bldg:lod2MultiSurface></bldg:Building>'
            f'</core:cityObjectMember>')
    expect_code(_document(body), "RING_TOO_SHORT")


def test_closure_does_not_count_as_a_corner():
    poly = _polygon_xml([(0, 0, 0), (1, 0, 0)], closed=True)
    body = (f'  <core:cityObjectMember><bldg:Building gml:id="b">'
            f'<bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>'
            f'{poly}</gml:surfaceMember></gml:MultiSurface>'
            f'</bldg:lod2MultiSurface></bldg:Building>'
            f'</core:cityObjectMember>')
    expect_code(_document(body), "RING_TOO_SHORT")


@pytest.mark.parametrize("ring_inner", [
    "<gml:posList>0 0 zero 1 0 0 1 1 0</gml:posList>",   # bad token
    "<gml:posList>0 0 0 1 0 0 1 1</gml:posList>",        # 8 % 3 != 0
    "",                                                   # no spelling at all
    '<gml:posList srsDimension="abc">0 0 0 1 0 0 1 1 0</gml:posList>',
    '<gml:pos srsDimension="3.0">0 0 0</gml:pos><gml:pos>1 0 0</gml:pos>'
    '<gml:pos>1 1 0</gml:pos>',
])
def test_bad_coordinate_tokens(ring_inner):
    poly = _polygon_xml([], ring_inner=ring_inner)
    body = (f'  <core:cityObjectMember><bldg:Building gml:id="b">'
            f'<bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>'
            f'{poly}</gml:surfaceMember></gml:MultiSurface>'
            f'</bldg:lod2MultiSurface></bldg:Building>'
            f'</core:cityObjectMember>')
    expect_code(_document(body), "BAD_COORDINATE_TOKEN")


def test_lod4_rejected():
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        "lod2MultiSurface", "lod4MultiSurface")
    expect_code(text, "LOD4_UNSUPPORTED")


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_non_finite_coordinate_tokens(token):
    poly = _polygon_xml([], ring_inner=f"<gml:posList>0 0 0 1 {token} 0 "
                                       "1 1 0</gml:posList>")
    body = (f'  <core:cityObjectMember><bldg:Building gml:id="b">'
            f'<bldg:lod2MultiSurface><gml:MultiSurface><gml:surfaceMember>'
            f'{poly}</gml:surfaceMember></gml:MultiSurface>'
            f'</bldg:lod2MultiSurface></bldg:Building>'
            f'</core:cityObjectMember>')
    expect_code(_document(body), "BAD_COORDINATE_TOKEN")


def test_non_finite_attribute_values_stay_text():
    body = f'''  <core:cityObjectMember>
    <bldg:Building gml:id="b-1">
      <bldg:measuredHeight uom="m">INF</bldg:measuredHeight>
      <gen:doubleAttribute name="parcelArea"><gen:value>NaN</gen:value></gen:doubleAttribute>
      <gen:measureAttribute name="heatDemand"><gen:value uom="kWh">-inf</gen:value></gen:measureAttribute>
      <bldg:lod2Solid>{solid_xml()}</bldg:lod2Solid>
    </bldg:Building>
  </core:cityObjectMember>'''
    model, _ = import_citygml(gen_document(body))
    assert model.city_objects["b-1"].attributes == {
        "measuredHeight": {"value": "INF", "uom": "m"},
        "parcelArea": "NaN",
        "heatDemand": {"value": "-inf", "uom": "kWh"},
    }
    assert tree_of(codec.loads(codec.dumps(model))) == tree_of(model)


def _multisurface_building(*multisurfaces: str) -> str:
    """A building with one lod2MultiSurface holder per MultiSurface."""
    holders = "".join(f"<bldg:lod2MultiSurface>{ms}</bldg:lod2MultiSurface>"
                      for ms in multisurfaces)
    return gen_document(
        '  <core:cityObjectMember><bldg:Building gml:id="b">'
        f'{holders}</bldg:Building></core:cityObjectMember>')


def _nested_multisurface(depth: int, polygon: str) -> str:
    """``polygon`` at the bottom of ``depth`` nested MultiSurfaces."""
    return ("<gml:MultiSurface><gml:surfaceMember>" * depth + polygon
            + "</gml:surfaceMember></gml:MultiSurface>" * depth)


def hostile_documents():
    """CityGML documents the importer must refuse with a coded error, by
    name: (document, code, message fragment)."""
    square = _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    bad_square = _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)],
                              ring_attrs=' srsDimension="abc"')
    hops = 2000
    return {
        "epsg-code-of-5000-digits": (
            _multisurface_building(
                f'<gml:MultiSurface srsName="EPSG:{"7" * 5000}">'
                f'<gml:surfaceMember>{square}</gml:surfaceMember>'
                '</gml:MultiSurface>'),
            "NON_EPSG_CRS", "5000 digits"),
        "bad-ring-3000-multisurfaces-deep": (
            _multisurface_building(_nested_multisurface(3000, bad_square)),
            "BAD_COORDINATE_TOKEN", "srsDimension 'abc'"),
        "xlink-chain-of-2000-hops-back-to-its-start": (
            _multisurface_building(*(
                f'<gml:MultiSurface gml:id="ms{i}"><gml:surfaceMember '
                f'xlink:href="#ms{(i + 1) % hops}"/></gml:MultiSurface>'
                for i in range(hops))),
            "UNRESOLVED_XLINK", "reference cycle through #ms0"),
        "ring-dimension-not-an-integer": (
            _multisurface_building(
                '<gml:MultiSurface><gml:surfaceMember>'
                + _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)],
                               ring_attrs=' srsDimension="abc"')
                + '</gml:surfaceMember></gml:MultiSurface>'),
            "BAD_COORDINATE_TOKEN", "srsDimension 'abc'"),
        "xlink-cycle-to-itself": (
            _multisurface_building(
                '<gml:MultiSurface gml:id="ms">'
                '<gml:surfaceMember xlink:href="#ms"/></gml:MultiSurface>'),
            "UNRESOLVED_XLINK", "reference cycle through #ms"),
        "xlink-cycle-of-two": (
            _multisurface_building(
                '<gml:MultiSurface gml:id="ms1"><gml:surfaceMember>'
                f'{square}</gml:surfaceMember>'
                '<gml:surfaceMember xlink:href="#ms2"/></gml:MultiSurface>',
                '<gml:MultiSurface gml:id="ms2">'
                '<gml:surfaceMember xlink:href="#ms1"/></gml:MultiSurface>'),
            "UNRESOLVED_XLINK", "reference cycle through #ms"),
        "bad-srs-on-a-root-that-is-not-citygml": (
            '<Garage srsName="urn:ogc:def:crs:OGC:1.3:CRS84"/>',
            "NOT_CITYGML", "root element is 'Garage'"),
        "bad-srs-after-an-unresolved-xlink": (
            _multisurface_building(
                '<gml:MultiSurface><gml:surfaceMember xlink:href="#ghost"/>'
                '</gml:MultiSurface>',
                '<gml:MultiSurface srsName="urn:ogc:def:crs:OGC:1.3:CRS84">'
                f'<gml:surfaceMember>{square}</gml:surfaceMember>'
                '</gml:MultiSurface>'),
            "NON_EPSG_CRS", "cannot read an EPSG code"),
        "nested-bad-srs-names-name-the-outer-one": (
            _multisurface_building(
                '<gml:MultiSurface srsName="urn:ogc:def:crs:OGC:1.3:CRS84">'
                '<gml:surfaceMember>'
                + square.replace("<gml:Polygon>",
                                 '<gml:Polygon srsName="urn:inner:crs">')
                + '</gml:surfaceMember></gml:MultiSurface>'),
            "NON_EPSG_CRS", "'urn:ogc:def:crs:OGC:1.3:CRS84'"),
        "bad-srs-early-in-a-document-cut-short": (
            _multisurface_building(
                '<gml:MultiSurface srsName="urn:ogc:def:crs:OGC:1.3:CRS84">'
                f'<gml:surfaceMember>{square}</gml:surfaceMember>'
                '</gml:MultiSurface>')[:-40],
            "XML_SYNTAX_ERROR", "not well-formed XML"),
    }


@pytest.mark.parametrize("name", sorted(hostile_documents()))
def test_hostile_documents_are_refused_with_a_code(name):
    text, code, message = hostile_documents()[name]
    with pytest.raises(GmlImportError) as exc:
        import_citygml(text)
    assert exc.value.code == code
    assert message in exc.value.message


def test_a_shared_link_target_is_not_a_cycle():
    square = _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    text = _multisurface_building(
        '<gml:MultiSurface><gml:surfaceMember xlink:href="#ms"/>'
        '<gml:surfaceMember xlink:href="#ms"/></gml:MultiSurface>',
        f'<gml:MultiSurface gml:id="ms"><gml:surfaceMember>{square}'
        '</gml:surfaceMember></gml:MultiSurface>')
    model, _ = import_citygml(text)
    assert [g.boundaries for g in model.city_objects["b"].geometry] \
        == [[[[0, 1, 2]], [[0, 1, 2]]], [[[0, 1, 2]]]]


@pytest.mark.parametrize("earlier_holder", [False, True])
def test_a_duplicated_id_belongs_to_the_first_element_in_document_order(
        earlier_holder):
    """An ancestor comes before its descendants in document order, so a
    MultiSurface keeps the id it shares with one nested inside it; an
    element earlier still keeps it from both."""
    low = _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    high = _polygon_xml([(0, 0, 1), (1, 0, 1), (1, 1, 1)])
    holders = [
        '<gml:MultiSurface><gml:surfaceMember xlink:href="#ms"/>'
        '</gml:MultiSurface>',
        f'<gml:MultiSurface gml:id="ms"><gml:surfaceMember>{low}'
        '</gml:surfaceMember><gml:surfaceMember><gml:MultiSurface gml:id="ms">'
        f'<gml:surfaceMember>{high}</gml:surfaceMember></gml:MultiSurface>'
        '</gml:surfaceMember></gml:MultiSurface>']
    if earlier_holder:
        holders.insert(0, f'<gml:MultiSurface gml:id="ms"><gml:surfaceMember>'
                          f'{high}</gml:surfaceMember></gml:MultiSurface>')
    model, _ = import_citygml(_multisurface_building(*holders))
    linked = model.city_objects["b"].geometry[int(earlier_holder)]
    rings = [[model.vertices[i] for i in ring] for poly in linked.boundaries
             for ring in poly]
    low_ring = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    high_ring = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    assert rings == ([high_ring] if earlier_holder else [low_ring, high_ring])


def test_deep_nesting_imports():
    square = _polygon_xml([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    model, report = import_citygml(
        _multisurface_building(_nested_multisurface(3000, square)))
    assert [g.boundaries for g in model.city_objects["b"].geometry] \
        == [[[[0, 1, 2]]]]
    assert report.skipped == []


def test_deeply_nested_building_parts_import():
    depth = 2000
    body = ('  <core:cityObjectMember><bldg:Building gml:id="b">'
            + "<bldg:consistsOfBuildingPart><bldg:BuildingPart>" * depth
            + "</bldg:BuildingPart></bldg:consistsOfBuildingPart>" * depth
            + "</bldg:Building></core:cityObjectMember>")
    model, report = import_citygml(gen_document(body))
    assert report.features == {"Building": 1, "BuildingPart": depth}
    assert model.city_objects["BuildingPart_1"].parents == ["b"]
    assert model.city_objects[f"BuildingPart_{depth}"].parents \
        == [f"BuildingPart_{depth - 1}"]


# ---------------------------------------------------------------------------
# the incremental parse: whitespace, chunks and memory
# ---------------------------------------------------------------------------

_VARIANTS = {**SQUARE_VARIANTS, **CUBE_VARIANTS}
_GAP = re.compile(r">\s*<")


def _outcome(text):
    model, report = import_citygml(text)
    return tree_of(model), report.to_json_lines()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(_VARIANTS)),
       gaps=st.lists(st.sampled_from(["", " ", "\n", "\t", "\n        "]),
                     min_size=1, max_size=6),
       crlf=st.booleans())
def test_whitespace_between_tags_changes_nothing(name, gaps, crlf):
    """Re-indented documents (whitespace between tags taken out or put in,
    CRLF line ends) import to the same model and report."""
    text = _VARIANTS[name]()
    spacing = itertools.cycle(gaps)
    respaced = _GAP.sub(lambda _: f">{next(spacing)}<", text)
    if crlf:
        respaced = respaced.replace("\n", "\r\n")
    assert _outcome(respaced) == _outcome(text)


@pytest.mark.parametrize("shift", range(4))
def test_a_non_ascii_name_across_a_chunk_boundary(shift):
    """A generic attribute whose name and value straddle a boundary
    between the parser's chunks, in characters and in UTF-8 and UTF-16
    bytes alike, reads the same in every encoding; the shifts split a
    multibyte character at the boundary in some of them."""
    street = "Straße Schön " + "ßö🏠" * 150
    member = ('  <core:cityObjectMember><bldg:Building gml:id="b{}">'
              '<bldg:lod2Solid>{}</bldg:lod2Solid></bldg:Building>'
              '</core:cityObjectMember>\n')
    before = "".join(member.format(i, solid_xml(2 * i)) for i in range(70))
    after = "".join(member.format(i, solid_xml(2 * i))
                    for i in range(70, 80))
    named = ('  <core:cityObjectMember><bldg:Building gml:id="named">'
             f'<gen:stringAttribute name="{street}"><gen:value>{street}'
             '</gen:value></gen:stringAttribute></bldg:Building>'
             '</core:cityObjectMember>\n')
    head = gen_document(before)[:-len("\n</core:CityModel>\n")]
    boundary = 2 * gml._CHUNK
    pad = boundary - len(head) - named.index("name=") - len(street) // 2
    assert pad >= 0
    text = gen_document(before + " " * (pad + shift) + named + after)
    utf16 = text.replace('encoding="UTF-8"', 'encoding="UTF-16"') \
        .encode("utf-16")
    for data, part in ((text, street),
                       (text.encode("utf-8"), street.encode("utf-8")),
                       (utf16, street.encode("utf-16-le"))):
        first = data.index(part)
        assert first // gml._CHUNK < (first + len(part)) // gml._CHUNK
    utf8 = _outcome(text.encode("utf-8"))
    assert _outcome(text) == utf8
    assert _outcome(utf16) == utf8
    assert utf8[0]["CityObjects"]["named"]["attributes"] == {street: street}


def _peak_and_model(text) -> tuple[int, int]:
    """The traced peak of importing ``text``, and what the finished model
    and report hold."""
    tracemalloc.start()
    try:
        result = import_citygml(text)
        model, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, model


def test_import_peak_memory_is_bounded_by_the_input():
    """Whitespace-only texts and tails never reach the tree, the input is
    parsed in chunks rather than encoded whole, and each member is freed
    once converted, so the import, tree and model together, peaks below
    2 times the text's length (1.58 on Python 3.11).  A tree held whole
    until the document ends peaks at 4 times; one that also keeps the
    whitespace, parsed from the whole text at once, at 6 times."""
    text = synth.scene_to_citygml(
        synth.make_scene(seed=7, buildings=120, part_every=5))
    peak, _ = _peak_and_model(text)
    assert peak < 2 * len(text)


def test_import_overhead_does_not_grow_with_the_tree():
    """The tree holds one member at a time, so what the import holds
    beyond the model it builds (the parser's chunk and one member's
    subtree) stays put as the document grows; only the vertex pool's index
    and the gml:ids of freed members grow.  From 60 to 240 buildings that
    overhead grows by less than a quarter of the input's growth (about an
    eighth on Python 3.11); a tree held whole grows by about 3 times it."""
    sizes, overheads = [], []
    for buildings in (60, 240):
        text = synth.scene_to_citygml(
            synth.make_scene(seed=7, buildings=buildings, part_every=5))
        peak, model = _peak_and_model(text)
        sizes.append(len(text))
        overheads.append(peak - model)
    assert overheads[1] - overheads[0] < (sizes[1] - sizes[0]) / 4


def test_a_document_read_twice_peaks_as_a_whole_tree_reading(reads):
    """A link from the last member back to the first is found only at the
    end, when the first read has built nearly the whole model.  That read
    is let go of before the second starts, so the import peaks as the
    whole-tree reading alone does (4 times on Python 3.11), not at the
    two together."""
    text = synth.scene_to_citygml(
        synth.make_scene(seed=7, buildings=120, part_every=5))
    linking = ('<core:cityObjectMember><bldg:Building gml:id="linking">'
               '<bldg:lod2MultiSurface><gml:MultiSurface>'
               '<gml:surfaceMember xlink:href="#b0-f0"/></gml:MultiSurface>'
               '</bldg:lod2MultiSurface></bldg:Building>'
               '</core:cityObjectMember>\n')
    text = text.replace("</core:CityModel>", linking + "</core:CityModel>")
    assert reads(text) == 2
    peak, _ = _peak_and_model(text)
    assert peak < 4.5 * len(text)


def test_an_indented_document_read_twice_peaks_as_a_whole_tree_reading(
        reads):
    """With every tag on a line of its own, the second read drops the
    whitespace of each member once the chunk that completes it is parsed,
    so the whitespace it holds at once is that of one chunk, and the import
    peaks under the same bound as the compact document."""
    text = synth.scene_to_citygml(
        synth.make_scene(seed=7, buildings=120, part_every=5))
    text = _GAP.sub(">\n" + " " * 12 + "<", text.replace(
        "</core:CityModel>",
        _member("linking", "#b0-f0") + "</core:CityModel>"))
    assert reads(text) == 2
    peak, _ = _peak_and_model(text)
    assert peak < 4.5 * len(text)


# ---------------------------------------------------------------------------
# member by member: a document one member cannot settle is read again
# ---------------------------------------------------------------------------

_LOW = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
_HIGH = [(0, 0, 1), (1, 0, 1), (1, 1, 1)]


def _member(bid: str, *surfaces: str, holders: str = "") -> str:
    """A cityObjectMember holding the building ``bid``: one
    lod2MultiSurface of ``surfaces`` (each a polygon, or "#id" for a
    link to one), then ``holders``."""
    members = "".join(
        f'<gml:surfaceMember xlink:href="{s}"/>' if s.startswith("#")
        else f"<gml:surfaceMember>{s}</gml:surfaceMember>"
        for s in surfaces)
    return (f'  <core:cityObjectMember><bldg:Building gml:id="{bid}">'
            f'<bldg:lod2MultiSurface><gml:MultiSurface>{members}'
            f'</gml:MultiSurface></bldg:lod2MultiSurface>{holders}'
            '</bldg:Building></core:cityObjectMember>\n')


@pytest.fixture()
def reads(monkeypatch):
    """How many times importing a document reads it."""
    frees = []
    real = gml._import
    monkeypatch.setattr(gml, "_import", lambda source, free:
                        frees.append(free) or real(source, free))

    def count(source) -> int:
        frees.clear()
        try:
            import_citygml(source)
        except GmlImportError:
            pass
        return len(frees)
    return count


def test_a_document_without_links_across_members_is_read_once(reads):
    text = synth.scene_to_citygml(
        synth.make_scene(seed=7, buildings=20, part_every=5))
    assert reads(text) == 1
    assert reads(CUBE_VARIANTS["xlinked-shell-inline-surfaces"]()) == 1


def test_a_link_back_to_an_earlier_member(reads):
    """Building 2 links a polygon of building 1, whose member is freed by
    then."""
    linked = gen_document(_member("b1", _polygon_xml(_LOW, pid="p1"))
                          + _member("b2", "#p1"))
    inlined = gen_document(_member("b1", _polygon_xml(_LOW, pid="p1"))
                           + _member("b2", _polygon_xml(_LOW)))
    assert _outcome(linked) == _outcome(inlined)
    assert (reads(linked), reads(inlined)) == (2, 1)


def test_a_link_forward_to_a_later_member(reads):
    linked = gen_document(_member("b1", "#p2")
                          + _member("b2", _polygon_xml(_HIGH, pid="p2")))
    inlined = gen_document(_member("b1", _polygon_xml(_HIGH))
                           + _member("b2", _polygon_xml(_HIGH, pid="p2")))
    assert _outcome(linked) == _outcome(inlined)
    assert (reads(linked), reads(inlined)) == (2, 1)


def test_a_link_forward_within_one_chunk(reads):
    """The starts of a whole chunk are taken before its complete members
    are converted, so the target of a link to the next member is indexed
    by then.  It is still a link out of the member: the document is read
    again, as where the target lies in a later chunk."""
    text = gen_document(_member("b1", "#p2")
                        + _member("b2", _polygon_xml(_HIGH, pid="p2"))
                        + _member("b3", _polygon_xml(_LOW)))
    assert len(text) < gml._CHUNK
    assert reads(text) == 2
    assert _outcome(text) == _whole_tree_outcome(text)


def test_a_member_that_ends_with_a_chunk(reads, monkeypatch):
    """A member whose end tag ends a chunk is the root's last child when
    that chunk is settled, so it waits for the next one: read once where
    its links stay inside it, twice where a later member links into it,
    and as the whole-tree reading either way."""
    plain = synth.scene_to_citygml(synth.make_scene(seed=5, buildings=3))
    linked = plain.replace(
        "</core:CityModel>",
        _member("linking", "#b0-f0") + "</core:CityModel>")
    for text, times in ((plain, 1), (linked, 2)):
        expected = _whole_tree_outcome(text)
        ends = [m.end() for m in re.finditer("</core:cityObjectMember>",
                                             text)]
        assert len(ends) >= 3
        for end in ends:
            monkeypatch.setattr(gml, "_CHUNK", end)
            assert reads(text) == times, end
            assert _outcome(text) == expected, end


def test_an_id_repeated_in_a_later_member_and_linked_there(reads):
    """The first element in document order keeps a gml:id, even where its
    member is freed before the second one comes.  Only a link to the id
    needs the whole tree; the repeated id alone is read once."""
    linked = gen_document(
        _member("b1", _polygon_xml(_LOW, pid="p"))
        + _member("b2", _polygon_xml(_HIGH, pid="p"), "#p"))
    inlined = gen_document(
        _member("b1", _polygon_xml(_LOW, pid="p"))
        + _member("b2", _polygon_xml(_HIGH, pid="q"), _polygon_xml(_LOW)))
    repeated = gen_document(
        _member("b1", _polygon_xml(_LOW, pid="p"))
        + _member("b2", _polygon_xml(_HIGH, pid="p")))
    assert _outcome(linked) == _outcome(inlined)
    assert (reads(linked), reads(inlined)) == (2, 1)
    assert _outcome(repeated) == _whole_tree_outcome(repeated)
    assert reads(repeated) == 1


def test_a_root_id_equal_to_a_member_element_id(reads):
    """The root starts first in document order, so it keeps the id that
    the MultiSurface inside it carries again: the link leads to the root,
    as a link to the root's own id does."""
    def document(root_id: str, target: str) -> str:
        body = _member("b", _polygon_xml(_LOW), holders=(
            f'<bldg:lod1MultiSurface xlink:href="#{target}"/>'))
        body = body.replace("<gml:MultiSurface>",
                            '<gml:MultiSurface gml:id="ms">')
        return gen_document(body).replace(
            "<core:CityModel", f'<core:CityModel gml:id="{root_id}"', 1)

    taken_over, to_the_root = document("ms", "ms"), document("city", "city")
    model, report = import_citygml(taken_over)
    assert [g.lod for g in model.city_objects["b"].geometry] == [2]
    assert report.skipped == [{"element": "CityModel",
                               "reason": "unsupported geometry of b"}]
    assert _outcome(taken_over) == _outcome(to_the_root)
    assert (reads(taken_over), reads(to_the_root)) == (2, 2)


def test_a_link_to_the_root_between_members_reads_the_whole_tree(reads):
    """While members are freed, the root is still open, and it already
    holds the later members of the parsed chunk under their namespaced
    tags: a link to the root's own id reads the document again, so the
    link walks the root as the whole-tree reading does."""
    text = gen_document(
        _member("b1", _polygon_xml(_LOW))
        + _member("b2", _polygon_xml(_HIGH), "#city")
        + _member("b3", _polygon_xml(_LOW))).replace(
        "<core:CityModel", '<core:CityModel gml:id="city"', 1)
    assert _outcome(text) == _whole_tree_outcome(text)
    assert reads(text) == 2
    _, report = import_citygml(text)
    assert not any("{" in entry["element"] for entry in report.skipped)


def test_a_city_object_member_below_the_root_is_not_a_member(reads):
    """Only children of the root are members; one nested in a building or
    in an unsupported document member is reported with its parent, not
    imported."""
    text = gen_document(
        _member("b1", _polygon_xml(_LOW)).replace(
            "</bldg:Building>",
            _member("inner1", _polygon_xml(_HIGH)) + "</bldg:Building>")
        + f"  <core:wrapper>{_member('inner2', _polygon_xml(_HIGH))}"
          "</core:wrapper>\n"
        + _member("b2", _polygon_xml(_HIGH)))
    model, report = import_citygml(text)
    assert list(model.city_objects) == ["b1", "b2"]
    assert report.skipped == [
        {"element": "cityObjectMember",
         "reason": "unsupported building member"},
        {"element": "wrapper", "reason": "unsupported document member"}]
    assert reads(text) == 1


def test_skips_keep_document_order_across_members(reads):
    """Each member's skips are reported as it is converted, and an
    unsupported document member's in its place between them."""
    text = gen_document(
        _member("b1", _polygon_xml(_LOW), holders="<bldg:address/>")
        + "  <core:appearanceMember/>\n"
        + '  <core:cityObjectMember><bldg:Garage gml:id="g"/>'
          "</core:cityObjectMember>\n"
        + "  <gml:boundedBy/>\n")
    _, report = import_citygml(text)
    assert report.skipped == [
        {"element": "address", "reason": "addresses are not imported"},
        {"element": "appearanceMember",
         "reason": "unsupported document member"},
        {"element": "Garage",
         "reason": "unknown feature imported as GenericCityObject"}]
    assert reads(text) == 1


def test_an_srs_error_after_a_failing_member_still_comes_first(reads):
    """Member 1 links nowhere, but a later member's srsName that is not an
    EPSG code is the error, as where the whole tree is read first."""
    bad_srs = _member("b3", _polygon_xml(_HIGH)).replace(
        "<gml:MultiSurface>",
        '<gml:MultiSurface srsName="urn:ogc:def:crs:OGC:1.3:CRS84">')
    text = gen_document(_member("b1", "#ghost")
                        + _member("b2", _polygon_xml(_LOW)) + bad_srs)
    expect_code(text, "NON_EPSG_CRS")
    expect_code(text.replace(bad_srs, ""), "UNRESOLVED_XLINK")
    assert reads(text) == 2


def _whole_tree_outcome(text):
    """The outcome of the second read alone: the whole tree kept, every
    member converted once the parse is done."""
    try:
        model, report = gml._import(text, free=False)
    except GmlImportError as exc:
        return exc.code, exc.message
    return tree_of(model), report.to_json_lines()


_ID = re.compile(r'gml:id="([^"]+)"')
_ROOT_ID = re.compile(r'<core:CityModel gml:id="([^"]+)"')
_HREF = re.compile(r'xlink:href="#([^"]+)"')


def _mutated(rng, text: str) -> str:
    """``text`` with one change, of the kinds that a member may not
    settle alone and a few that it may."""
    ids = _ID.findall(text)
    kind = rng.randrange(8)
    if kind < 2:  # a link retargeted, or an id repeated, anywhere
        spots = list((_HREF if kind == 0 else _ID).finditer(text))
        at = rng.choice(spots)
        return text[:at.start(1)] + rng.choice(ids) + text[at.end(1):]
    if kind == 2:
        return text.replace("<core:CityModel",
                            f'<core:CityModel gml:id="{rng.choice(ids)}"', 1)
    if kind == 3 or kind == 7:  # a member linking to an id, or the root's
        target = rng.choice(ids)
        if kind == 7:
            root = _ROOT_ID.search(text)
            if root is None:
                text = text.replace("<core:CityModel",
                                    '<core:CityModel gml:id="city"', 1)
            target = root.group(1) if root else "city"
        members = [m.start() for m in re.finditer("  <core:cityObjectMember>",
                                                  text)]
        spare = _member(rng.choice(ids + ["spare"]), _polygon_xml(_LOW),
                        f"#{target}")
        at = rng.choice(members)
        return text[:at] + rng.choice(
            [spare, f"<core:wrapper>{spare}</core:wrapper>"]) + text[at:]
    if kind == 4:
        spots = list(re.finditer("<gml:(MultiSurface|Polygon)", text))
        at = rng.choice(spots).end()
        srs = rng.choice(["EPSG:7415", "EPSG:28992", "urn:bad"])
        return text[:at] + f' srsName="{srs}"' + text[at:]
    if kind == 5:
        spots = list(re.finditer("<gml:posList>", text))
        at = rng.choice(spots).end()
        return text[:at] + rng.choice(["x ", "", "1 2 "]) + text[at:]
    # a second feature in a member, without an id
    return text.replace("</bldg:Building>", "</bldg:Building><bldg:Shed/>", 1)


@pytest.mark.parametrize("seed", range(40))
def test_member_by_member_reads_as_the_whole_tree_does(seed, monkeypatch):
    """Documents with links and ids across members, root ids and links to
    them, nested members, srsNames and bad coordinates import exactly as
    the whole-tree reading does: the same model and report, or the same
    error.  So they do as a str, as UTF-8 bytes and as a binary file, and
    in chunks small enough that members span several of them, down to
    one character or byte, so that every member ends with a chunk."""
    rng = random.Random(seed)
    text = synth.scene_to_citygml(synth.make_scene(
        seed=seed, buildings=rng.randrange(1, 5),
        part_every=rng.choice([0, 2])))
    for _ in range(rng.randrange(1, 4)):
        text = _mutated(rng, text)
    expected = _whole_tree_outcome(text)
    data = text.encode("utf-8")
    for chunk in (gml._CHUNK, 997, 61, 7, 1):
        monkeypatch.setattr(gml, "_CHUNK", chunk)
        for source in (text, data, io.BytesIO(data)):
            try:
                outcome = _outcome(source)
            except GmlImportError as exc:
                outcome = exc.code, exc.message
            assert outcome == expected, (chunk, type(source).__name__)


@pytest.mark.parametrize("kind", ["file", "file-at-an-offset",
                                  "file-that-cannot-seek"])
def test_a_binary_file_imports_as_its_bytes_do(kind, tmp_path):
    """A file is read in chunks from where it stands, and rewound to
    there for a second read; one that cannot seek is read whole."""
    class Unseekable(io.BytesIO):
        def seekable(self):
            return False

    for text in (synth.scene_to_citygml(synth.make_scene(seed=3,
                                                         buildings=8)),
                 gen_document(_member("b1", "#p2")
                              + _member("b2", _polygon_xml(_HIGH,
                                                           pid="p2")))):
        data = text.encode("utf-8")
        if kind == "file":
            path = tmp_path / "city.gml"
            path.write_bytes(data)
            with open(path, "rb") as source:
                assert _outcome(source) == _outcome(data)
        elif kind == "file-at-an-offset":
            source = io.BytesIO(b"<skipped/>" + data)
            source.seek(len(b"<skipped/>"))
            assert _outcome(source) == _outcome(data)
        else:
            assert _outcome(Unseekable(data)) == _outcome(data)
