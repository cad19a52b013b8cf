"""CityGML importer: spelling variants, scoped features, error codes."""

import itertools
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


def test_import_peak_memory_is_bounded_by_the_input():
    """Whitespace-only texts and tails never reach the tree, and the
    input is parsed in chunks rather than encoded whole, so the import,
    tree and model together, peaks below 4.5 times the text's length.
    A tree that keeps the whitespace, parsed from the whole text at once,
    peaks at 6 times."""
    text = synth.scene_to_citygml(
        synth.make_scene(seed=7, buildings=120, part_every=5))
    tracemalloc.start()
    try:
        import_citygml(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * len(text)
