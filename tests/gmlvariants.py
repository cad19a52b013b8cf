"""Scripted CityGML spellings of one square and one unit cube.

Every variant in a group describes the identical scene; the importer must
collapse them all onto one deep-equal model.  The square group varies the
coordinate encodings, ring closure, and polygon ids; the cube group varies
where the polygons live (inline in the solid shell with the semantic
surfaces XLinking to them, or inside the semantic surfaces with the shell
XLinking back) and the boundedBy ordering.  Both groups also hold
documents respelled under other namespaces (``RESPELLED``): the CityGML
1.0 URIs, or other prefixes with the core module as default namespace.
"""

import re

_NS = (' xmlns:core="http://www.opengis.net/citygml/2.0"'
       ' xmlns:bldg="http://www.opengis.net/citygml/building/2.0"'
       ' xmlns:gml="http://www.opengis.net/gml"'
       ' xmlns:xlink="http://www.w3.org/1999/xlink"')

SQUARE_POINTS = [(0, 0, 0), (8, 0, 0), (8, 5, 0), (0, 5, 0)]

CUBE_FACES = [
    [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],   # ground
    [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],   # roof
    [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],   # south
    [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],   # east
    [(1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)],   # north
    [(0, 1, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1)],   # west
]

# face index -> semantic surface element
CUBE_CLASSES = {"GroundSurface": [0], "RoofSurface": [1],
                "WallSurface": [2, 3, 4, 5]}


def _document(body: str) -> str:
    return (f'<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<core:CityModel{_NS}>\n{body}\n</core:CityModel>\n')


def _citygml_1(text: str) -> str:
    """``text`` under the CityGML 1.0 namespace URIs."""
    return text.replace('/2.0"', '/1.0"')


def _other_prefixes(text: str) -> str:
    """``text`` with the core module as default namespace and one-letter
    prefixes for the others."""
    for old, new in (("core", ""), ("bldg", "b"), ("gml", "g"),
                     ("xlink", "x")):
        text = re.sub(rf"\b{old}:", f"{new}:" if new else "", text)
        text = text.replace(f"xmlns:{old}=",
                            f"xmlns:{new}=" if new else "xmlns=")
    return text


def _ring_xml(points, spelling="poslist", closed=True) -> str:
    pts = list(points) + ([points[0]] if closed else [])
    if spelling == "poslist":
        text = " ".join(str(c) for p in pts for c in p)
        return f"<gml:posList>{text}</gml:posList>"
    if spelling == "pos":
        return "".join(f"<gml:pos>{p[0]} {p[1]} {p[2]}</gml:pos>" for p in pts)
    if spelling == "coordinates":
        text = " ".join(",".join(str(c) for c in p) for p in pts)
        return f"<gml:coordinates>{text}</gml:coordinates>"
    raise ValueError(spelling)


def _polygon_xml(points, pid=None, spelling="poslist", closed=True,
                 ring_attrs="", ring_inner=None) -> str:
    ident = f' gml:id="{pid}"' if pid else ""
    inner = ring_inner if ring_inner is not None \
        else _ring_xml(points, spelling, closed)
    return (f'<gml:Polygon{ident}><gml:exterior>'
            f'<gml:LinearRing{ring_attrs}>{inner}</gml:LinearRing>'
            f'</gml:exterior></gml:Polygon>')


# ---------------------------------------------------------------------------
# the square group
# ---------------------------------------------------------------------------


def _square_document(polygon: str) -> str:
    return _document(
        '  <core:cityObjectMember>\n'
        '    <bldg:Building gml:id="sq-1">\n'
        '      <bldg:lod2MultiSurface>\n'
        '        <gml:MultiSurface>\n'
        f'          <gml:surfaceMember>{polygon}</gml:surfaceMember>\n'
        '        </gml:MultiSurface>\n'
        '      </bldg:lod2MultiSurface>\n'
        '    </bldg:Building>\n'
        '  </core:cityObjectMember>')


def _square_poslist_one_line():
    return _square_document(_polygon_xml(SQUARE_POINTS, closed=False))


def _square_poslist_wrapped_closed():
    pts = SQUARE_POINTS + [SQUARE_POINTS[0]]
    text = "\n            ".join(f"{p[0]} {p[1]} {p[2]}" for p in pts)
    inner = f'<gml:posList srsDimension="3">\n            {text}\n' \
            '          </gml:posList>'
    return _square_document(_polygon_xml(SQUARE_POINTS, ring_inner=inner))


def _square_repeated_pos():
    return _square_document(_polygon_xml(SQUARE_POINTS, spelling="pos"))


def _square_coordinates_default():
    return _square_document(_polygon_xml(SQUARE_POINTS,
                                         spelling="coordinates"))


def _square_coordinates_custom():
    pts = SQUARE_POINTS + [SQUARE_POINTS[0]]
    text = "|".join(";".join(str(c) for c in p) for p in pts)
    inner = f'<gml:coordinates cs=";" ts="|">{text}</gml:coordinates>'
    return _square_document(_polygon_xml(SQUARE_POINTS, ring_inner=inner))


def _square_polygon_id():
    return _square_document(_polygon_xml(SQUARE_POINTS, pid="sq-poly-1"))


def _square_poslist_2d():
    pts = SQUARE_POINTS + [SQUARE_POINTS[0]]
    text = " ".join(f"{p[0]} {p[1]}" for p in pts)
    inner = f'<gml:posList srsDimension="2">{text}</gml:posList>'
    return _square_document(_polygon_xml(SQUARE_POINTS, ring_inner=inner))


def _square_ring_dimension():
    return _square_document(_polygon_xml(SQUARE_POINTS, closed=False,
                                         ring_attrs=' srsDimension="3"'))


SQUARE_VARIANTS = {
    "poslist-one-line": _square_poslist_one_line,
    "poslist-wrapped-closed": _square_poslist_wrapped_closed,
    "repeated-pos": _square_repeated_pos,
    "coordinates-default": _square_coordinates_default,
    "coordinates-custom-separators": _square_coordinates_custom,
    "poslist-polygon-id": _square_polygon_id,
    "poslist-2d": _square_poslist_2d,
    "ring-carries-dimension": _square_ring_dimension,
    "poslist-one-line-citygml-1.0":
        lambda: _citygml_1(_square_poslist_one_line()),
    "poslist-one-line-other-prefixes":
        lambda: _other_prefixes(_square_poslist_one_line()),
}


# ---------------------------------------------------------------------------
# the cube group
# ---------------------------------------------------------------------------


def _bounded_by_xlinks(order) -> str:
    blocks = []
    for sclass in order:
        members = "".join(f'<gml:surfaceMember xlink:href="#c-f{fi}"/>'
                          for fi in CUBE_CLASSES[sclass])
        blocks.append(
            '      <bldg:boundedBy>\n'
            f'        <bldg:{sclass}>\n'
            '          <bldg:lod2MultiSurface>\n'
            f'            <gml:MultiSurface>{members}</gml:MultiSurface>\n'
            '          </bldg:lod2MultiSurface>\n'
            f'        </bldg:{sclass}>\n'
            '      </bldg:boundedBy>')
    return "\n".join(blocks)


def _bounded_by_polygons(order) -> str:
    blocks = []
    for sclass in order:
        members = "".join(
            '<gml:surfaceMember>'
            + _polygon_xml(CUBE_FACES[fi], pid=f"c-f{fi}")
            + '</gml:surfaceMember>'
            for fi in CUBE_CLASSES[sclass])
        blocks.append(
            '      <bldg:boundedBy>\n'
            f'        <bldg:{sclass}>\n'
            '          <bldg:lod2MultiSurface>\n'
            f'            <gml:MultiSurface>{members}</gml:MultiSurface>\n'
            '          </bldg:lod2MultiSurface>\n'
            f'        </bldg:{sclass}>\n'
            '      </bldg:boundedBy>')
    return "\n".join(blocks)


def _cube_document(solid_members: str, bounded: str) -> str:
    return _document(
        '  <core:cityObjectMember>\n'
        '    <bldg:Building gml:id="cube-1">\n'
        '      <bldg:lod2Solid>\n'
        '        <gml:Solid>\n'
        '          <gml:exterior>\n'
        '            <gml:CompositeSurface>\n'
        f'{solid_members}\n'
        '            </gml:CompositeSurface>\n'
        '          </gml:exterior>\n'
        '        </gml:Solid>\n'
        '      </bldg:lod2Solid>\n'
        f'{bounded}\n'
        '    </bldg:Building>\n'
        '  </core:cityObjectMember>')


def _cube_inline(spelling="poslist",
                 order=("GroundSurface", "RoofSurface", "WallSurface")):
    members = "\n".join(
        '              <gml:surfaceMember>'
        + _polygon_xml(face, pid=f"c-f{fi}", spelling=spelling)
        + '</gml:surfaceMember>'
        for fi, face in enumerate(CUBE_FACES))
    return _cube_document(members, _bounded_by_xlinks(order))


def _cube_xlinked(order=("GroundSurface", "RoofSurface", "WallSurface")):
    members = "\n".join(
        f'              <gml:surfaceMember xlink:href="#c-f{fi}"/>'
        for fi in range(len(CUBE_FACES)))
    return _cube_document(members, _bounded_by_polygons(order))


CUBE_VARIANTS = {
    "inline-shell-xlinked-surfaces": lambda: _cube_inline(),
    "inline-shell-surfaces-reordered": lambda: _cube_inline(
        order=("WallSurface", "RoofSurface", "GroundSurface")),
    "xlinked-shell-inline-surfaces": lambda: _cube_xlinked(),
    "xlinked-shell-surfaces-reordered": lambda: _cube_xlinked(
        order=("WallSurface", "GroundSurface", "RoofSurface")),
    "inline-shell-pos-spelling": lambda: _cube_inline(spelling="pos"),
    "inline-shell-coordinates-spelling":
        lambda: _cube_inline(spelling="coordinates"),
    "inline-shell-xlinked-surfaces-citygml-1.0":
        lambda: _citygml_1(_cube_inline()),
    "xlinked-shell-inline-surfaces-other-prefixes":
        lambda: _other_prefixes(_cube_xlinked()),
}

# The variants that only respell another one's namespaces.
RESPELLED = {name for name in (*SQUARE_VARIANTS, *CUBE_VARIANTS)
             if name.endswith(("-citygml-1.0", "-other-prefixes"))}
