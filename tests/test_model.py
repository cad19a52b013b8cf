"""Data-model invariants: boundary depths, traversal helpers, JSON shape,
and the record types' value behaviour."""

import copy
import pickle

import pytest

from cjtk import (CityModel, CityObject, Geometry, Transform, boundary_depth,
                  codec)
from cjtk.errors import CjtkError
from cjtk.model import (FIRST_LEVEL_TYPES, SECOND_LEVEL_TYPES, Record,
                        Semantics, TemplateBank, indices_of, map_boundaries,
                        replace)

from conftest import committed_corpus
from helpers import CUBE_SHELL, as_model, cube_tree, tree_of


@pytest.mark.parametrize("kind,depth", [
    ("MultiPoint", 1),
    ("MultiLineString", 2),
    ("MultiSurface", 3),
    ("CompositeSurface", 3),
    ("Solid", 4),
    ("MultiSolid", 5),
    ("CompositeSolid", 5),
])
def test_boundary_depth_per_kind(kind, depth):
    assert boundary_depth(kind) == depth


def test_boundary_depth_rejects_unknown_kind():
    with pytest.raises(CjtkError) as exc:
        boundary_depth("Hypercube")
    assert exc.value.code == "UNKNOWN_GEOMETRY_KIND"


def test_indices_of_a_known_kind_in_document_order():
    assert indices_of(Geometry("Solid", 2, [CUBE_SHELL])) == \
        [i for face in CUBE_SHELL for ring in face for i in ring]
    assert indices_of(Geometry("MultiSurface", 2, [[[0, 3], [2]], [[1]]])) \
        == [0, 3, 2, 1]
    assert indices_of(Geometry("GeometryInstance", template=0,
                               boundaries=[7])) == [7]


def test_indices_of_an_unknown_kind_or_deeper_nesting_in_document_order():
    assert indices_of(Geometry("Foo", 2, [[[0, 3], [2]], [[1]]])) == \
        [0, 3, 2, 1]
    assert indices_of(Geometry(["MultiPoint"], 2, [0, [1]])) == [0, 1]
    assert indices_of(Geometry("MultiSurface", 2, [[[0, [3, [4]]], [2]]])) \
        == [0, 3, 4, 2]
    assert indices_of(Geometry("Foo", 2, 5)) == [5]


def test_indices_of_keeps_an_item_that_is_no_integer_for_its_caller():
    assert indices_of(Geometry("MultiSurface", 2,
                               [[[0, "x", {}]], [[True, 2.0, None]]])) == \
        [0, "x", {}, True, 2.0, None]
    assert indices_of(Geometry("Foo", 2, [["x"], [1]])) == ["x", 1]


def test_map_boundaries_keeps_shape():
    src = [[[0, 1], [2]], [[3]]]
    assert map_boundaries(src, lambda i: i * 10) == [[[0, 10], [20]], [[30]]]


def test_second_level_types_point_at_first_level_parents():
    assert set(SECOND_LEVEL_TYPES.values()) <= FIRST_LEVEL_TYPES


def test_transform_apply():
    tr = Transform(scale=[0.001, 0.001, 0.001], translate=[100.0, 200.0, 5.0])
    assert tr.apply([1000, 2000, 3000]) == (101.0, 202.0, 8.0)


def test_real_vertex_applies_transform_and_checks_range():
    model = as_model(cube_tree())
    assert model.real_vertex(0) == (0.0, 0.0, 0.0)
    model.transform = Transform(scale=[2.0, 2.0, 2.0], translate=[1.0, 1.0, 1.0])
    assert model.real_vertex(0) == (1.0, 1.0, 1.0)
    with pytest.raises(CjtkError) as exc:
        model.real_vertex(99)
    assert exc.value.code == "VERTEX_INDEX_OUT_OF_RANGE"


def test_city_object_json_always_carries_geometry():
    out = CityObject(type="Building").to_json()
    assert out == {"type": "Building", "geometry": []}


def test_city_object_json_keeps_unknown_members():
    co = CityObject.from_json({"type": "Building", "geometry": [],
                               "address": {"Country": "NL"}})
    assert co.extra == {"address": {"Country": "NL"}}
    assert co.to_json()["address"] == {"Country": "NL"}


def test_geometry_instance_json_members():
    geom = Geometry(type="GeometryInstance", boundaries=[372], template=0,
                    transformation_matrix=[2.0, 0, 0, 0, 0, 2.0, 0, 0,
                                           0, 0, 2.0, 0, 0, 0, 0, 1.0])
    out = geom.to_json()
    assert set(out) == {"type", "template", "boundaries",
                        "transformationMatrix"}
    assert geom.is_instance()


def test_semantics_extra_members_round_trip():
    sem = Semantics.from_json({"surfaces": [{"type": "RoofSurface"}],
                               "values": [0], "note": "kept"})
    assert sem.extra == {"note": "kept"}
    assert sem.to_json()["note"] == "kept"


def test_first_level_ids():
    tree = cube_tree()
    tree["CityObjects"]["p-1"] = {
        "type": "BuildingPart", "parents": ["b-1"], "geometry": []}
    tree["CityObjects"]["b-1"]["children"] = ["p-1"]
    model = as_model(tree)
    assert model.first_level_ids() == ["b-1"]


def test_iter_geometries_yields_ids_and_indices():
    model = as_model(cube_tree(oid="x-1"))
    triples = list(model.iter_geometries())
    assert [(oid, gi) for oid, gi, _ in triples] == [("x-1", 0)]
    assert triples[0][2].type == "Solid"


def test_model_defaults():
    model = CityModel()
    assert model.version == "1.0"
    assert model.appearance is None
    assert model.metadata == {} and model.extensions == {}
    assert tree_of(model) == {"type": "CityJSON", "version": "1.0",
                              "CityObjects": {}, "vertices": []}


# -- records --------------------------------------------------------------


def test_records_compare_and_print_by_their_members():
    t = Transform([0.001] * 3, [1.0, 2.0, 3.0])
    assert t == Transform(scale=[0.001] * 3, translate=[1.0, 2.0, 3.0])
    assert t != Transform([0.001] * 3, [1.0, 2.0, 4.0])
    assert t != (t.scale, t.translate)
    assert repr(t) == ("Transform(scale=[0.001, 0.001, 0.001], "
                       "translate=[1.0, 2.0, 3.0])")
    assert repr(CityObject("Road")) == (
        "CityObject(type='Road', attributes={}, geometry=[], parents=[], "
        "children=[], extent=None, extra={})")
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(AttributeError):
        t.offset = [0.0] * 3


def test_record_defaults_are_fresh_containers():
    for make in (CityModel, TemplateBank, lambda: CityObject("Road"),
                 lambda: Geometry("MultiPoint"), lambda: Semantics([], [])):
        a, b = make(), make()
        assert a == b
        for name in a.__slots__:
            value = getattr(a, name)
            if isinstance(value, (list, dict)):
                assert value is not getattr(b, name), name


def test_replace_shares_untouched_members_and_refuses_unknown_ones():
    model = as_model(cube_tree())
    out = replace(model, vertices=[])
    assert isinstance(out, Record) and type(out) is CityModel
    assert out.vertices == [] and model.vertices != []
    for name in model.__slots__:
        if name != "vertices":
            assert getattr(out, name) is getattr(model, name), name
    with pytest.raises(TypeError, match="pool"):
        replace(model, pool=[])


@pytest.mark.parametrize("path", committed_corpus(), ids=lambda p: p.name)
def test_deepcopy_and_pickle_round_trips_are_equal(path):
    model = codec.parse(path.read_bytes())[0]
    for copied in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert copied == model
        assert codec.dumps(copied) == codec.dumps(model)
