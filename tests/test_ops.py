"""Subset, merge, partition, and the bookkeeping helpers."""

import math

import pytest

from cjtk import (Transform, codec, dequantize, instantiate_template, merge,
                  partition_by_type, partition_grid, partition_random,
                  quantize, refresh_metadata, stats, subset, synth,
                  update_texture_paths)
from cjtk.errors import ERROR, CjtkError
from cjtk.model import replace
from cjtk.validation import validate

from helpers import (CUBE_SHELL, as_model, corpus_tree, cube_tree,
                     cube_vertices, shifted_shell, tree_of)
from test_validation import instance_tree


def town_tree():
    """Four detached cubes on a 2x2 layout plus one building with a part."""
    tree = cube_tree(oid="sw", origin=(0.0, 0.0, 0.0))
    objects = tree["CityObjects"]
    verts = tree["vertices"]
    for oid, (ox, oy) in [("se", (20.0, 0.0)), ("nw", (0.0, 20.0)),
                          ("ne", (20.0, 20.0))]:
        objects[oid] = {
            "type": "Building",
            "geometry": [{"type": "Solid", "lod": 2,
                          "boundaries": [shifted_shell(len(verts))]}],
        }
        verts.extend(cube_vertices(ox, oy, 0.0))
    return tree


def test_subset_by_id_carries_children():
    tree = cube_tree(oid="house")
    tree["CityObjects"]["house"]["children"] = ["wing"]
    tree["CityObjects"]["wing"] = {
        "type": "BuildingPart", "parents": ["house"],
        "geometry": [{"type": "Solid", "lod": 2,
                      "boundaries": [shifted_shell(8)]}],
    }
    tree["vertices"].extend(cube_vertices(12.0, 0.0, 0.0))
    model = as_model(tree)

    both = subset(model, ids=["house"])
    assert set(both.city_objects) == {"house", "wing"}
    assert len(both.vertices) == 16

    only_wing = subset(model, ids=["wing"])
    assert set(only_wing.city_objects) == {"wing"}
    assert only_wing.city_objects["wing"].parents == []
    assert len(only_wing.vertices) == 8
    assert only_wing.city_objects["wing"].geometry[0].boundaries[0][0][0] \
        == [0, 3, 2, 1]


def test_subset_unknown_id():
    with pytest.raises(CjtkError) as exc:
        subset(as_model(cube_tree()), ids=["nobody"])
    assert exc.value.code == "UNKNOWN_ID"


def test_subset_by_type():
    tree = town_tree()
    tree["CityObjects"]["sw"]["type"] = "Road"
    out = subset(as_model(tree), types=["Road"])
    assert set(out.city_objects) == {"sw"}


def test_subset_by_bbox_centroid_edges_inclusive():
    model = as_model(town_tree())
    assert set(subset(model, bbox=[0, 0, 10, 10]).city_objects) == {"sw"}
    # The sw centroid (5, 5) sits exactly on this box's corner.
    assert "sw" in subset(model, bbox=[5, 5, 7, 7]).city_objects
    assert set(subset(model, bbox=[0, 0, 30, 10]).city_objects) \
        == {"sw", "se"}


def test_subset_filters_unite():
    model = as_model(town_tree())
    out = subset(model, ids=["ne"], bbox=[0, 0, 10, 10])
    assert set(out.city_objects) == {"ne", "sw"}


@pytest.mark.parametrize("bbox", [[0, 0, 10], [10, 0, 0, 10],
                                  [math.nan, 0, 1e9, 1e9],
                                  [0, 0, math.inf, 10]])
def test_subset_rejects_bad_bbox(bbox):
    with pytest.raises(CjtkError) as exc:
        subset(as_model(cube_tree()), bbox=bbox)
    assert exc.value.code == "INVALID_EXTENT"


def test_subset_drops_unused_template_bank():
    tree = instance_tree()
    tree["CityObjects"]["plain"] = {
        "type": "Building",
        "geometry": [{"type": "Solid", "lod": 2,
                      "boundaries": [shifted_shell(1)]}],
    }
    tree["vertices"].extend(cube_vertices())
    model = as_model(tree)
    assert subset(model, ids=["plain"]).templates is None
    assert subset(model, ids=["tree-1"]).templates is not None


def test_subset_keeps_appearance_absence():
    # No appearance in, none out; an unused appearance empties instead.
    model = as_model(town_tree())
    assert "appearance" not in tree_of(subset(model, ids=["sw"]))
    themed = as_model(town_tree())
    themed.appearance = {"materials": [{"name": "brick"}]}
    carved = subset(themed, ids=["sw"])
    assert carved.appearance == {}


def test_subset_refreshes_stale_extent():
    tree = town_tree()
    tree["metadata"] = {"geographicalExtent": [0, 0, 0, 30, 30, 10]}
    out = subset(as_model(tree), ids=["sw"])
    assert out.metadata["geographicalExtent"] == [0, 0, 0, 10, 10, 10]


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------


def test_merge_requires_inputs_and_known_policy():
    with pytest.raises(CjtkError) as exc:
        merge([])
    assert exc.value.code == "EMPTY_MODEL"
    with pytest.raises(CjtkError) as exc:
        merge([as_model(cube_tree())], policy="overwrite")
    assert exc.value.code == "UNKNOWN_ID"


def test_merge_single_input_is_a_copy():
    model = as_model(cube_tree())
    out = merge([model])
    assert tree_of(out) == tree_of(model)


def test_merge_disjoint_models_offsets_indices():
    a = as_model(cube_tree(oid="a"))
    b = as_model(cube_tree(oid="b", origin=(50.0, 0.0, 0.0)))
    out = merge([a, b])
    assert set(out.city_objects) == {"a", "b"}
    assert len(out.vertices) == 16
    assert out.city_objects["b"].geometry[0].boundaries[0][0][0] \
        == [8, 11, 10, 9]
    assert validate(out) == []


def test_merge_mismatched_reference_systems():
    a = as_model(cube_tree(metadata={"referenceSystem": "EPSG:7415"}))
    b = as_model(cube_tree(oid="other"))
    with pytest.raises(CjtkError) as exc:
        merge([a, b])
    assert exc.value.code == "CRS_MISMATCH"


def test_merge_duplicate_id_policies():
    a = as_model(cube_tree(oid="house"))
    b = as_model(cube_tree(oid="house", origin=(50.0, 0.0, 0.0)))
    with pytest.raises(CjtkError) as exc:
        merge([a, b])
    assert exc.value.code == "DUPLICATE_ID"

    a.city_objects["house"].children = ["wing"]
    from cjtk.model import CityObject
    a.city_objects["wing"] = CityObject(type="BuildingPart",
                                        parents=["house"])
    b.city_objects["house"].children = ["wing"]
    b.city_objects["wing"] = CityObject(type="BuildingPart",
                                        parents=["house"])
    out = merge([a, b], policy="suffix")
    assert set(out.city_objects) == {"house", "wing", "house-2", "wing-2"}
    assert out.city_objects["house-2"].children == ["wing-2"]
    assert out.city_objects["wing-2"].parents == ["house-2"]


def test_merge_suffix_skips_taken_names():
    a = as_model(cube_tree(oid="x"))
    a.city_objects["x-2"] = as_model(cube_tree(oid="x")).city_objects["x"]
    b = as_model(cube_tree(oid="x", origin=(50.0, 0.0, 0.0)))
    out = merge([a, b], policy="suffix")
    assert set(out.city_objects) == {"x", "x-2", "x-3"}


def test_merge_requantizes_at_finest_scale():
    a = quantize(as_model(cube_tree(oid="a")), digits=3)
    b = quantize(as_model(cube_tree(oid="b", origin=(50.0, 0.25, 0.0))),
                 digits=1)
    out = merge([a, b])
    assert out.transform is not None
    assert out.transform.scale == [0.001, 0.001, 0.001]
    reals = out.real_vertices()
    assert reals[0] == (0.0, 0.0, 0.0)
    assert reals[8] == (50.0, 0.25, 0.0)


def test_merge_requantizes_at_the_finest_axis_of_a_scale():
    scale = [0.01, 0.001, 0.001]
    models = []
    for oid, origin in [("a", (0.0, 1.234, 0.5)), ("b", (20.0, 3.217, 0.0))]:
        tree = cube_tree(oid=oid, transform={"scale": scale,
                                             "translate": [0.0, 0.0, 0.0]})
        tree["vertices"] = [[round(c / q) for c, q in zip(v, scale)]
                            for v in cube_vertices(*origin, 10.0)]
        models.append(as_model(tree))
    out = merge(models)
    assert out.transform.scale == [0.001, 0.001, 0.001]
    want = [v for m in models for v in m.real_vertices()]
    for got, real in zip(out.real_vertices(), want):
        assert all(abs(g - r) <= 0.0005 for g, r in zip(got, real)), \
            (got, real)

def _tiles(buildings=40):
    """The 3x3 grid tiles of a quantized synth scene."""
    scene = synth.make_scene(seed=7, buildings=buildings, part_every=4)
    model = quantize(synth.scene_to_model(scene), digits=3)
    return [tile for _, tile in partition_grid(model, 3, 3)]


def _decoded_and_reencoded(models):
    """What merge gave before it could keep a shared pool: every input
    decoded, merged, and re-encoded at the finest input scale."""
    return codec.dumps(quantize(merge([dequantize(m) for m in models]),
                                digits=3))


def test_merging_the_tiles_of_one_partition_keeps_their_pool():
    tiles = _tiles()
    out = merge(tiles)
    assert out.transform == tiles[0].transform
    rows = {id(v) for tile in tiles for v in tile.vertices}
    assert all(id(v) in rows for v in out.vertices)
    assert codec.dumps(out) == _decoded_and_reencoded(tiles)


@pytest.mark.parametrize("translate", [None, [1e15, 2e15, 3.0]])
def test_merging_tiles_off_the_minimum_corner_re_encodes(translate):
    """The pool is decoded and re-encoded where its least stored value is
    not 0 on every axis, or where decoding errs by a quarter quantum."""
    tiles = _tiles()[-2:]
    if translate is not None:
        tiles = [replace(t, transform=Transform(scale=t.transform.scale,
                                                translate=translate))
                 for t in _tiles()[:2]]
    out = merge(tiles)
    assert out.transform != tiles[0].transform
    assert not {id(v) for v in out.vertices} \
        & {id(v) for tile in tiles for v in tile.vertices}
    assert codec.dumps(out) == _decoded_and_reencoded(tiles)


def test_merge_offsets_templates():
    a = as_model(instance_tree())
    b = as_model(instance_tree())
    b.vertices[0] = [30.0, 40.0, 5.0]
    b.templates.vertices[2] = [0.0, 2.0, 0.0]  # a bank of its own
    out = merge([a, b], policy="suffix")
    assert len(out.templates.templates) == 2
    assert len(out.templates.vertices) == 6
    assert out.templates.templates[1].boundaries == [3, 4, 5]
    inst = out.city_objects["tree-1-2"].geometry[0]
    assert inst.template == 1
    assert inst.boundaries == [1]
    assert validate(out) == []


def _four_instances():
    """Four instances of one 4-vertex template, two on each side of x=50."""
    tree = instance_tree()
    tree["geometry-templates"] = {
        "templates": [{"type": "MultiSurface", "lod": 2,
                       "boundaries": [[[0, 1, 2, 3]]]}],
        "vertices-templates": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]}
    instance = tree["CityObjects"].pop("tree-1")
    for i, x in enumerate((10.0, 20.0, 80.0, 90.0)):
        tree["CityObjects"][f"tree-{i}"] = {
            **instance, "geometry": [{**instance["geometry"][0],
                                      "boundaries": [i]}]}
    tree["vertices"] = [[x, 20.0, 5.0] for x in (10.0, 20.0, 80.0, 90.0)]
    return as_model(tree)


def test_merge_keeps_one_template_bank_that_its_inputs_share():
    model = _four_instances()
    parts = [part for _, part in partition_grid(model, 2, 1)]
    assert len(parts) == 2
    for inputs in (parts, [codec.loads(codec.dumps(p)) for p in parts]):
        out = merge(inputs)
        assert out.templates == model.templates
        assert sorted(out.city_objects) == sorted(model.city_objects)
        assert {g.template for co in out.city_objects.values()
                for g in co.geometry} == {0}
        assert validate(out) == []
        assert codec.loads(codec.dumps(out)).templates == model.templates


def _instanced(model):
    """The world vertices of every instance in ``model``, sorted."""
    return sorted(instantiate_template(model, oid, gi)[1]
                  for oid, gi, g in model.iter_geometries() if g.is_instance())


def test_merge_keeps_one_copy_of_each_template_bank_it_has_gathered():
    a = as_model(corpus_tree("07-geometry-template"))
    b = as_model(corpus_tree("22-two-instances"))
    assert (len(a.templates.templates), len(a.templates.vertices)) == (1, 8)
    assert (len(b.templates.templates), len(b.templates.vertices)) == (1, 4)
    for inputs, templates, vertices in (([a, b, a], 2, 12),
                                        ([a, a, b], 2, 12),
                                        ([b, a, b, a], 2, 12),
                                        ([a, b], 2, 12), ([b, b], 1, 4)):
        out = merge(inputs, policy="suffix")
        assert (len(out.templates.templates),
                len(out.templates.vertices)) == (templates, vertices)
        assert _instanced(out) == sorted(
            rows for m in inputs for rows in _instanced(m))
        assert [f for f in validate(out) if f.severity == ERROR] == []
        assert codec.loads(codec.dumps(out)) == out


def appearance_tree(oid, image, origin=(0.0, 0.0, 0.0)):
    tree = cube_tree(oid=oid, origin=origin)
    geom = tree["CityObjects"][oid]["geometry"][0]
    geom["material"] = {"irradiation": {"values": [[0]] * 6}}
    geom["texture"] = {"winter": {"values":
                                  [[[0, 0, 1, 2]] for _ in range(6)]}}
    tree["appearance"] = {
        "materials": [{"name": f"mat-{oid}"}],
        "textures": [{"type": "PNG", "image": image}],
        "vertices-texture": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }
    return tree


def test_merge_offsets_appearance_references():
    out = merge([as_model(appearance_tree("a", "a.png")),
                 as_model(appearance_tree("b", "b.png", (50.0, 0.0, 0.0)))])
    app = out.appearance
    assert [m["name"] for m in app["materials"]] == ["mat-a", "mat-b"]
    assert [t["image"] for t in app["textures"]] == ["a.png", "b.png"]
    assert len(app["vertices-texture"]) == 6
    geom_b = out.city_objects["b"].geometry[0]
    assert geom_b.material["irradiation"]["values"][0] == [1]
    assert geom_b.texture["winter"]["values"][0] == [[1, 3, 4, 5]]
    geom_a = out.city_objects["a"].geometry[0]
    assert geom_a.material["irradiation"]["values"][0] == [0]
    assert geom_a.texture["winter"]["values"][0] == [[0, 0, 1, 2]]


def test_merge_shifts_material_value_shorthand():
    a = as_model(appearance_tree("a", "a.png"))
    b = as_model(appearance_tree("b", "b.png", (50.0, 0.0, 0.0)))
    geom = b.city_objects["b"].geometry[0]
    geom.material = {"irradiation": {"value": 0}}
    out = merge([a, b])
    assert out.city_objects["b"].geometry[0].material \
        == {"irradiation": {"value": 1}}


def test_merge_keeps_first_metadata_and_unions_extensions():
    a = as_model(cube_tree(oid="a", metadata={"citymodelIdentifier": "A"}))
    b = as_model(cube_tree(oid="b", metadata={"citymodelIdentifier": "B",
                                              "datasetTitle": "south"}))
    b.extensions = {"Noise": {"url": "https://example.org/noise.json",
                              "version": "0.1"}}
    out = merge([a, b])
    assert out.metadata["citymodelIdentifier"] == "A"
    assert out.metadata["datasetTitle"] == "south"
    assert "Noise" in out.extensions


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_grid_places_by_centroid():
    parts = partition_grid(as_model(town_tree()), 2, 2)
    assert [(pid, set(m.city_objects)) for pid, m in parts] == [
        ("r0c0", {"sw"}), ("r0c1", {"se"}),
        ("r1c0", {"nw"}), ("r1c1", {"ne"}),
    ]
    for _, part in parts:
        assert len(part.vertices) == 8
        assert validate(part) == []


def test_partition_grid_exact_edge_goes_to_lower_cell():
    # One cube spanning the whole extent: centroid lands mid-grid.
    parts = partition_grid(as_model(cube_tree()), 2, 2)
    assert [pid for pid, _ in parts] == ["r0c0"]


def test_partition_grid_rejects_empty_grid():
    with pytest.raises(CjtkError):
        partition_grid(as_model(cube_tree()), 0, 2)


def test_partition_by_type_one_part_per_type():
    tree = town_tree()
    tree["CityObjects"]["sw"]["type"] = "Road"
    tree["CityObjects"]["ne"]["type"] = "Road"
    parts = dict(partition_by_type(as_model(tree)))
    assert set(parts) == {"Building", "Road"}
    assert set(parts["Road"].city_objects) == {"sw", "ne"}
    assert set(parts["Building"].city_objects) == {"se", "nw"}


def test_partition_random_is_seeded_and_exhaustive():
    model = as_model(town_tree())
    parts = partition_random(model, 3, seed=42)
    again = partition_random(model, 3, seed=42)
    assert [(pid, set(m.city_objects)) for pid, m in parts] \
        == [(pid, set(m.city_objects)) for pid, m in again]
    assert {pid for pid, _ in parts} <= {"0", "1", "2"}
    union = set()
    for _, m in parts:
        union |= set(m.city_objects)
    assert union == set(model.city_objects)


def test_partition_keeps_groups_whole():
    tree = town_tree()
    tree["CityObjects"]["quartier"] = {
        "type": "CityObjectGroup",
        "members": ["ne", "sw"],
        "geometry": [],
    }
    parts = dict(partition_grid(as_model(tree), 2, 2))
    assert set(parts["r1c1"].city_objects) == {"ne", "quartier"}
    assert parts["r1c1"].city_objects["quartier"].extra["members"] == ["ne"]


def test_partition_of_empty_model():
    from cjtk import CityModel
    with pytest.raises(CjtkError) as exc:
        partition_by_type(CityModel())
    assert exc.value.code == "EMPTY_MODEL"


def test_merge_reassembles_partition():
    model = as_model(town_tree())
    parts = partition_grid(model, 2, 2)
    out = merge([m for _, m in parts])
    assert set(out.city_objects) == set(model.city_objects)
    assert sorted(map(tuple, out.vertices)) == sorted(map(tuple,
                                                          model.vertices))


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_update_texture_paths():
    model = as_model(appearance_tree("a", "old/dir/roof.png"))
    model.appearance["textures"].append(
        {"type": "JPG", "image": "C:\\tex\\wall.jpg"})
    out = update_texture_paths(model, "https://cdn.example.org/tex")
    images = [t["image"] for t in out.appearance["textures"]]
    assert images == ["https://cdn.example.org/tex/roof.png",
                      "https://cdn.example.org/tex/wall.jpg"]
    bare = update_texture_paths(model, "")
    assert [t["image"] for t in bare.appearance["textures"]] \
        == ["roof.png", "wall.jpg"]
    assert model.appearance["textures"][0]["image"] == "old/dir/roof.png"


def test_refresh_metadata_derives_everything():
    tree = appearance_tree("a", "a.png")
    tree["CityObjects"]["a"]["geometry"][0]["lod"] = 2.1
    model = as_model(tree)
    model.extensions = {"Noise": {"url": "u", "version": "0.1"}}
    out = refresh_metadata(model)
    assert out.metadata["geographicalExtent"] == [0, 0, 0, 10, 10, 10]
    assert out.metadata["presentLoDs"] == {"2.1": 1}
    assert out.metadata["presentTextures"] is True
    assert out.metadata["presentMaterials"] is True
    assert out.metadata["extensions"] == ["Noise"]


def test_refresh_metadata_counts_instance_lods_and_clears_stale_flags():
    model = as_model(instance_tree())
    model.metadata = {"presentTextures": True}
    out = refresh_metadata(model)
    assert out.metadata["presentLoDs"] == {"1": 1}
    assert "presentTextures" not in out.metadata


def test_stats_shape():
    tree = town_tree()
    tree["CityObjects"]["inst"] = {
        "type": "CityFurniture",
        "geometry": [{"type": "GeometryInstance", "template": 0,
                      "boundaries": [0],
                      "transformationMatrix":
                          [1.0, 0, 0, 0, 0, 1.0, 0, 0,
                           0, 0, 1.0, 0, 0, 0, 0, 1.0]}],
    }
    tree["geometry-templates"] = {
        "templates": [{"type": "MultiPoint", "lod": 1, "boundaries": [0]}],
        "vertices-templates": [[0.0, 0.0, 0.0]],
    }
    model = as_model(tree)
    got = stats(model)
    assert got["cityObjects"] == 5
    assert got["byType"] == {"Building": 4, "CityFurniture": 1}
    assert got["byGeometryKind"] == {"GeometryInstance": 1, "Solid": 4}
    assert got["vertices"] == 32
    assert got["templates"] == 1
    assert got["quantized"] is False
    assert got["minifiedBytes"] > 0


@pytest.mark.parametrize("scale", [0.0, -0.001, math.nan, math.inf])
def test_merge_refuses_a_scale_that_is_not_positive_and_finite(scale):
    good = quantize(as_model(cube_tree(oid="a")), digits=3)
    bad = replace(quantize(as_model(cube_tree(oid="b")), digits=3),
                  transform=Transform(scale=[0.001, scale, 0.001],
                                      translate=[0.0, 0.0, 0.0]))
    for inputs in ([bad], [good, bad]):
        with pytest.raises(CjtkError) as exc:
            merge(inputs)
        assert exc.value.code == "BAD_TRANSFORM"
