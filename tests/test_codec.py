"""Reader/writer behavior: round-trips, duplicate keys, shape rejections."""

import json
import tracemalloc

import pytest

from cjtk import _writer, codec, geomops, synth
from cjtk.errors import CodecError
from cjtk.model import CityObject, replace

from conftest import CORPUS_DIR, committed_corpus
from helpers import as_text, cube_tree, tree_of


def test_round_trip_is_tree_identical():
    tree = cube_tree(semantics=True,
                     metadata={"referenceSystem": "EPSG:7415"},
                     appearance={})
    tree["CityObjects"]["b-1"]["attributes"] = {"storeys": 2, "name": "hûs"}
    model, _ = codec.parse(as_text(tree))
    assert tree_of(model) == tree


def test_minified_dumps_has_no_spaces_and_keeps_unicode():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["attributes"] = {"name": "turm-β"}
    text = codec.dumps(codec.loads(as_text(tree)))
    assert ": " not in text and ", " not in text
    assert "turm-β" in text
    assert json.loads(text) == tree_of(codec.loads(text))


def test_pretty_dumps_round_trips():
    model = codec.loads(as_text(cube_tree()))
    pretty = codec.dumps(model, pretty=True)
    assert "\n  " in pretty
    assert json.loads(pretty) == json.loads(codec.dumps(model))


def test_load_dump_paths(tmp_path):
    target = tmp_path / "model.city.json"
    model = codec.loads(as_text(cube_tree()))
    codec.dump(model, target)
    assert tree_of(codec.load(target)) == tree_of(model)
    with open(target, encoding="utf-8") as fp:
        assert tree_of(codec.load(fp)) == tree_of(model)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(CodecError) as exc:
        codec.parse('{"type": "CityJSON",\n "version" "1.0"}')
    assert exc.value.code == "SYNTAX_ERROR"
    assert exc.value.line == 2
    assert isinstance(exc.value.column, int)


@pytest.mark.parametrize("text", ["[]", "42", '"CityJSON"'])
def test_non_object_root_rejected(text):
    with pytest.raises(CodecError) as exc:
        codec.parse(text)
    assert exc.value.code == "NOT_CITYJSON"


def test_wrong_type_member_rejected():
    with pytest.raises(CodecError) as exc:
        codec.parse('{"type": "GeoJSON", "version": "1.0", '
                    '"CityObjects": {}, "vertices": []}')
    assert exc.value.code == "NOT_CITYJSON"


@pytest.mark.parametrize("member", ["version", "CityObjects", "vertices"])
def test_missing_required_member(member):
    tree = cube_tree()
    del tree[member]
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "MISSING_REQUIRED_MEMBER"
    assert exc.value.path == member


@pytest.mark.parametrize("version", ["2.0", 1.0, "0.9"])
def test_version_must_be_a_one_dot_zero_string(version):
    tree = cube_tree()
    tree["version"] = version
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "WRONG_MEMBER_TYPE"
    assert exc.value.path == "version"


def test_minor_releases_of_one_dot_zero_accepted():
    tree = cube_tree()
    tree["version"] = "1.0.3"
    model, _ = codec.parse(as_text(tree))
    assert model.version == "1.0.3"
    assert tree_of(model)["version"] == "1.0.3"


def test_duplicate_object_id_rejected_textually():
    tree = cube_tree(oid="twin")
    text = as_text(tree)
    entry = json.dumps({"twin": tree["CityObjects"]["twin"]})[1:-1]
    doubled = text.replace('"CityObjects": {', '"CityObjects": {' + entry + ", ")
    with pytest.raises(CodecError) as exc:
        codec.parse(doubled)
    assert exc.value.code == "DUPLICATE_ID"
    assert exc.value.path == "CityObjects/twin"


def test_duplicate_key_elsewhere_rejected():
    text = ('{"type": "CityJSON", "version": "1.0", "CityObjects": {}, '
            '"vertices": [], "metadata": {"a": 1, "a": 2}}')
    with pytest.raises(CodecError) as exc:
        codec.parse(text)
    assert exc.value.code == "DUPLICATE_KEY"
    assert exc.value.path == "metadata/a"


def test_vertices_must_hold_three_numbers():
    tree = cube_tree()
    tree["vertices"][2] = [1.0, 2.0]
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "BAD_GEOMETRY_SHAPE"
    assert exc.value.path == "vertices/2"


def test_boundary_leaves_must_be_integers():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0][0][0][1] = 1.5
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "BAD_GEOMETRY_SHAPE"


@pytest.mark.parametrize("edits,path,message", [
    ({(0, 0, 0, 1): True}, "0/0/0/1", "vertex reference True is not an integer"),
    ({(0, 0, 0, 1): "1"}, "0/0/0/1", "vertex reference '1' is not an integer"),
    ({(0, 2, 0): 7}, "0/2/0", "expected 1 more array level(s)"),
    ({(0, 3, 0, 2): None, (0, 1, 0): 4}, "0/1/0",
     "expected 1 more array level(s)"),
], ids=["bool-leaf", "string-leaf", "index-for-a-ring", "first-of-two"])
def test_the_first_bad_boundary_node_is_named(edits, path, message):
    tree = cube_tree()
    geometry = tree["CityObjects"]["b-1"]["geometry"][0]
    for where, value in edits.items():
        node = geometry["boundaries"]
        for i in where[:-1]:
            node = node[i]
        node[where[-1]] = value
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert (exc.value.code, exc.value.path, exc.value.message) == (
        "BAD_GEOMETRY_SHAPE",
        f"CityObjects/b-1/geometry/0/boundaries/{path}", message)


def test_boundary_nesting_too_shallow_fails_fast():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"] = [[0, 1, 2, 3]]
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "BAD_GEOMETRY_SHAPE"


def test_geometry_without_type_rejected():
    tree = cube_tree()
    del tree["CityObjects"]["b-1"]["geometry"][0]["type"]
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "MISSING_REQUIRED_MEMBER"


def test_geometry_instance_requires_all_members():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"] = [
        {"type": "GeometryInstance", "template": 0, "boundaries": [0]}]
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "MISSING_REQUIRED_MEMBER"
    assert exc.value.path.endswith("transformationMatrix")


def test_semantics_needs_surfaces_and_values():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"][0]["semantics"] = {"values": [[0]]}
    with pytest.raises(CodecError) as exc:
        codec.parse(as_text(tree))
    assert exc.value.code == "WRONG_MEMBER_TYPE"


def test_unknown_root_members_survive_and_are_reported():
    tree = cube_tree(generator="hand-rolled")
    model, diag = codec.parse(as_text(tree))
    assert model.extra == {"generator": "hand-rolled"}
    assert "generator" in diag.unknown_members
    assert tree_of(model)["generator"] == "hand-rolled"


def test_unknown_geometry_members_are_reported_by_full_path():
    tree = cube_tree()
    geoms = tree["CityObjects"]["b-1"]["geometry"]
    geoms.append(dict(geoms[0], lod=1, note="second", tag=7))
    geoms[0]["note"] = "first"
    tree["CityObjects"]["b-1"]["status"] = "draft"
    model, diag = codec.parse(as_text(tree))
    assert diag.unknown_members == [
        "CityObjects/b-1/geometry/0/note",
        "CityObjects/b-1/geometry/1/note", "CityObjects/b-1/geometry/1/tag",
        "CityObjects/b-1/status"]
    assert tree_of(model)["CityObjects"]["b-1"]["geometry"][1]["tag"] == 7


def test_unknown_semantics_members_are_reported_by_full_path():
    tree = cube_tree(semantics=True)
    tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]["note"] = 1
    model, diag = codec.parse(as_text(tree))
    assert diag.unknown_members == [
        "CityObjects/b-1/geometry/0/semantics/note"]
    assert model.city_objects["b-1"].geometry[0].semantics.extra == {"note": 1}
    assert tree_of(model) == tree


def test_an_instance_keeps_semantics_and_appearance_as_unknown_members():
    """An instance takes its surfaces from its template, so semantics,
    material and texture on it are not CityJSON 1.0 members: they are
    reported, and written back as read."""
    path = CORPUS_DIR / "22-two-instances.city.json"
    tree = json.loads(path.read_text(encoding="utf-8"))
    tree["CityObjects"]["lamp-row"]["geometry"][0].update(
        semantics={"surfaces": [{"type": "RoofSurface"}], "values": [0]},
        material={"visual": {"value": 0}},
        texture={"winter": {"values": [[[0, 0]]]}})
    model, diag = codec.parse(as_text(tree))
    assert diag.unknown_members == [
        f"CityObjects/lamp-row/geometry/0/{member}"
        for member in ("semantics", "material", "texture")]
    assert tree_of(model) == tree


def test_a_template_and_matrix_off_an_instance_are_unknown_members():
    """Only an instance places a template, so on any other geometry a
    template and matrix are reported, and written back as read."""
    tree = cube_tree()
    geom = tree["CityObjects"]["b-1"]["geometry"][0]
    geom.update(type="MultiSurface", boundaries=geom["boundaries"][0],
                template=0, transformationMatrix=[1.0, 0, 0, 0, 0, 1.0, 0, 0,
                                                  0, 0, 1.0, 0, 0, 0, 0, 1.0])
    model, diag = codec.parse(as_text(tree))
    assert diag.unknown_members == [
        f"CityObjects/b-1/geometry/0/{member}"
        for member in ("template", "transformationMatrix")]
    assert model.city_objects["b-1"].geometry[0].template is None
    assert tree_of(model) == tree


def test_empty_appearance_round_trips_but_empty_metadata_is_dropped():
    tree = cube_tree(appearance={})
    model, _ = codec.parse(as_text(tree))
    assert tree_of(model) == tree
    tree2 = cube_tree(metadata={})
    model2, _ = codec.parse(as_text(tree2))
    assert "metadata" not in tree_of(model2)


# -- hostile input -------------------------------------------------------------


def hostile_inputs():
    """Documents that must be refused as SYNTAX_ERROR, by name."""
    text = as_text(cube_tree())
    nested = "[" * 100_000 + "]" * 100_000
    return {
        "nan": text.replace("[0.0, 0.0, 0.0]", "[NaN, 0.0, 0.0]", 1),
        "infinity": text.replace("[0.0, 0.0, 0.0]", "[Infinity, 0, 0]", 1),
        "minus-infinity": text.replace("[0.0, 0.0, 0.0]",
                                       "[0.0, -Infinity, 0]", 1),
        "deep-nesting": text.replace('"version"', f'"deep": {nested}, '
                                     '"version"', 1),
        "non-utf8": text.encode("utf-8").replace(b'"Building"',
                                                 b'"Build\xe9ng \xff"', 1),
        # Beyond the interpreter's digit limit for int(), a member the
        # model does not read.
        "integer-of-5000-digits": text.replace('"version"',
                                               f'"count": {"7" * 5000}, '
                                               '"version"', 1),
        # An identifier escaping half a UTF-16 surrogate pair.
        "lone-surrogate": text.replace('"b-1"', '"\\ud800x"', 1),
    }


@pytest.mark.parametrize("name", sorted(hostile_inputs()))
def test_hostile_input_is_a_syntax_error(name):
    with pytest.raises(CodecError) as exc:
        codec.parse(hostile_inputs()[name])
    assert exc.value.code == "SYNTAX_ERROR"


@pytest.mark.parametrize("escaped", ["\\ud800", "\\uDC00x",
                                     "\\ude00\\ud83d", "x\\ud83d"])
def test_an_unpaired_surrogate_is_refused_where_it_is(escaped):
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["attributes"] = {"name": "@"}
    text = as_text(tree).replace('"@"', f'"{escaped}"')
    with pytest.raises(CodecError) as exc:
        codec.parse(text)
    assert (exc.value.code, exc.value.path) \
        == ("SYNTAX_ERROR", "CityObjects/b-1/attributes/name")


def test_escaped_surrogate_pairs_and_backslashes_parse():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["attributes"] = {"name": "@"}
    text = as_text(tree).replace('"@"', '"\\ud83d\\ude00 \\\\ud800"')
    name = codec.loads(text).city_objects["b-1"].attributes["name"]
    assert name == "\U0001f600 \\ud800"


def test_non_utf8_error_locates_the_bad_byte():
    data = b'{"type": "CityJSON",\n "version": "1.\xff"}'
    with pytest.raises(CodecError) as exc:
        codec.parse(data)
    assert (exc.value.line, exc.value.column) == (2, 16)


def test_utf8_bytes_parse_like_text(tmp_path):
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["attributes"] = {"name": "turm-β"}
    text = as_text(tree)
    assert tree_of(codec.loads(text.encode("utf-8"))) == tree_of(
        codec.loads(text))
    path = tmp_path / "m.city.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "rb") as fp:
        assert tree_of(codec.load(fp)) == tree_of(codec.load(path))


# -- numbers and indices past the syntax ----------------------------------------

HUGE = "1" + "0" * 400  # an integer beyond the range of a double
MARK = 123456789  # stands for a literal json.dumps cannot write


def _marked(tree, literal: str) -> str:
    return as_text(tree).replace(str(MARK), literal, 1)


def _pool_of_four(ring):
    """One MultiSurface ring over a pool of four vertices."""
    return as_text({
        "type": "CityJSON", "version": "1.0",
        "CityObjects": {"b-1": {"type": "Building", "geometry": [
            {"type": "MultiSurface", "lod": 2, "boundaries": [[ring]]}]}},
        "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                     [0.0, 1.0, 0.0]],
    })


def _template_ring(ring):
    """One instance of a template whose ring is ``ring``, over a bank of
    four template vertices."""
    return as_text({
        "type": "CityJSON", "version": "1.0",
        "CityObjects": {"t-1": {"type": "SolitaryVegetationObject",
                                "geometry": [{
                                    "type": "GeometryInstance", "template": 0,
                                    "boundaries": [0],
                                    "transformationMatrix": [
                                        1.0, 0, 0, 0, 0, 1.0, 0, 0,
                                        0, 0, 1.0, 0, 0, 0, 0, 1.0]}]}},
        "vertices": [[10.0, 20.0, 5.0]],
        "geometry-templates": {
            "templates": [{"type": "MultiSurface", "lod": 2,
                           "boundaries": [[ring]]}],
            "vertices-templates": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]},
    })


def _unknown_kind(leaf):
    """A Building whose geometry of unknown type "Foo" has ``leaf`` where
    a vertex index goes, over a pool of three vertices."""
    return as_text({
        "type": "CityJSON", "version": "1.0",
        "CityObjects": {"a": {"type": "Building", "geometry": [
            {"type": "Foo", "lod": 1, "boundaries": [[leaf], [1]]}]}},
        "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]],
    })


def hostile_models():
    """Valid JSON that breaks a rule of the model, by name:
    (document, {stage: code}).

    A stage is a CLI stage with its options; each refuses the document
    with the code, and "validate" (``validate_text`` too) reports it as an
    error finding.
    """
    vertex = cube_tree()
    vertex["vertices"][0][0] = MARK
    transform = cube_tree(transform={"scale": [0.001, 0.001, 0.001],
                                     "translate": [MARK, 0.0, 0.0]})
    extent = cube_tree(metadata={"geographicalExtent": [0, 0, 0, MARK, 1, 1]})
    own_extent = cube_tree()
    own_extent["CityObjects"]["b-1"]["geographicalExtent"] = \
        [0, 0, 0, MARK, 1, 1]
    bad_index = {("subset", "--type", "Building"): "VERTEX_INDEX_OUT_OF_RANGE",
                 ("clean",): "VERTEX_INDEX_OUT_OF_RANGE",
                 ("dedupe",): "VERTEX_INDEX_OUT_OF_RANGE",
                 ("metadata",): "VERTEX_INDEX_OUT_OF_RANGE"}
    # Not an integer, in a geometry no kind's depth reads.
    no_integer = {("validate",): "UNKNOWN_COTYPE",
                  ("partition", "--by-type"): "VERTEX_INDEX_OUT_OF_RANGE",
                  **bad_index}
    return {
        "vertex-1e999": (_marked(vertex, "1e999"),
                         {("validate",): "BAD_GEOMETRY_SHAPE",
                          ("compress",): "BAD_GEOMETRY_SHAPE"}),
        "vertex-huge-int": (_marked(vertex, HUGE),
                            {("validate",): "BAD_GEOMETRY_SHAPE",
                             ("compress",): "BAD_GEOMETRY_SHAPE"}),
        "transform-huge-int": (_marked(transform, HUGE),
                               {("validate",): "WRONG_MEMBER_TYPE",
                                ("compress",): "WRONG_MEMBER_TYPE"}),
        "extent-huge-int": (_marked(extent, HUGE),
                            {("validate",): "INVALID_EXTENT"}),
        "object-extent-huge-int": (_marked(own_extent, HUGE),
                                   {("validate",): "INVALID_EXTENT"}),
        "index-past-the-pool": (_pool_of_four([0, 1, 2, 7]), bad_index),
        "index-negative": (_pool_of_four([0, 1, 2, -1]), bad_index),
        "index-a-string": (_unknown_kind("x"), no_integer),
        "index-an-object": (_unknown_kind({}), no_integer),
        "template-index-past-the-bank": (
            _template_ring([0, 1, 2, 7]),
            {("metadata",): "VERTEX_INDEX_OUT_OF_RANGE",
             ("clean",): "VERTEX_INDEX_OUT_OF_RANGE"}),
        # Would put every x on the translate.
        "transform-zero-scale": (
            as_text(cube_tree(transform={"scale": [0, 0.001, 0.001],
                                         "translate": [0.0, 0.0, 0.0]})),
            {("validate",): "BAD_TRANSFORM",
             ("decompress",): "BAD_TRANSFORM",
             ("compress", "--digits", "2"): "BAD_TRANSFORM",
             ("metadata",): "BAD_TRANSFORM",
             ("partition", "--grid", "2x2"): "BAD_TRANSFORM",
             ("subset", "--bbox", "0", "0", "1e9", "1e9"): "BAD_TRANSFORM"}),
        "bbox-not-finite": (
            as_text(cube_tree()),
            {("subset", "--bbox", "nan", "0", "1e9", "1e9"): "INVALID_EXTENT",
             ("subset", "--bbox", "0", "0", "inf", "1e9"): "INVALID_EXTENT"}),
    }


@pytest.mark.parametrize("name", ["vertex-1e999", "vertex-huge-int",
                                  "transform-huge-int"])
def test_numbers_beyond_a_double_are_refused(name):
    text, stages = hostile_models()[name]
    with pytest.raises(CodecError) as exc:
        codec.parse(text)
    assert exc.value.code == stages[("validate",)]


def test_dumps_refuses_what_the_reader_refuses():
    model = codec.loads(as_text(cube_tree()))
    model.city_objects["b-1"].attributes["height"] = float("nan")
    with pytest.raises(CodecError) as exc:
        codec.dumps(model)
    assert exc.value.code == "SYNTAX_ERROR"
    assert "RFC 8259" in exc.value.message


# -- the streaming writer -----------------------------------------------------


def writer_models():
    """(name, model) for the writer's byte checks: the corpus, and synth
    scenes with no objects, objects but no vertex, unknown top-level
    members, and more objects and vertex rows than one batch holds."""
    out = [(path.name.split(".")[0], codec.parse(path.read_bytes())[0])
           for path in committed_corpus()]
    empty = synth.scene_to_model(synth.make_scene(seed=1, buildings=0))
    out.append(("synth-empty", empty))
    out.append(("synth-no-vertex", replace(
        empty, city_objects={"tree": CityObject(type="PlantCover")})))
    big = synth.scene_to_model(synth.make_scene(seed=4, buildings=150,
                                                part_every=3))
    assert len(big.city_objects) > _writer._OBJECT_BATCH
    assert len(big.vertices) > _writer._VERTEX_BATCH
    out.append(("synth-150", big))
    out.append(("synth-150-quantized", geomops.quantize(big, 3)))
    out.append(("synth-unknown-members", replace(
        big, extra={"+note": "ŝtato 🏠", "+list": [1, 2.5, None]})))
    return out


def reference_text(model, pretty=False):
    """What every writer must give: the stdlib encoder's text of
    ``model_to_json``."""
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(codec.model_to_json(model), ensure_ascii=False,
                      allow_nan=False, **layout)


@pytest.mark.parametrize("model", [pytest.param(model, id=name)
                                   for name, model in writer_models()])
def test_every_writer_gives_the_reference_bytes(model, tmp_path):
    for pretty in (False, True):
        expected = reference_text(model, pretty)
        assert codec.dumps(model, pretty=pretty) == expected
        path = tmp_path / f"{pretty}.json"
        codec.dump(model, path, pretty=pretty)
        assert path.read_bytes() == expected.encode("utf-8")
        with open(tmp_path / "open.json", "w", encoding="utf-8") as fp:
            codec.dump(model, fp, pretty=pretty)
        assert (tmp_path / "open.json").read_text(encoding="utf-8") \
            == expected
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["False.json", "True.json", "open.json"]


def test_dump_holds_far_less_than_its_output(tmp_path):
    model = geomops.quantize(synth.scene_to_model(
        synth.make_scene(seed=1, buildings=400, part_every=5)), 3)
    size = len(codec.dumps(model).encode("utf-8"))
    tracemalloc.start()
    try:
        codec.dump(model, tmp_path / "out.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out.json").stat().st_size == size
    assert peak < size / 3, (peak, size)


def test_a_failed_dump_leaves_an_existing_file_as_it_was(tmp_path):
    model = synth.scene_to_model(synth.make_scene(seed=4, buildings=150))
    last = list(model.city_objects)[-1]
    model.city_objects[last].attributes["height"] = float("nan")
    target = tmp_path / "out.json"
    target.write_text("old bytes", encoding="utf-8")
    target.chmod(0o640)
    for pretty in (False, True):
        with pytest.raises(CodecError) as exc:
            codec.dump(model, target, pretty=pretty)
        assert exc.value.code == "SYNTAX_ERROR"
        assert target.read_text(encoding="utf-8") == "old bytes"
        with pytest.raises(CodecError):
            codec.dump(model, tmp_path / "new.json", pretty=pretty)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    del model.city_objects[last].attributes["height"]
    codec.dump(model, target)
    assert target.read_bytes() == reference_text(model).encode("utf-8")
    assert target.stat().st_mode & 0o777 == 0o640


def test_dump_writes_through_a_symbolic_link(tmp_path):
    model = codec.loads(as_text(cube_tree()))
    (tmp_path / "real.json").write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "real.json")
    codec.dump(model, link)
    assert link.is_symlink()
    assert (tmp_path / "real.json").read_text(encoding="utf-8") \
        == codec.dumps(model)
