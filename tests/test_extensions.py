"""Extension loading rules, schema fragments, and extended-model checks."""

import copy

import pytest

from cjtk import load_extension, strip_extensions, validate
from cjtk.errors import ExtensionError
from cjtk.extensions import check_fragment, combine, discover

from helpers import as_model, codes_of, cube_tree


def noise_building_tree():
    tree = cube_tree(oid="id-1")
    tree["extensions"] = {"Noise": {"url": "https://someurl.org/noise.json",
                                    "version": "0.1"}}
    tree["CityObjects"]["id-1"]["attributes"] = {
        "roofType": "gable",
        "+noise-buildingReflection": "facade",
        "+noise-buildingReflectionCorrection": {"value": 4.123, "uom": "dB"},
    }
    return tree


def barrier_extension():
    return load_extension({
        "type": "CityJSON_Extension",
        "name": "Barrier",
        "version": "1.0",
        "extraCityObjects": {
            "+NoiseBarrier": {
                "type": "object",
                "properties": {"type": {"type": "string"},
                               "geometry": {"type": "array"},
                               "attributes": {"type": "object"}},
                "required": ["type", "geometry"],
            },
        },
        "extraRootProperties": {
            "+noise-census": {"type": "object",
                              "properties": {"year": {"type": "integer"}}},
        },
    })


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_noise_extension_file(noise_extension):
    ext = noise_extension
    assert ext.name == "Noise"
    assert ext.version == "0.1"
    assert ext.uri == "https://someurl.org/noise.json"
    assert set(ext.extra_attributes) == {"Building"}
    assert set(ext.extra_attributes["Building"]) \
        == {"+noise-buildingReflection", "+noise-buildingReflectionCorrection"}


def test_load_rejects_non_extension_documents():
    with pytest.raises(ExtensionError) as exc:
        load_extension({"type": "CityJSON", "name": "X"})
    assert exc.value.code == "NOT_EXTENSION"
    with pytest.raises(ExtensionError) as exc:
        load_extension({"type": "CityJSON_Extension"})
    assert exc.value.code == "MISSING_REQUIRED_MEMBER"


@pytest.mark.parametrize("member,payload", [
    ("extraRootProperties", {"noise-census": {"type": "object"}}),
    ("extraAttributes", {"Building": {"noise-attr": {"type": "string"}}}),
    ("extraCityObjects", {"NoiseBarrier": {
        "type": "object",
        "properties": {"type": {}, "geometry": {}}}}),
])
def test_new_names_must_begin_with_plus(member, payload):
    doc = {"type": "CityJSON_Extension", "name": "X", member: payload}
    with pytest.raises(ExtensionError) as exc:
        load_extension(doc)
    assert exc.value.code == "BAD_PLUS_PREFIX"


def test_attributes_may_only_target_core_types():
    doc = {"type": "CityJSON_Extension", "name": "X",
           "extraAttributes": {"+NoiseBarrier":
                               {"+a": {"type": "string"}}}}
    with pytest.raises(ExtensionError) as exc:
        load_extension(doc)
    assert exc.value.code == "UNKNOWN_COTYPE"


def test_new_object_types_must_rule_type_and_geometry():
    doc = {"type": "CityJSON_Extension", "name": "X",
           "extraCityObjects": {"+Kiosk": {
               "type": "object", "properties": {"type": {}}}}}
    with pytest.raises(ExtensionError) as exc:
        load_extension(doc)
    assert exc.value.code == "MISSING_GEOMETRY_RULE"


@pytest.mark.parametrize("fragment", [
    {"type": "string", "minimum": 3},          # foreign keyword
    {"type": "float"},                          # unknown type name
    {"type": "object", "required": "value"},    # required not a list
    {"enum": "abc"},                            # enum not a list
    {"type": "array", "items": {"maxLength": 4}},
    {"type": "object", "properties": ["value"]},   # properties not a map
    {"type": {"name": "string"}},                   # type name not a string
    {"type": ["string", ["number"]]},
])
def test_unsupported_schema_keywords_fail_at_load(fragment):
    doc = {"type": "CityJSON_Extension", "name": "X",
           "extraRootProperties": {"+x": fragment}}
    with pytest.raises(ExtensionError) as exc:
        load_extension(doc)
    assert exc.value.code == "UNSUPPORTED_SCHEMA_KEYWORD"


def hostile_extension_files():
    """Files on the extension search path that are not extension documents,
    by name: (bytes, the code ``load_extension`` refuses them with)."""
    return {
        "undecodable-json": (b"{not json", "SYNTAX_ERROR"),
        "not-utf8": (b'{"type": "CityJSON_Extension", "name": "\xff"}',
                     "SYNTAX_ERROR"),
        "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, "SYNTAX_ERROR"),
        "array-document": (b"[]", "NOT_EXTENSION"),
        "string-document": (b'"CityJSON_Extension"', "NOT_EXTENSION"),
        "name-not-a-string": (b'{"type": "CityJSON_Extension", "name": []}',
                              "WRONG_MEMBER_TYPE"),
        "host-map-not-object": (
            b'{"type": "CityJSON_Extension", "name": "X",'
            b' "extraAttributes": {"Building": []}}', "WRONG_MEMBER_TYPE"),
        "properties-not-object": (
            b'{"type": "CityJSON_Extension", "name": "X",'
            b' "extraRootProperties": {"+x": {"properties": []}}}',
            "UNSUPPORTED_SCHEMA_KEYWORD"),
    }


@pytest.mark.parametrize("name", sorted(hostile_extension_files()))
def test_hostile_extension_files_raise_coded_errors(name, tmp_path):
    data, code = hostile_extension_files()[name]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ExtensionError) as exc:
        load_extension(path)
    assert exc.value.code == code
    with open(path, encoding="utf-8") as fp:
        with pytest.raises(ExtensionError):
            load_extension(fp)
    good = tmp_path / "good.json"
    good.write_text('{"type": "CityJSON_Extension", "name": "Noise"}',
                    encoding="utf-8")
    assert [e.name for e in discover(str(tmp_path))] == ["Noise"]


def test_discover_scans_directories(tmp_path, monkeypatch):
    good = tmp_path / "noise.json"
    good.write_text('{"type": "CityJSON_Extension", "name": "Noise"}',
                    encoding="utf-8")
    (tmp_path / "junk.json").write_text("not json", encoding="utf-8")
    (tmp_path / "other.json").write_text('{"type": "CityJSON"}',
                                         encoding="utf-8")
    monkeypatch.setenv("CJTK_EXTENSIONS", str(tmp_path))
    assert [e.name for e in discover()] == ["Noise"]
    assert [e.name for e in discover(str(good))] == ["Noise"]


# ---------------------------------------------------------------------------
# schema fragments
# ---------------------------------------------------------------------------


def test_check_fragment_types_and_enum():
    assert check_fragment("facade", {"type": "string"}) == []
    assert check_fragment(4.2, {"type": "string"}) != []
    assert check_fragment(3, {"type": ["number", "string"]}) == []
    assert check_fragment(True, {"type": "number"}) != []
    assert check_fragment("x", {"enum": ["x", "y"]}) == []
    assert check_fragment("z", {"enum": ["x", "y"]}) != []


def test_check_fragment_objects_and_arrays():
    frag = {"type": "object",
            "properties": {"value": {"type": "number"},
                           "uom": {"type": "string"}},
            "required": ["value"]}
    assert check_fragment({"value": 4.1, "uom": "dB"}, frag) == []
    assert check_fragment({"uom": "dB"}, frag) \
        == ["value lacks required member 'value'"]
    assert check_fragment({"value": "high"}, frag) != []
    items = {"type": "array", "items": {"type": "integer"}}
    assert check_fragment([1, 2, 3], items) == []
    assert check_fragment([1, "two"], items) != []


def test_combine_rejects_clashing_definitions():
    a = load_extension({"type": "CityJSON_Extension", "name": "A",
                        "extraAttributes":
                        {"Building": {"+x": {"type": "string"}}}})
    b = load_extension({"type": "CityJSON_Extension", "name": "B",
                        "extraAttributes":
                        {"Building": {"+x": {"type": "number"}}}})
    with pytest.raises(ExtensionError) as exc:
        combine([a, b])
    assert exc.value.code == "EXTENSION_KEY_COLLISION"
    assert set(combine([a, a])) == {"A"}


# ---------------------------------------------------------------------------
# extended-model validation
# ---------------------------------------------------------------------------


def test_valid_extended_building(noise_extension):
    model = as_model(noise_building_tree())
    assert validate(model, [noise_extension]) == []


def test_extension_stage_only_runs_when_schemas_are_passed(noise_extension):
    model = as_model(noise_building_tree())
    assert validate(model) == []          # nothing checks the "+" members
    findings = validate(model, [])
    assert "MISSING_EXTENSION_SCHEMA" in codes_of(findings)


def test_wrong_attribute_type(noise_extension):
    tree = noise_building_tree()
    attrs = tree["CityObjects"]["id-1"]["attributes"]
    attrs["+noise-buildingReflection"] = 42
    findings = validate(as_model(tree), [noise_extension])
    assert codes_of(findings) == ["EXTENSION_SCHEMA_VIOLATION"]


def test_undeclared_attribute(noise_extension):
    tree = noise_building_tree()
    tree["CityObjects"]["id-1"]["attributes"]["+noise-unknown"] = 1
    findings = validate(as_model(tree), [noise_extension])
    assert codes_of(findings) == ["UNDECLARED_EXTENSION_MEMBER"]


def test_undeclared_object_type_and_root_member(noise_extension):
    tree = noise_building_tree()
    tree["CityObjects"]["wall-7"] = {"type": "+NoiseBarrier", "geometry": []}
    tree["+noise-map"] = {"cells": 4}
    findings = validate(as_model(tree), [noise_extension])
    assert [f.code for f in findings] == ["UNDECLARED_EXTENSION_MEMBER"] * 2


def test_declared_object_type_and_root_member(noise_extension):
    tree = noise_building_tree()
    tree["extensions"]["Barrier"] = {"url": "https://example.org/b.json",
                                     "version": "1.0"}
    tree["CityObjects"]["wall-7"] = {"type": "+NoiseBarrier", "geometry": []}
    tree["+noise-census"] = {"year": 2020}
    model = as_model(tree)
    assert validate(model, [noise_extension, barrier_extension()]) == []
    bad = copy.deepcopy(tree)
    bad["+noise-census"] = {"year": "2020"}
    findings = validate(as_model(bad), [noise_extension, barrier_extension()])
    assert codes_of(findings) == ["EXTENSION_SCHEMA_VIOLATION"]


def test_missing_extension_schema(noise_extension):
    tree = noise_building_tree()
    tree["extensions"]["Thermal"] = {"url": "https://example.org/t.json",
                                     "version": "2.1"}
    findings = validate(as_model(tree), [noise_extension])
    assert codes_of(findings) == ["MISSING_EXTENSION_SCHEMA"]
    assert findings[0].path == "extensions/Thermal"


def test_geometry_outside_the_geometry_member(noise_extension):
    tree = noise_building_tree()
    tree["CityObjects"]["id-1"]["shape"] = {
        "boundaries": [[[0, 1, 2, 3]]]}
    findings = validate(as_model(tree), [noise_extension])
    assert codes_of(findings) == ["MISPLACED_GEOMETRY"]
    assert findings[0].path == "CityObjects/id-1/shape"

    ringlike = noise_building_tree()
    ringlike["CityObjects"]["id-1"]["footprint"] = [[0, 1, 2], [3, 4, 5]]
    findings = validate(as_model(ringlike), [noise_extension])
    assert codes_of(findings) == ["MISPLACED_GEOMETRY"]


def test_harmless_extra_members_pass(noise_extension):
    tree = noise_building_tree()
    tree["CityObjects"]["id-1"]["note"] = "kept verbatim"
    tree["CityObjects"]["id-1"]["scores"] = [1, 2]   # flat, not ring-like
    assert validate(as_model(tree), [noise_extension]) == []


def test_strip_extensions(noise_extension):
    tree = noise_building_tree()
    tree["extensions"]["Barrier"] = {"url": "https://example.org/b.json",
                                     "version": "1.0"}
    tree["CityObjects"]["wall-7"] = {"type": "+NoiseBarrier", "geometry": [],
                                     "parents": ["id-1"]}
    tree["CityObjects"]["id-1"]["children"] = ["wall-7"]
    tree["+noise-census"] = {"year": 2020}
    model = as_model(tree)

    plain = strip_extensions(model)
    assert plain.extensions == {}
    assert set(plain.city_objects) == {"id-1"}
    assert plain.city_objects["id-1"].children == []
    assert plain.city_objects["id-1"].attributes == {"roofType": "gable"}
    assert plain.extra == {}
    assert validate(plain, []) == []

    # untouched input, idempotent output
    assert set(model.city_objects) == {"id-1", "wall-7"}
    twice = strip_extensions(plain)
    assert twice.city_objects.keys() == plain.city_objects.keys()
