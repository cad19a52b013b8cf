"""Structural and consistency checks, and how the stages compose."""

import sys
import tracemalloc

import pytest

from cjtk import codec, is_valid, ops, synth, validate, validate_text
from cjtk.errors import CjtkError, CodecError
from cjtk.validation import (errors_of, parse_and_validate,
                             validate_consistency, validate_structure,
                             warnings_of)

from cjtk.codec import shape_problems

from conftest import committed_corpus
from helpers import (CUBE_SHELL, as_model, as_text, base_inputs, codes_of,
                     consistency_mutants, cube_tree, deep_documents,
                     mutant_text, record_model, shape_mutants, tree_of)
from test_codec import hostile_inputs, hostile_models

IDENTITY = [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0]


def instance_tree():
    """One template instance plus its bank; every vertex referenced."""
    return {
        "type": "CityJSON",
        "version": "1.0",
        "CityObjects": {"tree-1": {
            "type": "SolitaryVegetationObject",
            "geometry": [{"type": "GeometryInstance", "template": 0,
                          "boundaries": [0],
                          "transformationMatrix": list(IDENTITY)}],
        }},
        "vertices": [[10.0, 20.0, 5.0]],
        "geometry-templates": {
            "templates": [{"type": "MultiPoint", "lod": 1,
                           "boundaries": [0, 1, 2]}],
            "vertices-templates": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0]],
        },
    }


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_clean_model_has_no_findings():
    assert validate(as_model(cube_tree(semantics=True))) == []
    assert validate(as_model(instance_tree())) == []


def test_unknown_object_type():
    model = as_model(cube_tree(cotype="Skyscraper"))
    findings = validate_structure(model)
    assert codes_of(findings) == ["UNKNOWN_COTYPE"]
    assert findings[0].path == "CityObjects/b-1/type"


def test_plus_prefixed_object_type_is_structurally_fine():
    assert validate_structure(as_model(cube_tree(cotype="+NoiseBuilding"))) == []


def test_wrong_boundary_nesting_depth():
    model = as_model(cube_tree())
    model.city_objects["b-1"].geometry[0].boundaries = [[0, 1, 2, 3]]
    findings = validate_structure(model)
    assert codes_of(findings) == ["BAD_GEOMETRY_SHAPE"]
    found = findings[0]
    assert (found.code, found.path, found.message) == (
        "BAD_GEOMETRY_SHAPE", "CityObjects/b-1/geometry/0/boundaries/0/0",
        "expected 2 more array level(s)")


def test_short_ring_and_explicitly_closed_ring():
    tree = cube_tree()
    shell = tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0]
    shell[0][0] = [0, 1]           # two corners
    shell[1][0] = [4, 5, 6, 7, 4]  # repeats the first vertex
    findings = validate_structure(as_model(tree))
    assert [f.code for f in findings] == ["BAD_GEOMETRY_SHAPE"] * 2
    assert findings[0].path.endswith("boundaries/0/0/0")
    assert findings[1].path.endswith("boundaries/0/1/0")


def test_bad_rings_in_two_solids_of_a_multisolid_are_named_in_order():
    tree = cube_tree()
    geom = tree["CityObjects"]["b-1"]["geometry"][0]
    second = [[list(ring) for ring in face] for face in CUBE_SHELL]
    second[4][0] = [2, 3, 7, 2]    # repeats the first vertex
    geom["type"] = "MultiSolid"
    geom["boundaries"] = [geom["boundaries"], [second]]
    geom["boundaries"][0][0][2][0] = [0, 1]  # two corners
    findings = validate_structure(as_model(tree))
    base = "CityObjects/b-1/geometry/0/boundaries"
    assert [(f.code, f.path, f.message) for f in findings] == [
        ("BAD_GEOMETRY_SHAPE", f"{base}/0/0/2/0",
         "a ring needs at least 3 vertex indices"),
        ("BAD_GEOMETRY_SHAPE", f"{base}/1/0/4/0",
         "rings are implicitly closed; the first vertex must not be "
         "repeated at the end")]


def test_points_and_lines_have_no_rings_to_check():
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"] = [
        {"type": "MultiLineString", "lod": 1, "boundaries": [[0, 1], [2, 3]]},
        {"type": "MultiLineString", "lod": 1, "boundaries": [[4, 5, 4]]},
        {"type": "MultiPoint", "lod": 1, "boundaries": [6, 7]}]
    assert validate(as_model(tree)) == []


def test_missing_lod():
    tree = cube_tree()
    del tree["CityObjects"]["b-1"]["geometry"][0]["lod"]
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["MISSING_REQUIRED_MEMBER"]
    assert findings[0].path.endswith("geometry/0/lod")


def test_refined_lod_values_are_legal():
    assert validate_structure(as_model(cube_tree(lod=2.1))) == []


def test_bad_matrix():
    tree = instance_tree()
    tree["CityObjects"]["tree-1"]["geometry"][0]["transformationMatrix"] = \
        list(IDENTITY)[:12]
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["BAD_MATRIX"]


def test_template_index_out_of_range():
    tree = instance_tree()
    tree["CityObjects"]["tree-1"]["geometry"][0]["template"] = 7
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["TEMPLATE_INDEX_OUT_OF_RANGE"]


def test_bad_transform():
    tree = cube_tree(transform={"scale": [0.0, 0.001, 0.001],
                                "translate": [0.0, 0.0, 0.0]})
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["BAD_TRANSFORM"]


def test_non_epsg_reference_system():
    tree = cube_tree(metadata={"referenceSystem":
                               "urn:ogc:def:crs:EPSG::7415"})
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["INVALID_CRS"]


def test_invalid_extents():
    tree = cube_tree(metadata={"geographicalExtent": [0, 0, 0, 1, 1]})
    tree["CityObjects"]["b-1"]["geographicalExtent"] = [5, 0, 0, 1, 1, 1]
    findings = validate_structure(as_model(tree))
    assert [f.code for f in findings] == ["INVALID_EXTENT"] * 2
    assert {f.path for f in findings} == {"metadata/geographicalExtent",
                                          "CityObjects/b-1/geographicalExtent"}


def test_unknown_semantic_type_is_a_warning():
    tree = cube_tree(semantics=True)
    sem = tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]
    sem["surfaces"][1]["type"] = "FacadeSurface"
    findings = validate_structure(as_model(tree))
    assert codes_of(findings) == ["UNKNOWN_SEMANTIC_TYPE"]
    assert not errors_of(findings) and warnings_of(findings)
    sem["surfaces"][1]["type"] = "+ThermalSurface"
    assert validate_structure(as_model(tree)) == []


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def family_tree():
    tree = cube_tree(oid="house")
    tree["CityObjects"]["house"]["children"] = ["wing"]
    tree["CityObjects"]["wing"] = {"type": "BuildingPart",
                                   "parents": ["house"], "geometry": []}
    return tree


def test_family_links_agree():
    assert validate(as_model(family_tree())) == []


def test_child_not_listing_parent():
    tree = family_tree()
    tree["CityObjects"]["wing"]["parents"] = []
    findings = validate_consistency(as_model(tree))
    assert codes_of(findings) == ["MISSING_PARENT", "PARENT_CHILD_MISMATCH"]


def test_dangling_child_and_parent():
    tree = family_tree()
    tree["CityObjects"]["house"]["children"] = ["ghost"]
    tree["CityObjects"]["wing"]["parents"] = ["phantom"]
    findings = validate_consistency(as_model(tree))
    assert [f.code for f in errors_of(findings)] \
        == ["PARENT_CHILD_MISMATCH"] * 2


def test_semantics_values_must_mirror_boundaries():
    tree = cube_tree(semantics=True)
    sem = tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]
    sem["values"] = [[0, 1, 2]]  # six surfaces in the shell
    findings = validate_consistency(as_model(tree))
    assert codes_of(findings) == ["SEMANTICS_SHAPE_MISMATCH"]


def test_semantics_index_out_of_range():
    tree = cube_tree(semantics=True)
    sem = tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]
    sem["values"][0][3] = 9
    findings = validate_consistency(as_model(tree))
    assert codes_of(findings) == ["SEMANTICS_SHAPE_MISMATCH"]
    assert "not in 0..2" in findings[0].message


def test_null_semantic_values_are_fine():
    tree = cube_tree(semantics=True)
    sem = tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]
    sem["values"][0][3] = None
    assert validate(as_model(tree)) == []


def test_duplicate_vertex_warning():
    tree = cube_tree()
    tree["vertices"][5] = list(tree["vertices"][2])
    findings = validate_consistency(as_model(tree))
    assert codes_of(findings) == ["DUPLICATE_VERTEX"]
    assert findings[0].severity == "warning"
    assert findings[0].path == "vertices/5"


def test_orphan_vertex_warning_in_both_pools():
    tree = instance_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    tree["geometry-templates"]["vertices-templates"].append([9.0, 9.0, 9.0])
    findings = validate_consistency(as_model(tree))
    assert [f.code for f in findings] == ["ORPHAN_VERTEX"] * 2
    assert {f.path for f in findings} \
        == {"vertices/1", "geometry-templates/vertices-templates/3"}


def test_instance_reference_point_counts_as_used():
    assert validate_consistency(as_model(instance_tree())) == []


def test_vertex_index_out_of_range_reported_once_per_geometry():
    tree = cube_tree()
    shell = tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0]
    shell[0][0][0] = 50
    shell[1][0][0] = 60
    findings = validate_consistency(as_model(tree))
    errors = errors_of(findings)
    assert [f.code for f in errors] == ["VERTEX_INDEX_OUT_OF_RANGE"]


def test_template_boundary_index_checked_against_template_pool():
    tree = instance_tree()
    tree["geometry-templates"]["templates"][0]["boundaries"] = [0, 1, 5]
    findings = validate_consistency(as_model(tree))
    errors = errors_of(findings)
    assert [f.code for f in errors] == ["VERTEX_INDEX_OUT_OF_RANGE"]
    assert errors[0].path.startswith("geometry-templates/templates/0")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_structure_errors_suppress_consistency_findings():
    tree = cube_tree(cotype="Skyscraper")
    tree["vertices"].append([99.0, 99.0, 99.0])  # would be an orphan
    findings = validate(as_model(tree))
    assert codes_of(findings) == ["UNKNOWN_COTYPE"]
    assert all(f.stage == "structure" for f in findings)


def test_structure_warnings_do_not_suppress_consistency():
    tree = cube_tree(semantics=True)
    sem = tree["CityObjects"]["b-1"]["geometry"][0]["semantics"]
    sem["surfaces"][0]["type"] = "FacadeSurface"
    tree["vertices"].append([99.0, 99.0, 99.0])
    findings = validate(as_model(tree))
    assert codes_of(findings) == ["ORPHAN_VERTEX", "UNKNOWN_SEMANTIC_TYPE"]


def test_validate_text_reports_syntax_stage():
    findings = validate_text('{"type": "CityJSON"')
    assert len(findings) == 1
    assert findings[0].code == "SYNTAX_ERROR"
    assert findings[0].stage == "syntax"
    assert not is_valid(findings)


def test_validate_text_matches_validate_on_clean_text():
    text = as_text(cube_tree(semantics=True))
    assert validate_text(text) == validate(as_model(cube_tree(semantics=True)))


def test_findings_sort_by_path_then_code():
    tree = cube_tree(cotype="Skyscraper",
                     metadata={"referenceSystem": "EPSG-7415"})
    findings = validate(as_model(tree))
    assert [f.path for f in findings] == sorted(f.path for f in findings)


def test_is_valid_tolerates_warnings():
    tree = cube_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    findings = validate(as_model(tree))
    assert warnings_of(findings) and is_valid(findings)


@pytest.mark.parametrize("name", sorted(hostile_inputs()))
def test_validate_text_reports_hostile_input_without_raising(name):
    findings = validate_text(hostile_inputs()[name])
    assert [(f.code, f.severity, f.stage) for f in findings] \
        == [("SYNTAX_ERROR", "error", "syntax")]


def test_parse_and_validate_returns_the_model_it_checked():
    text = as_text(cube_tree(semantics=True))
    model, findings = parse_and_validate(text)
    assert findings == validate_text(text) == validate(model)
    assert tree_of(model) == tree_of(as_model(cube_tree(semantics=True)))
    assert parse_and_validate('{"type": "CityJSON"')[0] is None


def _parsed_documents():
    """The text of every corpus file, of the synth scenes and of each
    consistency mutant that parses."""
    texts = [path.read_bytes() for path in committed_corpus()]
    texts += [codec.dumps(model) for name, model in base_inputs()
              if name.startswith("synth-")]
    texts += [mutant_text(tree) for tree in consistency_mutants().values()]
    return [text for text in texts if parse_and_validate(text)[0]]


def test_validate_text_runs_the_shape_rules_once_per_document(monkeypatch):
    texts = _parsed_documents()
    real = shape_problems
    calls = []

    def spy(model):
        calls.append(model)
        return real(model)

    # Every module that refers to the rules calls the spy.
    for module in list(sys.modules.values()):
        if module.__name__.startswith("cjtk") \
                and getattr(module, "shape_problems", None) is real:
            monkeypatch.setattr(module, "shape_problems", spy)
    for text in texts:
        validate_text(text)
    assert len(calls) == len(texts)


def test_a_parsed_document_gets_the_findings_of_its_model():
    for text in _parsed_documents():
        assert parse_and_validate(text)[1] == validate(codec.parse(text)[0])


def test_an_open_file_gives_what_its_bytes_give(tmp_path):
    """Every corpus file, synth scene and parsing mutant, and every
    hostile or shape-breaking document, read from an open binary file."""
    texts = _parsed_documents() + list(hostile_inputs().values()) + [
        mutant_text(tree) for tree in shape_mutants().values()]
    path = tmp_path / "doc.json"
    for text in texts:
        data = text.encode("utf-8") if isinstance(text, str) else text
        path.write_bytes(data)
        with path.open("rb") as fp:
            model, findings = parse_and_validate(fp)
            assert not fp.closed  # the caller closes what it opened
        assert (model, findings) == parse_and_validate(data)
        assert findings == validate_text(text)


def test_an_open_file_is_freed_as_it_is_parsed(tmp_path):
    """Handed an open file, the reader holds the decoded text only until
    ``json.loads`` returns, so parsing and validating a synth scene peaks
    less than 1.25 times the file's size above the model it returns (0.83
    on Python 3.11 to 3.13, 0.93 on 3.10, for 0.79 MB).  Text kept alive
    through the model's construction peaks at 1.6 times, and text kept
    through validation too at 2.1 times."""
    path = tmp_path / "scene.json"
    path.write_text(codec.dumps(synth.scene_to_model(synth.make_scene(
        seed=3, buildings=400, part_every=5))), encoding="utf-8")
    tracemalloc.start()
    try:
        with path.open("rb") as fp:
            result = parse_and_validate(fp)
        model, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[1] == []
    assert peak - model < 1.25 * path.stat().st_size, (
        peak, model, path.stat().st_size)


@pytest.mark.parametrize("name", sorted(
    name for name, (_, stages) in hostile_models().items()
    if ("validate",) in stages))
def test_validate_text_reports_hostile_models_without_raising(name):
    text, stages = hostile_models()[name]
    assert stages[("validate",)] in codes_of(errors_of(validate_text(text)))


@pytest.mark.parametrize("name", sorted(deep_documents()))
def test_validate_text_walks_deep_values_without_raising(name,
                                                         noise_extension):
    text = as_text(deep_documents()[name])
    for exts in (None, [], [noise_extension]):
        assert validate_text(text, exts) == []


# ---------------------------------------------------------------------------
# shape rules, shared by the codec and the validator
# ---------------------------------------------------------------------------


def _ops_succeed_or_refuse(model):
    first = next(iter(model.city_objects))
    for op in (lambda: ops.subset(model, ids=[first]),
               lambda: ops.partition_grid(model, 2, 2),
               lambda: ops.partition_by_type(model),
               lambda: ops.merge([model, model], policy="suffix")):
        try:
            op()
        except CjtkError:
            pass


@pytest.mark.parametrize("name", sorted(shape_mutants()))
def test_validate_text_names_each_shape_mutant(name):
    mutant = shape_mutants()[name]
    text = mutant_text(mutant.tree)
    errors = errors_of(validate_text(text))
    if not errors:
        _ops_succeed_or_refuse(codec.loads(text))
    first = errors[0] if errors else None
    assert mutant.expect == (first and (first.code, first.path, first.stage))


@pytest.mark.parametrize("name", sorted(
    name for name, mutant in shape_mutants().items()
    if mutant.expect and mutant.expect[2] == "syntax"))
def test_codec_and_validator_agree_on_each_shape_mutant(name):
    mutant = shape_mutants()[name]
    with pytest.raises(CodecError) as exc:
        codec.parse(mutant_text(mutant.tree))
    first = errors_of(validate(record_model(mutant.tree)))[0]
    assert (exc.value.code, exc.value.path) == (first.code, first.path) \
        == mutant.expect[:2]
