"""Quantization, vertex hygiene, template expansion, extents."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cjtk import (CityModel, Transform, compute_extent, dedupe_vertices,
                  dequantize, quantize, remove_orphan_vertices)
from cjtk.errors import CjtkError
from cjtk.geomops import instantiate_template
from cjtk.model import replace

from helpers import as_model, cube_tree, record_model, tree_of
from test_validation import IDENTITY, instance_tree


def test_quantize_defaults_to_min_corner():
    model = as_model(cube_tree(origin=(100.0, 200.0, 5.0)))
    q = quantize(model, digits=3)
    assert q.transform.scale == [0.001, 0.001, 0.001]
    assert q.transform.translate == [100.0, 200.0, 5.0]
    assert q.vertices[0] == [0, 0, 0]
    assert q.vertices[6] == [10000, 10000, 10000]
    assert all(isinstance(c, int) for v in q.vertices for c in v)


def test_quantize_leaves_argument_untouched():
    model = as_model(cube_tree())
    quantize(model, digits=2)
    assert model.transform is None
    assert model.vertices[6] == [10.0, 10.0, 10.0]


def test_dequantize_recovers_coordinates():
    model = as_model(cube_tree(origin=(8000.5, 487000.25, 13.0)))
    back = dequantize(quantize(model, digits=2))
    for got, want in zip(back.vertices, model.vertices):
        for g, w in zip(got, want):
            assert abs(g - w) <= 0.005


def test_rounding_ties_go_away_from_zero():
    model = CityModel(vertices=[[0.5, -0.5, 2.5]])
    q = quantize(model, digits=0, translate=[0.0, 0.0, 0.0])
    assert q.vertices == [[1, -1, 3]]


def test_explicit_translate_is_kept():
    model = as_model(cube_tree())
    q = quantize(model, digits=1, translate=[-5.0, 0.0, 0.0])
    assert q.transform.translate == [-5.0, 0.0, 0.0]
    assert q.vertices[0] == [50, 0, 0]


@pytest.mark.parametrize("digits", [-1, 13, 1.5, "3"])
def test_quantize_rejects_bad_digit_counts(digits):
    with pytest.raises(CjtkError) as exc:
        quantize(as_model(cube_tree()), digits=digits)
    assert exc.value.code == "BAD_TRANSFORM"


def test_quantize_refuses_already_quantized():
    q = quantize(as_model(cube_tree()), digits=3)
    with pytest.raises(CjtkError) as exc:
        quantize(q, digits=2)
    assert exc.value.code == "ALREADY_QUANTIZED"
    r = quantize(q, digits=2, requantize=True)
    assert r.transform.scale == [0.01, 0.01, 0.01]
    assert r.vertices[6] == [1000, 1000, 1000]


def test_quantum_overflow():
    model = CityModel(vertices=[[1e18, 0.0, 0.0]])
    with pytest.raises(CjtkError) as exc:
        quantize(model, digits=12, translate=[0.0, 0.0, 0.0])
    assert exc.value.code == "QUANTUM_OVERFLOW"


def fraction_oracle(value, shift, digits: int) -> int:
    """(value - shift) in quanta of 10^-digits, rounded half away from zero
    in exact Fraction arithmetic."""
    fr = (Fraction(value) - Fraction(shift)) / Fraction(10) ** -digits
    n, d = fr.numerator, fr.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


# Finite floats (subnormal and huge included), plain and huge integers,
# dyadic rationals whose decimal expansion often ends in an exact .5
# quantum, and x.5 values.
COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.builds(lambda k, j: k / 2 ** j, st.integers(-2 ** 40, 2 ** 40),
              st.integers(0, 12)),
    st.integers(-2 ** 51, 2 ** 51).map(lambda k: k + 0.5),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=COORDINATES, shift=COORDINATES, digits=st.integers(0, 12))
@example(value=0.5, shift=0.0, digits=0)
@example(value=-2.5, shift=0.0, digits=0)
@example(value=0.125, shift=0.0, digits=2)
@example(value=-0.125, shift=0.0, digits=2)
@example(value=5e-324, shift=-5e-324, digits=12)
@example(value=1.7976931348623157e308, shift=0.0, digits=0)
def test_quantize_matches_fraction_oracle(value, shift, digits):
    shift = float(shift)
    translate = [shift, 0.0, -shift]
    want = [fraction_oracle(value, t, digits) for t in translate]
    model = CityModel(vertices=[[value, value, value]])
    if any(abs(q) >= 2 ** 53 for q in want):
        with pytest.raises(CjtkError) as exc:
            quantize(model, digits=digits, translate=translate)
        assert exc.value.code == "QUANTUM_OVERFLOW"
    else:
        assert quantize(model, digits=digits,
                        translate=translate).vertices == [want]


@pytest.mark.parametrize("value", [2 ** 53 - 2, 2 ** 53 - 1, 2 ** 53,
                                   2 ** 53 + 1])
@pytest.mark.parametrize("shift", [-1.5, -0.5, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("sign", [1, -1])
def test_quantum_overflow_boundary(value, shift, sign):
    value, shift = sign * value, sign * shift
    want = fraction_oracle(value, shift, 0)
    model = CityModel(vertices=[[value, 0.0, 0.0]])
    if abs(want) >= 2 ** 53:
        with pytest.raises(CjtkError) as exc:
            quantize(model, digits=0, translate=[shift, 0.0, 0.0])
        assert exc.value.code == "QUANTUM_OVERFLOW"
    else:
        q = quantize(model, digits=0, translate=[shift, 0.0, 0.0])
        assert q.vertices[0][0] == want


@pytest.mark.parametrize("bad, error", [(math.nan, ValueError),
                                        (math.inf, OverflowError),
                                        (-math.inf, OverflowError)])
def test_non_finite_coordinates_are_not_quantizable(bad, error):
    with pytest.raises(error):
        quantize(CityModel(vertices=[[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]),
                 translate=[0.0, 0.0, 0.0])
    with pytest.raises(error):
        quantize(CityModel(vertices=[[1.0, 2.0, 3.0]]),
                 translate=[bad, 0.0, 0.0])


def test_quantize_empty_pool():
    q = quantize(CityModel(), digits=3)
    assert q.vertices == []
    assert q.transform.translate == [0.0, 0.0, 0.0]


def test_dequantize_requires_transform():
    with pytest.raises(CjtkError) as exc:
        dequantize(as_model(cube_tree()))
    assert exc.value.code == "NO_TRANSFORM"


@pytest.mark.parametrize("scale", [0.0, -0.001, math.nan, math.inf])
def test_decoding_refuses_a_scale_that_is_not_positive_and_finite(scale):
    q = quantize(as_model(cube_tree()), digits=3)
    bad = replace(q, transform=Transform(scale=[0.001, scale, 0.001],
                                         translate=[0.0, 0.0, 0.0]))
    for decode in (dequantize, lambda m: quantize(m, 2, requantize=True)):
        with pytest.raises(CjtkError) as exc:
            decode(bad)
        assert (exc.value.code, exc.value.path) \
            == ("BAD_TRANSFORM", "transform/scale")


def test_quantize_is_a_fixed_point_on_integers():
    model = as_model(cube_tree(origin=(8623.234, 487111.009, 13.92)))
    q = quantize(model, digits=3)
    again = quantize(dequantize(q), digits=3,
                     translate=list(q.transform.translate))
    assert again.vertices == q.vertices
    assert again.transform == q.transform


def test_template_vertices_stay_local_under_quantize():
    model = as_model(instance_tree())
    q = quantize(model, digits=3)
    assert q.templates.vertices == model.templates.vertices
    assert q.vertices == [[0, 0, 0]]


# ---------------------------------------------------------------------------
# vertex hygiene
# ---------------------------------------------------------------------------


def test_dedupe_exact_duplicates():
    tree = cube_tree()
    tree["vertices"].append(list(tree["vertices"][2]))
    tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0][0][0] = \
        [0, 3, 8, 1]
    model = as_model(tree)
    out = dedupe_vertices(model)
    assert len(out.vertices) == 8
    assert out.city_objects["b-1"].geometry[0].boundaries[0][0][0] \
        == [0, 3, 2, 1]


def test_dedupe_with_tolerance_merges_into_earliest():
    model = CityModel(vertices=[[0.0, 0.0, 0.0], [0.004, 0.0, 0.0],
                                [1.0, 1.0, 1.0]])
    model.city_objects["p"] = as_model(cube_tree()).city_objects["b-1"]
    model.city_objects["p"].geometry[0].boundaries = [0, 1, 2]
    model.city_objects["p"].geometry[0].type = "MultiPoint"
    out = dedupe_vertices(model, tolerance=0.01)
    assert out.vertices == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    assert out.city_objects["p"].geometry[0].boundaries == [0, 0, 1]


@pytest.mark.parametrize("tolerance", [1e-310, 5e-324])
def test_dedupe_with_a_tiny_tolerance_matches_tolerance_zero(tolerance):
    tree = cube_tree(origin=(85000.0, 446000.0, 0.0))
    tree["vertices"].append(list(tree["vertices"][2]))
    model = as_model(tree)
    assert tree_of(dedupe_vertices(model, tolerance=tolerance)) \
        == tree_of(dedupe_vertices(model))


@pytest.mark.parametrize("tolerance", [0, 0.5])
def test_dedupe_that_merges_nothing_shares_the_pool_and_geometries(tolerance):
    model = as_model(cube_tree(semantics=True))
    out = dedupe_vertices(model, tolerance=tolerance)
    assert out is not model
    assert out.vertices is model.vertices
    assert out.city_objects is model.city_objects
    assert tree_of(out) == tree_of(model)


@pytest.mark.parametrize("tolerance", [0, 0.5])
@pytest.mark.parametrize("bad", [[8, -1], [-1, 8], [9, 8]])
def test_dedupe_names_the_first_index_outside_the_pool(bad, tolerance):
    tree = cube_tree()
    shell = tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0]
    shell[1][0][1], shell[4][0][2] = bad
    with pytest.raises(CjtkError) as exc:
        dedupe_vertices(as_model(tree), tolerance=tolerance)
    assert exc.value.code == "VERTEX_INDEX_OUT_OF_RANGE"
    assert exc.value.message == f"index {bad[0]} outside pool of 8"


@pytest.mark.parametrize("index", [True, False])
@pytest.mark.parametrize("op", [
    remove_orphan_vertices, dedupe_vertices,
    lambda m: dedupe_vertices(m, tolerance=0.5), compute_extent])
def test_a_bool_index_is_outside_the_pool(op, index):
    tree = cube_tree()
    tree["CityObjects"]["b-1"]["geometry"][0]["boundaries"][0][2][0][1] \
        = index
    with pytest.raises(CjtkError) as exc:
        op(record_model(tree))
    assert exc.value.code == "VERTEX_INDEX_OUT_OF_RANGE"
    assert exc.value.message == f"index {index} outside pool of 8"


def test_dedupe_rejects_negative_tolerance():
    with pytest.raises(CjtkError):
        dedupe_vertices(CityModel(), tolerance=-0.1)


def test_remove_orphan_vertices_compacts_both_pools():
    tree = instance_tree()
    tree["vertices"].insert(0, [77.0, 77.0, 77.0])
    tree["CityObjects"]["tree-1"]["geometry"][0]["boundaries"] = [1]
    tree["geometry-templates"]["vertices-templates"].append([5.0, 5.0, 5.0])
    out = remove_orphan_vertices(as_model(tree))
    assert out.vertices == [[10.0, 20.0, 5.0]]
    assert out.city_objects["tree-1"].geometry[0].boundaries == [0]
    assert len(out.templates.vertices) == 3


# ---------------------------------------------------------------------------
# template expansion and extents
# ---------------------------------------------------------------------------


def test_instantiate_template_identity_offsets_by_reference_point():
    geom, verts = instantiate_template(as_model(instance_tree()), "tree-1", 0)
    assert geom.type == "MultiPoint"
    assert geom.boundaries == [0, 1, 2]
    assert verts == [[10.0, 20.0, 5.0], [11.0, 20.0, 5.0], [10.0, 21.0, 5.0]]


def test_instantiate_template_lod_falls_back_to_template():
    model = as_model(instance_tree())
    assert instantiate_template(model, "tree-1", 0)[0].lod == 1
    model.city_objects["tree-1"].geometry[0].lod = 2
    assert instantiate_template(model, "tree-1", 0)[0].lod == 2


def test_instantiate_template_rejects_bad_targets():
    model = as_model(instance_tree())
    with pytest.raises(CjtkError) as exc:
        instantiate_template(model, "nobody", 0)
    assert exc.value.code == "UNKNOWN_ID"
    solid = as_model(cube_tree())
    with pytest.raises(CjtkError) as exc:
        instantiate_template(solid, "b-1", 0)
    assert exc.value.code == "UNKNOWN_GEOMETRY_KIND"


def test_compute_extent_ignores_orphan_vertices():
    tree = cube_tree()
    tree["vertices"].append([999.0, 999.0, 999.0])
    assert compute_extent(as_model(tree)) == [0.0, 0.0, 0.0,
                                              10.0, 10.0, 10.0]


def test_compute_extent_sees_through_transform_and_instances():
    q = quantize(as_model(cube_tree()), digits=3)
    assert compute_extent(q) == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
    inst = as_model(instance_tree())
    assert compute_extent(inst) == [10.0, 20.0, 5.0, 11.0, 21.0, 5.0]


def test_compute_extent_of_empty_model():
    with pytest.raises(CjtkError) as exc:
        compute_extent(CityModel())
    assert exc.value.code == "EMPTY_MODEL"


def test_scaled_instance_extent():
    tree = instance_tree()
    matrix = list(IDENTITY)
    matrix[0] = matrix[5] = matrix[10] = 2.0
    tree["CityObjects"]["tree-1"]["geometry"][0]["transformationMatrix"] = \
        matrix
    assert compute_extent(as_model(tree)) == [10.0, 20.0, 5.0,
                                              12.0, 22.0, 5.0]


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_dedupe_refuses_a_tolerance_that_is_not_finite(tolerance):
    with pytest.raises(CjtkError) as exc:
        dedupe_vertices(as_model(cube_tree()), tolerance=tolerance)
    assert exc.value.code == "BAD_TRANSFORM"


def test_instantiate_template_shares_the_template_semantics():
    tree = instance_tree()
    tree["geometry-templates"]["templates"][0] = {
        "type": "MultiSurface", "lod": 2, "boundaries": [[[0, 1, 2]]],
        "semantics": {"surfaces": [{"type": "RoofSurface"}], "values": [0]}}
    model = as_model(tree)
    expanded, _ = instantiate_template(model, "tree-1", 0)
    assert expanded.semantics is model.templates.templates[0].semantics
