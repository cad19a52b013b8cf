"""Shared builders for test models.

Everything here produces plain JSON trees (dicts) or parses them through
the public codec, so the tests exercise the same entry points users do.
"""

import copy
import json
from collections import namedtuple

from cjtk import codec, synth
from cjtk.model import CityModel, CityObject, TemplateBank, Transform

from conftest import committed_corpus

CUBE_SHELL = [
    [[0, 3, 2, 1]], [[4, 5, 6, 7]], [[0, 1, 5, 4]],
    [[1, 2, 6, 5]], [[2, 3, 7, 6]], [[3, 0, 4, 7]],
]

CUBE_SEMANTICS = {
    "surfaces": [{"type": "GroundSurface"}, {"type": "RoofSurface"},
                 {"type": "WallSurface"}],
    "values": [[0, 1, 2, 2, 2, 2]],
}


def cube_vertices(ox=0.0, oy=0.0, oz=0.0, s=10.0):
    """Corner rows of an axis-aligned cube, bottom ring then top ring."""
    return [
        [ox, oy, oz], [ox + s, oy, oz], [ox + s, oy + s, oz], [ox, oy + s, oz],
        [ox, oy, oz + s], [ox + s, oy, oz + s], [ox + s, oy + s, oz + s],
        [ox, oy + s, oz + s],
    ]


def shifted_shell(offset):
    return [[[i + offset for i in ring] for ring in face]
            for face in CUBE_SHELL]


def cube_tree(oid="b-1", cotype="Building", origin=(0.0, 0.0, 0.0),
              size=10.0, lod=2, semantics=False, **root_members):
    """A complete one-object document tree holding a single cube solid."""
    geom = {"type": "Solid", "lod": lod,
            "boundaries": [copy.deepcopy(CUBE_SHELL)]}
    if semantics:
        geom["semantics"] = copy.deepcopy(CUBE_SEMANTICS)
    tree = {
        "type": "CityJSON",
        "version": "1.0",
        "CityObjects": {oid: {"type": cotype, "geometry": [geom]}},
        "vertices": cube_vertices(*origin, size),
    }
    tree.update(root_members)
    return tree


def as_model(tree):
    model, _ = codec.parse(json.dumps(tree))
    return model


def as_text(tree):
    return json.dumps(tree)


def tree_of(model):
    return json.loads(codec.dumps(model))


def codes_of(findings):
    return sorted({f.code for f in findings})


def corpus_tree(name):
    """The document tree of the committed corpus file ``name`` (its stem,
    such as "02-building-with-parts")."""
    path = next(p for p in committed_corpus() if p.name.split(".")[0] == name)
    return json.loads(path.read_text(encoding="utf-8"))


def base_inputs():
    """(name, model) of the committed corpus files and three ``synth``
    scenes, in a fixed order."""
    out = [(path.name.split(".")[0],
            codec.parse(path.read_bytes())[0])
           for path in committed_corpus()]
    for seed in (1, 2, 3):
        scene = synth.make_scene(seed=seed, buildings=12, clusters=2,
                                 part_every=4)
        out.append((f"synth-{seed}", synth.scene_to_model(scene)))
    return out


def deep_list(depth):
    """``[[...[1]...]]``, ``depth`` lists deep."""
    value = [1]
    for _ in range(depth - 1):
        value = [value]
    return value


def deep_documents(depth=900):
    """Valid documents (JSON trees), each holding one value ``depth``
    lists deep: an attribute, an unknown object member, the values of a
    material theme and those of a texture theme."""
    def first_geometry_with(tree, member):
        return next(g for co in tree["CityObjects"].values()
                    for g in co["geometry"] if member in g)

    out = {}
    for name in ("attribute", "member"):
        tree = corpus_tree("02-building-with-parts")
        co = next(iter(tree["CityObjects"].values()))
        if name == "attribute":
            co.setdefault("attributes", {})["deep"] = deep_list(depth)
        else:
            co["+deep"] = deep_list(depth)
        out[name] = tree
    for name, corpus_name in (("material", "16-appearance-materials"),
                              ("texture", "15-appearance-textures")):
        tree = corpus_tree(corpus_name)
        themes = first_geometry_with(tree, name)[name]
        next(iter(themes.values()))["values"] = deep_list(depth)
        out[name] = tree
    return out


# -- shape mutants ---------------------------------------------------------

# One document with one shape defect, and the first error finding
# ``validate_text`` reports for it: (code, path, stage), or None where the
# document is valid.
ShapeMutant = namedtuple("ShapeMutant", "tree expect")


def mutant_text(tree):
    """Document text of a mutant tree; an infinite float is written as the
    literal 1e999, which overflows a double when read."""
    return json.dumps(tree).replace("Infinity", "1e999")


def record_model(tree):
    """The model of a document tree built from the model's records, without
    the codec's checks, so that a shape defect the codec would refuse
    reaches the validator."""
    bank = tree.get("geometry-templates")
    return CityModel(
        city_objects={oid: CityObject.from_json(co)
                      for oid, co in tree["CityObjects"].items()},
        vertices=tree["vertices"],
        transform=Transform.from_json(tree["transform"])
        if "transform" in tree else None,
        templates=TemplateBank.from_json(bank) if bank else None,
        appearance=tree.get("appearance"), metadata=tree.get("metadata"))


def shape_mutants():
    """Documents breaking one shape rule each (or near misses that are
    valid), by name.  They include a list or integer type and a semantic
    surface that is not an object, which the validator must report rather
    than crash on, and ``members``, ``material`` or ``texture`` of the
    wrong type, which the ops cannot handle."""
    out = {}

    def mutant(name, tree, change, code=None, path=None, stage="syntax"):
        change(tree)
        out[name] = ShapeMutant(tree, code and (code, path, stage))

    def geom(tree):
        return tree["CityObjects"]["b-1"]["geometry"][0]

    def setter(get, key, value):
        return lambda tree: get(tree).__setitem__(key, value)

    g0 = "CityObjects/b-1/geometry/0"

    # Types: not a string is no known type.
    mutant("geometry-type-list", cube_tree(), setter(geom, "type", ["Solid"]),
           "UNKNOWN_COTYPE", f"{g0}/type", "structure")
    mutant("geometry-type-int", cube_tree(), setter(geom, "type", 5),
           "UNKNOWN_COTYPE", f"{g0}/type", "structure")
    mutant("object-type-int", cube_tree(),
           setter(lambda t: t["CityObjects"]["b-1"], "type", 5),
           "UNKNOWN_COTYPE", "CityObjects/b-1/type", "structure")

    # lod.
    for name, lod in (("string", "2"), ("bool", True)):
        mutant(f"lod-{name}", cube_tree(), setter(geom, "lod", lod),
               "WRONG_MEMBER_TYPE", f"{g0}/lod")
    mutant("lod-refined", cube_tree(), setter(geom, "lod", 2.5))

    # Boundaries of a Solid, four levels deep.
    def ring(tree):
        return geom(tree)["boundaries"][0][0][0]

    mutant("boundaries-too-shallow", cube_tree(),
           setter(geom, "boundaries", [[0, 1, 2, 3]]),
           "BAD_GEOMETRY_SHAPE", f"{g0}/boundaries/0/0")
    mutant("boundaries-not-an-array", cube_tree(),
           setter(geom, "boundaries", 5),
           "BAD_GEOMETRY_SHAPE", f"{g0}/boundaries")
    mutant("boundaries-too-deep", cube_tree(), setter(ring, 0, [0]),
           "BAD_GEOMETRY_SHAPE", f"{g0}/boundaries/0/0/0/0")
    mutant("boundaries-bool-index", cube_tree(), setter(ring, 1, True),
           "BAD_GEOMETRY_SHAPE", f"{g0}/boundaries/0/0/0/1")
    mutant("boundaries-float-index", cube_tree(), setter(ring, 2, 2.0),
           "BAD_GEOMETRY_SHAPE", f"{g0}/boundaries/0/0/0/2")

    # Instances: exactly one integer reference point.
    def instance(tree):
        return tree["CityObjects"]["lamp-row"]["geometry"][0]

    i0 = "CityObjects/lamp-row/geometry/0"
    for name, points, path in (("two-points", [0, 1], ""),
                               ("no-point", [], ""),
                               ("string-point", ["0"], "/0"),
                               ("nested-point", [[0]], "/0"),
                               ("not-an-array", 0, "")):
        mutant(f"instance-{name}", corpus_tree("22-two-instances"),
               setter(instance, "boundaries", points),
               "BAD_GEOMETRY_SHAPE", f"{i0}/boundaries{path}")
    mutant("instance-lod-string", corpus_tree("22-two-instances"),
           setter(instance, "lod", "1"), "WRONG_MEMBER_TYPE", f"{i0}/lod")

    # Semantics.
    def semantics(tree):
        return geom(tree)["semantics"]

    mutant("semantics-not-an-object", cube_tree(semantics=True),
           setter(geom, "semantics", 5), "WRONG_MEMBER_TYPE",
           f"{g0}/semantics")
    mutant("semantic-surfaces-an-object", cube_tree(semantics=True),
           setter(semantics, "surfaces", {}), "WRONG_MEMBER_TYPE",
           f"{g0}/semantics")
    mutant("semantic-values-an-integer", cube_tree(semantics=True),
           setter(semantics, "values", 5), "WRONG_MEMBER_TYPE",
           f"{g0}/semantics")
    mutant("semantic-surface-a-string", cube_tree(semantics=True),
           setter(lambda t: semantics(t)["surfaces"], 1, "RoofSurface"),
           "WRONG_MEMBER_TYPE", f"{g0}/semantics/surfaces/1")
    mutant("semantic-surface-unknown-type", cube_tree(semantics=True),
           setter(lambda t: semantics(t)["surfaces"], 1, {"type": "Atrium"}))

    # Links: arrays of ids, as written.
    def family(oid):
        return lambda tree: tree["CityObjects"][oid]

    for member, oid, value in (("parents", "id-2", "id-1"),
                               ("children", "id-1", ["id-2", 3])):
        mutant(f"{member}-not-ids", corpus_tree("02-building-with-parts"),
               setter(family(oid), member, value), "WRONG_MEMBER_TYPE",
               f"CityObjects/{oid}/{member}")
    for name, members in (("int", 5), ("object", {}), ("ints", [1]),
                          ("arrays", [[1]]), ("objects", [{}])):
        mutant(f"members-{name}", corpus_tree("18-cityobjectgroup"),
               setter(family("block-north"), "members", members),
               "WRONG_MEMBER_TYPE", "CityObjects/block-north/members")
    mutant("members-one", corpus_tree("18-cityobjectgroup"),
           setter(family("block-north"), "members", ["house-b"]))

    # Appearance members of a geometry, and their themes: objects.
    wrong = {"int": 5, "array": [1], "string": "x"}
    for member, corpus, oid in (
            ("material", "16-appearance-materials", "tank-4"),
            ("texture", "15-appearance-textures", "kiosk-1")):
        def appearance_geom(tree, oid=oid):
            return tree["CityObjects"][oid]["geometry"][0]

        for name, value in wrong.items():
            mutant(f"{member}-{name}", corpus_tree(corpus),
                   setter(appearance_geom, member, value), "WRONG_MEMBER_TYPE",
                   f"CityObjects/{oid}/geometry/0/{member}")
        mutant(f"{member}-no-themes", corpus_tree(corpus),
               setter(appearance_geom, member, {}))
        mutant(f"{member}-theme-int", corpus_tree(corpus),
               setter(appearance_geom, member, {"winter": 5}),
               "WRONG_MEMBER_TYPE",
               f"CityObjects/{oid}/geometry/0/{member}/winter")

    # Vertex pools: rows of three finite numbers.
    def row(tree):
        return tree["vertices"][2]

    for name, change in (
            ("bool", setter(row, 0, True)),
            ("string", setter(row, 1, "1")),
            ("null", setter(row, 2, None)),
            ("huge-int", setter(row, 2, 10 ** 400)),
            ("overflow", setter(row, 0, float("inf"))),
            ("short", setter(lambda t: t["vertices"], 2, [0.0, 0.0])),
            ("long", setter(lambda t: t["vertices"], 2, [0.0] * 4)),
            ("not-an-array", setter(lambda t: t["vertices"], 2, 5))):
        mutant(f"vertex-{name}", cube_tree(), change, "BAD_GEOMETRY_SHAPE",
               "vertices/2")
    mutant("template-vertex-short", corpus_tree("22-two-instances"),
           setter(lambda t: t["geometry-templates"]["vertices-templates"], 1,
                  [0.0, 0.0]),
           "BAD_GEOMETRY_SHAPE", "geometry-templates/vertices-templates/1")
    mutant("template-boundaries-too-shallow", corpus_tree("22-two-instances"),
           setter(lambda t: t["geometry-templates"]["templates"][0],
                  "boundaries", [0]),
           "BAD_GEOMETRY_SHAPE", "geometry-templates/templates/0/boundaries/0")

    # The template bank's members: arrays.
    def bank(tree):
        return tree["geometry-templates"]

    for member, name, value in (("templates", "int", 5),
                                ("templates", "string", "x"),
                                ("templates", "object", {}),
                                ("vertices-templates", "int", 5)):
        mutant(f"{member}-{name}", corpus_tree("22-two-instances"),
               setter(bank, member, value), "WRONG_MEMBER_TYPE",
               f"geometry-templates/{member}")
    return out


# -- consistency mutants ---------------------------------------------------


def three_cubes():
    """Three one-cube buildings on one pool of 24 rows; the middle one,
    b-2, carries semantics."""
    tree = cube_tree()
    for k in (1, 2):
        tree["vertices"] += cube_vertices(20.0 * k)
        tree["CityObjects"][f"b-{k + 1}"] = {
            "type": "Building",
            "geometry": [{"type": "Solid", "lod": 2,
                          "boundaries": [shifted_shell(8 * k)]}]}
    tree["CityObjects"]["b-2"]["geometry"][0]["semantics"] = \
        copy.deepcopy(CUBE_SEMANTICS)
    return tree


def consistency_mutants():
    """Documents, by name, whose shapes are sound or nearly so but whose
    pieces disagree: indices outside the pool (also in a geometry of no
    known kind) or of the wrong type, rows
    no geometry uses or used twice, semantic values that do not mirror
    the boundaries, a template that does not exist and a one-way family
    link.  Built in memory with ``record_model``, they reach the
    validator's consistency layer and the ops."""
    out = {}

    def mutant(name, tree, change):
        change(tree)
        out[name] = tree

    def middle_ring(tree):
        return tree["CityObjects"]["b-2"]["geometry"][0]["boundaries"][0][2][0]

    def values(tree):
        return tree["CityObjects"]["b-2"]["geometry"][0]["semantics"][
            "values"][0]

    mutant("index-past-pool", three_cubes(),
           lambda t: middle_ring(t).__setitem__(1, 24))
    mutant("index-negative", three_cubes(),
           lambda t: middle_ring(t).__setitem__(1, -1))
    mutant("index-past-pool-unknown-kind", three_cubes(),
           lambda t: (middle_ring(t).__setitem__(1, 24),
                      t["CityObjects"]["b-2"]["geometry"][0]
                      .__setitem__("type", "Hypercube")))
    mutant("index-true", three_cubes(),
           lambda t: middle_ring(t).__setitem__(1, True))
    mutant("orphan-row", three_cubes(),
           lambda t: t["vertices"].append([99.0, 99.0, 99.0]))
    mutant("duplicate-row", three_cubes(),
           lambda t: t["vertices"].__setitem__(9, list(t["vertices"][8])))
    mutant("semantics-too-short", three_cubes(), lambda t: values(t).pop())
    mutant("semantics-too-deep", three_cubes(),
           lambda t: values(t).__setitem__(1, [1]))
    mutant("semantics-out-of-range", three_cubes(),
           lambda t: values(t).__setitem__(5, 3))
    mutant("semantics-true", three_cubes(),
           lambda t: values(t).__setitem__(2, True))
    mutant("template-out-of-range", corpus_tree("22-two-instances"),
           lambda t: t["CityObjects"]["lamp-row"]["geometry"][0]
           .__setitem__("template", 5))
    mutant("parent-one-way", corpus_tree("02-building-with-parts"),
           lambda t: t["CityObjects"]["id-1"]["children"].remove("id-3"))
    return out
