"""Shared builders for test models.

Everything here produces plain JSON trees (dicts) or parses them through
the public codec, so the tests exercise the same entry points users do.
"""

import copy
import json

from cjtk import codec, synth

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
    corpus = {path.name.split(".")[0]: path for path in committed_corpus()}

    def load(name):
        return json.loads(corpus[name].read_text(encoding="utf-8"))

    def first_geometry_with(tree, member):
        return next(g for co in tree["CityObjects"].values()
                    for g in co["geometry"] if member in g)

    out = {}
    for name in ("attribute", "member"):
        tree = load("02-building-with-parts")
        co = next(iter(tree["CityObjects"].values()))
        if name == "attribute":
            co.setdefault("attributes", {})["deep"] = deep_list(depth)
        else:
            co["+deep"] = deep_list(depth)
        out[name] = tree
    for name, corpus_name in (("material", "16-appearance-materials"),
                              ("texture", "15-appearance-textures")):
        tree = load(corpus_name)
        themes = first_geometry_with(tree, name)[name]
        next(iter(themes.values()))["values"] = deep_list(depth)
        out[name] = tree
    return out
