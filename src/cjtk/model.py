"""In-memory city model.

The model mirrors the JSON encoding closely: city objects live in a flat
dict keyed by identifier, geometries reference rows of one shared vertex
pool through nested integer arrays, and an optional transform maps those
integer rows back to real-world coordinates.  Keeping the shapes identical
to the wire format makes reading and writing cheap and keeps every
operation honest about what actually gets stored.

The shape tests that codec, validator and ops share are written here once
(``is_finite_number``, ``is_scale``, ``is_matrix``, ``is_extent``,
``Transform.checked`` and ``CityModel.placed_template``), so those
modules cannot disagree.  The rules a document's shape must keep
(``codec.shape_problems``) live beside the reader that raises them, so
a program that builds models without reading CityJSON (the CityGML
importer) never compiles them.

Boundaries are read one way: ``flatten`` reads them a list level at a
time, to the depth their kind says; ``walk`` gives each node's position,
to name a bad one; ``map_leaves`` copies them.  ``boundary_indices`` (a
depth group at once) and ``indices_of`` (one geometry, by ``walk`` where
``flatten`` fails) read vertex indices over the first two.

Models are treated as values: operations elsewhere in the package return
new models and never alter their argument.  Every result shares the parts
it did not change (objects, geometries, vertex rows, metadata) with its
arguments, so a caller that wants to mutate a result in place should
``copy.deepcopy`` it first.  The model types are plain slotted classes on
``Record``; ``replace`` copies one with some members changed.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from itertools import chain

from .errors import CjtkError

VERSION = "1.0"

# Object types of the data model, split by level.  First-level objects may
# appear on their own; second-level objects only make sense as children of
# the listed first-level type.
FIRST_LEVEL_TYPES = {
    "Bridge",
    "Building",
    "CityFurniture",
    "CityObjectGroup",
    "GenericCityObject",
    "LandUse",
    "PlantCover",
    "Railway",
    "Road",
    "SolitaryVegetationObject",
    "TINRelief",
    "TransportSquare",
    "Tunnel",
    "WaterBody",
}

SECOND_LEVEL_TYPES = {
    "BridgeConstructionElement": "Bridge",
    "BridgeInstallation": "Bridge",
    "BridgePart": "Bridge",
    "BuildingInstallation": "Building",
    "BuildingPart": "Building",
    "TunnelInstallation": "Tunnel",
    "TunnelPart": "Tunnel",
}

COBJECT_TYPES = FIRST_LEVEL_TYPES | set(SECOND_LEVEL_TYPES)

# Nesting depth of the boundaries array per geometry kind, counting list
# levels above the integer vertex references.
GEOMETRY_DEPTH = {
    "MultiPoint": 1,
    "MultiLineString": 2,
    "MultiSurface": 3,
    "CompositeSurface": 3,
    "Solid": 4,
    "MultiSolid": 5,
    "CompositeSolid": 5,
}

SEMANTIC_SURFACE_TYPES = {
    "RoofSurface",
    "GroundSurface",
    "WallSurface",
    "ClosureSurface",
    "OuterCeilingSurface",
    "OuterFloorSurface",
    "Window",
    "Door",
    "WaterSurface",
    "WaterGroundSurface",
    "WaterClosureSurface",
    "TrafficArea",
    "AuxiliaryTrafficArea",
}


def is_finite_number(x) -> bool:
    """An int or float, not a bool, that is finite as a double (so an int
    beyond a double's range is not)."""
    if type(x) is float:  # the common case, first
        return math.isfinite(x)
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def is_scale(s) -> bool:
    """A transform scale: three positive finite numbers."""
    return isinstance(s, (list, tuple)) and len(s) == 3 \
        and all(is_finite_number(x) and x > 0 for x in s)


def is_matrix(m) -> bool:
    """A transformation matrix: 16 finite numbers, row-major."""
    return isinstance(m, list) and len(m) == 16 \
        and all(map(is_finite_number, m))


def is_extent(e) -> bool:
    """[minx, miny, minz, maxx, maxy, maxz]: six finite numbers with
    min <= max per axis."""
    return isinstance(e, list) and len(e) == 6 \
        and all(map(is_finite_number, e)) \
        and all(e[i] <= e[i + 3] for i in range(3))


def boundary_depth(kind: str) -> int:
    """Required boundaries nesting depth for a geometry kind."""
    try:
        return GEOMETRY_DEPTH[kind]
    except KeyError:
        raise CjtkError("UNKNOWN_GEOMETRY_KIND",
                        f"{kind!r} is not a geometry kind") from None


class Record:
    """Base of the model's record types: plain classes whose members are
    their ``__slots__``, in ``__init__``'s parameter order.

    Two records are equal when they are of one class and their members are
    equal; the repr lists every member.  Records are mutable, so they are
    not hashable.  ``replace`` copies one with some members changed.
    """

    __slots__ = ()
    __hash__ = None

    def _members(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._members() == other._members()

    def __repr__(self) -> str:
        members = ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__)
        return f"{type(self).__qualname__}({members})"


def replace(record: Record, **changes) -> Record:
    """Copy of ``record`` with ``changes`` applied; every other member is
    shared with it.  A name that is not a member is a TypeError."""
    unknown = changes.keys() - set(record.__slots__)
    if unknown:
        raise TypeError(f"{type(record).__qualname__} has no member "
                        f"{min(unknown)!r}")
    return type(record)(**{name: changes.get(name, getattr(record, name))
                           for name in record.__slots__})


class Transform(Record):
    """Quantization parameters: real = stored * scale + translate."""

    __slots__ = ("scale", "translate")

    def __init__(self, scale: list[float], translate: list[float]):
        self.scale = scale
        self.translate = translate

    def apply(self, vertex) -> tuple[float, float, float]:
        return (
            vertex[0] * self.scale[0] + self.translate[0],
            vertex[1] * self.scale[1] + self.translate[1],
            vertex[2] * self.scale[2] + self.translate[2],
        )

    def checked(self) -> "Transform":
        """This transform; BAD_TRANSFORM unless its scale ``is_scale``
        (a zero scale would collapse every coordinate onto the
        translate)."""
        if not is_scale(self.scale):
            raise CjtkError("BAD_TRANSFORM",
                            f"scale {self.scale!r} is not three positive "
                            "finite numbers", "transform/scale")
        return self

    def to_json(self) -> dict:
        return {"scale": list(self.scale), "translate": list(self.translate)}

    @classmethod
    def from_json(cls, obj: dict) -> "Transform":
        return cls(scale=list(obj["scale"]), translate=list(obj["translate"]))


class Semantics(Record):
    """Semantic surface annotations for one geometry.

    ``surfaces`` holds one dict per distinct surface (``type`` plus any
    attributes); ``values`` mirrors the boundaries array with the ring and
    index levels cut off and stores per-surface indices into ``surfaces``
    (or None for a surface with no semantics).
    """

    __slots__ = ("surfaces", "values", "extra")

    def __init__(self, surfaces: list[dict], values: list,
                 extra: dict | None = None):
        self.surfaces = surfaces
        self.values = values
        self.extra = {} if extra is None else extra

    def to_json(self) -> dict:
        out = {"surfaces": self.surfaces, "values": self.values}
        out.update(self.extra)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Semantics":
        return cls(surfaces=obj.get("surfaces"), values=obj.get("values"),
                   extra={k: v for k, v in obj.items()
                          if k not in ("surfaces", "values")})


class Geometry(Record):
    """One geometry of a city object.

    For ordinary geometries ``boundaries`` is the nested index array whose
    depth matches GEOMETRY_DEPTH[type].  For a GeometryInstance it is a
    single-element list holding the reference-point vertex, and ``template``
    plus ``transformation_matrix`` (16 numbers, row-major) say which template
    to place and how.  ``material`` and ``texture`` are carried opaquely.
    """

    __slots__ = ("type", "lod", "boundaries", "semantics", "material",
                 "texture", "template", "transformation_matrix", "extra")

    _KNOWN = frozenset({"type", "lod", "boundaries", "semantics", "material",
                        "texture"})
    # An instance's members: it takes its surfaces from its template.
    _INSTANCE_KNOWN = frozenset({"type", "lod", "boundaries", "template",
                                 "transformationMatrix"})

    def __init__(self, type: str, lod: float | int | None = None,
                 boundaries: list | None = None,
                 semantics: Semantics | None = None,
                 material: dict | None = None, texture: dict | None = None,
                 template: int | None = None,
                 transformation_matrix: list[float] | None = None,
                 extra: dict | None = None):
        self.type = type
        self.lod = lod
        self.boundaries = [] if boundaries is None else boundaries
        self.semantics = semantics
        self.material = material
        self.texture = texture
        self.template = template
        self.transformation_matrix = transformation_matrix
        self.extra = {} if extra is None else extra

    def is_instance(self) -> bool:
        return self.type == "GeometryInstance"

    def remapped(self, fn: Callable[[int], int]) -> "Geometry":
        """Copy with fn applied to every boundary index; the rest is shared."""
        return replace(self, boundaries=map_boundaries(self.boundaries, fn))

    def to_json(self) -> dict:
        out: dict[str, object] = {"type": self.type}
        if self.lod is not None:
            out["lod"] = self.lod
        if self.is_instance():
            out["template"] = self.template
            out["boundaries"] = self.boundaries
            out["transformationMatrix"] = self.transformation_matrix
            out.update(self.extra)
            return out
        out["boundaries"] = self.boundaries
        if self.semantics is not None:
            out["semantics"] = self.semantics.to_json()
        if self.material is not None:
            out["material"] = self.material
        if self.texture is not None:
            out["texture"] = self.texture
        out.update(self.extra)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Geometry":
        g = cls(type=obj["type"], lod=obj.get("lod"),
                boundaries=obj.get("boundaries", []))
        known = cls._KNOWN
        if g.is_instance():
            # Semantics and appearance on an instance, like a template and
            # matrix on any other geometry, are not CityJSON 1.0 members:
            # they stay in ``extra``, written back as read.
            known = cls._INSTANCE_KNOWN
            g.template = obj.get("template")
            g.transformation_matrix = obj.get("transformationMatrix")
        else:
            # Semantics that are not an object stay as written, for
            # ``codec.shape_problems`` to refuse.
            g.semantics = obj.get("semantics")
            if isinstance(g.semantics, dict):
                g.semantics = Semantics.from_json(g.semantics)
            g.material = obj.get("material")
            g.texture = obj.get("texture")
        g.extra = {k: v for k, v in obj.items() if k not in known}
        return g


class TemplateBank(Record):
    """Shared geometry templates and their own (real-valued) vertex pool."""

    __slots__ = ("templates", "vertices")

    def __init__(self, templates: list[Geometry] | None = None,
                 vertices: list | None = None):
        self.templates = [] if templates is None else templates
        self.vertices = [] if vertices is None else vertices

    def to_json(self) -> dict:
        return {
            "templates": [g.to_json() for g in self.templates],
            "vertices-templates": self.vertices,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TemplateBank":
        templates = obj.get("templates", [])
        return cls(
            templates=[Geometry.from_json(g) for g in templates]
            if isinstance(templates, list) else templates,  # a shape problem
            vertices=obj.get("vertices-templates", []),
        )


class CityObject(Record):
    """One city object: type, attributes, geometries, family links."""

    __slots__ = ("type", "attributes", "geometry", "parents", "children",
                 "extent", "extra")

    def __init__(self, type: str, attributes: dict | None = None,
                 geometry: list[Geometry] | None = None,
                 parents: list[str] | None = None,
                 children: list[str] | None = None,
                 extent: list[float] | None = None,
                 extra: dict | None = None):
        self.type = type
        self.attributes = {} if attributes is None else attributes
        self.geometry = [] if geometry is None else geometry
        self.parents = [] if parents is None else parents
        self.children = [] if children is None else children
        self.extent = extent
        # Members we do not model (e.g. address) survive round-trips here.
        self.extra = {} if extra is None else extra

    def to_json(self) -> dict:
        out: dict[str, object] = {"type": self.type}
        if self.attributes:
            out["attributes"] = self.attributes
        if self.extent is not None:
            out["geographicalExtent"] = self.extent
        if self.children:
            out["children"] = self.children
        if self.parents:
            out["parents"] = self.parents
        out["geometry"] = [g.to_json() for g in self.geometry]
        out.update(self.extra)
        return out

    def linked_within(self, keep, **changes) -> "CityObject":
        """Copy whose parents, children and group members all lie in keep.

        Other members are shared with this object unless ``changes``
        replaces them.
        """
        extra = self.extra
        if "members" in extra:
            extra = {**extra,
                     "members": [m for m in extra["members"] if m in keep]}
        return replace(self, parents=[p for p in self.parents if p in keep],
                       children=[c for c in self.children if c in keep],
                       extra=extra, **changes)

    @classmethod
    def from_json(cls, obj: dict) -> "CityObject":
        known = {"type", "attributes", "geographicalExtent", "children",
                 "parents", "geometry"}
        co = cls(
            type=obj["type"],
            attributes=dict(obj.get("attributes") or {}),
            geometry=[Geometry.from_json(g) for g in obj.get("geometry") or []],
            extent=obj.get("geographicalExtent"),
            extra={k: v for k, v in obj.items() if k not in known},
        )
        # The links as written, null included, for ``codec.shape_problems``.
        co.parents = obj.get("parents", [])
        co.children = obj.get("children", [])
        return co


class CityModel(Record):
    """A complete city model, the in-memory twin of one JSON document."""

    __slots__ = ("city_objects", "vertices", "transform", "templates",
                 "appearance", "metadata", "extensions", "version", "extra")

    def __init__(self, city_objects: dict[str, CityObject] | None = None,
                 vertices: list | None = None,
                 transform: Transform | None = None,
                 templates: TemplateBank | None = None,
                 appearance: dict | None = None,
                 metadata: dict | None = None,
                 extensions: dict | None = None, version: str = VERSION,
                 extra: dict | None = None):
        self.city_objects = {} if city_objects is None else city_objects
        self.vertices = [] if vertices is None else vertices
        self.transform = transform
        self.templates = templates
        self.appearance = appearance
        self.metadata = {} if metadata is None else metadata
        self.extensions = {} if extensions is None else extensions
        self.version = version
        self.extra = {} if extra is None else extra

    # -- vertex access -------------------------------------------------

    def check_transform(self) -> None:
        """BAD_TRANSFORM where the transform's scale is not ``is_scale``.

        An operation that decodes vertices calls this once, before its
        first ``real_vertex``, which does not check the scale itself.
        """
        if self.transform is not None:
            self.transform.checked()

    def real_vertex(self, i: int) -> tuple[float, float, float]:
        """Vertex i in real-world coordinates (transform applied if set)."""
        if type(i) is not int or not 0 <= i < len(self.vertices):
            raise CjtkError("VERTEX_INDEX_OUT_OF_RANGE",
                            f"index {i!r} outside pool of {len(self.vertices)}")
        v = self.vertices[i]
        if self.transform is not None:
            return self.transform.apply(v)
        return (v[0], v[1], v[2])

    def real_vertices(self) -> list[tuple[float, float, float]]:
        self.check_transform()
        return [self.real_vertex(i) for i in range(len(self.vertices))]

    def placed_template(self, geom: Geometry) -> Geometry | None:
        """The template an instance places, or None where it names none."""
        t = geom.template
        if self.templates is not None and type(t) is int \
                and 0 <= t < len(self.templates.templates):
            return self.templates.templates[t]
        return None

    # -- traversal -----------------------------------------------------

    def iter_geometries(self) -> Iterator[tuple[str, int, Geometry]]:
        """(object id, geometry index, geometry) over the whole model."""
        for oid, obj in self.city_objects.items():
            for gi, g in enumerate(obj.geometry):
                yield oid, gi, g

    def first_level_ids(self) -> list[str]:
        return [oid for oid, co in self.city_objects.items()
                if co.type in FIRST_LEVEL_TYPES]


# -- boundary array helpers ---------------------------------------------


def flatten(nodes: list, levels: int) -> list | None:
    """What lies ``levels`` list levels below ``nodes``, in order, each
    level checked whole; None where a node above is not a plain list."""
    for _ in range(levels):
        if not set(map(type, nodes)) <= {list}:
            return None
        nodes = list(chain.from_iterable(nodes))
    return nodes


def depth_of(geom: Geometry) -> int | None:
    """List levels over a geometry's vertex indices: 1 for an instance,
    ``GEOMETRY_DEPTH[kind]`` otherwise, None for a type that is no kind."""
    return 1 if geom.is_instance() else GEOMETRY_DEPTH.get(geom.type) \
        if isinstance(geom.type, str) else None


def boundary_indices(geometries, size: int | None = None) -> list | None:
    """Every vertex index of the geometries, each depth group through one
    ``flatten``; None where one does not nest ``depth_of`` it deep over
    integers (in 0..size-1, given ``size``), for the caller to walk."""
    groups: dict = {}
    for geom in geometries:
        groups.setdefault(depth_of(geom), []).append(geom.boundaries)
    out: list = []
    for depth, group in groups.items():
        leaves = None if depth is None else flatten(group, depth)
        if leaves is None or not _all_ints(leaves):
            return None
        out += leaves
    fits = size is None or not out or min(out) >= 0 and max(out) < size
    return out if fits else None


def indices_of(geom: Geometry) -> list:
    """Every item of a geometry's boundaries that is not a list, in
    document order: through one ``flatten`` where they nest ``depth_of``
    it deep over integers, by ``walk`` otherwise (an unknown kind, broken
    nesting or a leaf that is not an integer, kept for the caller to
    name)."""
    depth = depth_of(geom)
    leaves = None if depth is None else flatten([geom.boundaries], depth)
    if leaves is not None and _all_ints(leaves):
        return leaves
    return [node for _, node, _ in walk(geom.boundaries, math.inf)
            if not isinstance(node, list)]


def map_boundaries(boundaries, fn: Callable[[int], int]):
    """Same-shaped boundaries array with fn applied to every index."""
    return map_leaves(boundaries, fn, lambda x: not isinstance(x, list))


def map_leaves(node, fn: Callable, is_leaf: Callable):
    """Copy of the nested lists ``node`` with ``fn`` applied to each item
    ``is_leaf`` accepts, ``node`` itself included; every other item is a
    list, copied the same way.  The walk keeps its own stack, so no depth
    of nesting runs into the recursion limit."""
    if is_leaf(node):
        return fn(node)
    root: list = []
    stack = [(iter(node), root)]
    while stack:
        items, built = stack[-1]
        for x in items:
            if is_leaf(x):
                built.append(fn(x))
            else:
                built.append([])
                stack.append((iter(x), built[-1]))
                break
        else:
            stack.pop()
    return root


def walk(node, depth: int) -> Iterator[tuple[tuple, object, int]]:
    """(position, node, levels left) of ``node`` and of every node down to
    ``depth`` list levels below it, in document order; a position is the
    tuple of indices leading to its node."""
    stack = [((), node, depth)]
    while stack:
        at, node, left = stack.pop()
        yield at, node, left
        if left and isinstance(node, list):
            stack += [(at + (i,), x, left - 1)
                      for i, x in enumerate(node)][::-1]


def _all_ints(level) -> bool:
    return set(map(type, level)) <= {int}
