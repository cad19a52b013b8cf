"""The writer of the JSON text encoding, loaded on first use of the names
that ``cjtk.codec`` resolves from here.

Members come in one canonical order, so output is stable across runs:
type, version, metadata, extensions, transform, CityObjects, vertices,
appearance, geometry-templates, then any retained unknown members.
Minified mode uses no whitespace; integers print without a decimal point
and reals with their shortest round-trip form.  A NaN or infinity, which
the reader refuses, is a ``SYNTAX_ERROR`` here too; its error comes
from ``errors``, so the writer loads no reader (``import … save`` never
compiles ``codec``).

``dumps`` and ``dump`` share one piece generator, and ``dump`` writes each
piece as it comes, so a write holds one batch of city objects or vertex
rows in text form at a time (about 150 KB of Python objects for a 3.3 MB
document, against 8 times the document for one ``json.dumps`` call); the
bytes are those of ``json.dumps(model_to_json(model), ...)``.  A path is
written through a temporary sibling, so a failed write leaves no file;
``dump_all`` writes several models all or none.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import islice

from .errors import _not_a_number
from .model import CityModel

# City objects, and vertex rows, encoded at once in minified output.  The
# stdlib encoder briefly holds about 8 times the text it makes, so a batch
# of 16 objects or 512 rows (under 20 KB of text) peaks near 150 KB; larger
# batches were no faster on a 3.3 MB document.
_OBJECT_BATCH = 16
_VERTEX_BATCH = 512

_MINIFIED = json.JSONEncoder(ensure_ascii=False, allow_nan=False,
                             separators=(",", ":"))
_PRETTY = json.JSONEncoder(ensure_ascii=False, allow_nan=False, indent=2)
_STREAMED = object()  # the CityObjects value that ``_pieces`` encodes


def _root(model: CityModel, city_objects) -> dict:
    """The members of ``model`` in canonical order, with ``city_objects``
    as the CityObjects value."""
    out: dict[str, object] = {"type": "CityJSON", "version": model.version}
    if model.metadata:
        out["metadata"] = model.metadata
    if model.extensions:
        out["extensions"] = model.extensions
    if model.transform is not None:
        out["transform"] = model.transform.to_json()
    out["CityObjects"] = city_objects
    out["vertices"] = model.vertices
    if model.appearance is not None:
        out["appearance"] = model.appearance
    if model.templates is not None:
        out["geometry-templates"] = model.templates.to_json()
    out.update(model.extra)
    return out


def model_to_json(model: CityModel) -> dict:
    """Canonically ordered plain-dict form of a model."""
    return _root(model, {oid: co.to_json()
                         for oid, co in model.city_objects.items()})


def _pieces(model: CityModel, pretty: bool):
    """The text of ``model``, in pieces whose concatenation is
    ``json.dumps(model_to_json(model), ...)`` with the writer's layout.

    Minified, each member is encoded on its own, the city objects
    ``_OBJECT_BATCH`` at a time (each object's plain-dict form is built
    only for its batch) and the vertex pool ``_VERTEX_BATCH`` rows at a
    time, so no piece holds more than one batch.  Pretty, the pieces are
    the encoder's own chunks.
    """
    try:
        if pretty:
            yield from _PRETTY.iterencode(model_to_json(model))
            return
        yield "{"
        for i, (key, value) in enumerate(
                _root(model, _STREAMED).items()):
            if i:
                yield ","
            if value is _STREAMED:
                yield '"CityObjects":{'
                objects = iter(model.city_objects.items())
                batch = list(islice(objects, _OBJECT_BATCH))
                while batch:
                    yield _MINIFIED.encode(
                        {oid: co.to_json() for oid, co in batch})[1:-1]
                    batch = list(islice(objects, _OBJECT_BATCH))
                    if batch:
                        yield ","
                yield "}"
            elif key == "vertices" and value is model.vertices \
                    and type(value) is list:
                yield '"vertices":['
                for start in range(0, len(value), _VERTEX_BATCH):
                    if start:
                        yield ","
                    yield _MINIFIED.encode(
                        value[start:start + _VERTEX_BATCH])[1:-1]
                yield "]"
            else:
                yield _MINIFIED.encode({key: value})[1:-1]
        yield "}"
    except ValueError:
        raise _not_a_number("a NaN or infinite value") from None


def dumps(model: CityModel, pretty: bool = False) -> str:
    return "".join(_pieces(model, pretty))


def dump(model: CityModel, target, pretty: bool = False) -> None:
    """Write to an open text file, or to a path, piece by piece.

    A path is written through a temporary sibling that replaces it only
    once the whole text is written, so a write that fails leaves no file
    behind and an existing file as it was; the replacement keeps the
    existing file's permission bits.  A path that names something other
    than a regular file (``/dev/stdout``, a named pipe) is written in
    place.
    """
    pieces = _pieces(model, pretty)
    if hasattr(target, "write"):
        for piece in pieces:
            target.write(piece)
        return
    path = os.fspath(target)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fp:
            fp.writelines(pieces)
        return
    path = os.path.realpath(path)  # a symbolic link keeps its target
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fp = open(temporary, "w", encoding="utf-8")
    except OSError as exc:  # name the file asked for, not the temporary
        raise type(exc)(exc.errno, exc.strerror, os.fspath(target)) from None
    try:
        with fp:
            fp.writelines(pieces)
        if os.path.exists(path):
            os.chmod(temporary, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def dump_all(models, paths: list) -> None:
    """``dump`` each model to the path beside it, all or none: a write that
    fails removes the files at the paths that did not exist before the
    call, then raises."""
    made = [path for path in paths if not os.path.lexists(path)]
    try:
        for model, path in zip(models, paths):
            dump(model, path)
    except BaseException:
        for path in filter(os.path.lexists, made):
            os.remove(path)
        raise
