"""Toolkit for the CityJSON 1.0 encoding of the CityGML 2.0 data model.

Read and write models (:mod:`cjtk.codec`), validate them in layers
(:mod:`cjtk.validation`), quantize and manipulate coordinates
(:mod:`cjtk.geomops`), subset/merge/partition datasets (:mod:`cjtk.ops`),
handle Extension files (:mod:`cjtk.extensions`), import scoped CityGML 2.0
(:mod:`cjtk.gml`), and generate synthetic scenes (:mod:`cjtk.synth`).
The ``cjtk`` command chains all of it on the command line.

The public names below are resolved lazily (PEP 562): ``cjtk.merge`` or
``from cjtk import merge`` imports :mod:`cjtk.ops` on first use, so a
program, such as the ``cjtk`` command, loads only the modules it uses.
Each access returns the submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": ["CityModel", "CityObject", "Geometry", "Semantics",
              "Transform", "boundary_depth"],
    "codec": ["parse", "loads", "load", "dumps", "dump"],
    "validation": ["validate", "validate_text", "validate_structure",
                   "validate_consistency", "validate_extended", "is_valid"],
    "geomops": ["quantize", "dequantize", "dedupe_vertices",
                "remove_orphan_vertices", "instantiate_template",
                "compute_extent"],
    "ops": ["subset", "merge", "partition_grid", "partition_by_type",
            "partition_random", "update_texture_paths", "refresh_metadata",
            "stats"],
    "extensions": ["Extension", "load_extension", "strip_extensions"],
    "gml": ["import_citygml", "ImportReport"],
    "errors": ["CjtkError", "CodecError", "ExtensionError", "GmlImportError",
               "Finding", "ERROR", "WARNING"],
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names] \
    + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
