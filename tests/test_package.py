"""The package surface: lazily resolved names, and what the CLI imports."""

import json
import subprocess
import sys

import pytest

import cjtk
from gmlvariants import SQUARE_VARIANTS
from helpers import as_text, cube_tree


def test_every_public_name_resolves():
    for name in cjtk.__all__:
        assert getattr(cjtk, name) is not None, name
    assert set(cjtk.__all__) <= set(dir(cjtk))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cjtk import *", namespace)
    assert set(cjtk.__all__) <= set(namespace)
    assert namespace["merge"] is cjtk.ops.merge


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cjtk.no_such_name


def test_the_extension_layer_is_one_function_under_every_name():
    from cjtk import extensions, validation
    assert extensions.validate_extended is validation.validate_extended
    assert cjtk.validate_extended is validation.validate_extended


def test_cli_import_loads_only_what_its_stages_need():
    probe = ("import sys, cjtk.cli; print(' '.join(m for m in "
             "('cjtk.gml', 'cjtk.validation', 'xml.etree.ElementTree') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


_MODULES_AT_EXIT = (
    "import atexit, json, sys; atexit.register(lambda: print(json.dumps("
    "sorted(sys.modules)))); from cjtk.cli import main; main()")


def _modules_loaded_by(*argv, code=0):
    """The modules a CLI run of ``argv``, which exits with ``code``, has
    loaded when it exits."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_AT_EXIT, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _third_party(modules):
    """The top-level packages among ``modules`` that are neither cjtk nor
    in the standard library, nor loaded by the interpreter's start-up."""
    startup = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, check=True).stdout.split()
    return {m.partition(".")[0] for m in modules} - {"cjtk"} \
        - set(sys.stdlib_module_names) - set(startup)


# What ``dataclasses`` would load, at a start-up cost every CLI process
# would pay; the model types are plain classes instead.
_INTROSPECTION = {"dataclasses", "inspect", "ast"}


def test_a_pipeline_loads_no_introspection_modules(tmp_path):
    doc = tmp_path / "cube.city.json"
    doc.write_text(as_text(cube_tree()), encoding="utf-8")
    gml = tmp_path / "square.gml"
    gml.write_text(SQUARE_VARIANTS["poslist-one-line"](), encoding="utf-8")
    out = str(tmp_path / "out.json")
    for argv in ([str(doc), "validate", "--json"],
                 [str(gml), "import", "compress", "save", out],
                 [str(doc), "validate", "compress", "--digits", "3",
                  "dedupe", "subset", "--bbox", "-1", "-1", "11", "11",
                  "metadata", "save", out]):
        assert not _modules_loaded_by(*argv) & _INTROSPECTION, argv


def test_a_pipeline_loads_only_the_modules_of_its_stages(tmp_path):
    doc = tmp_path / "cube.city.json"
    doc.write_text(as_text(cube_tree()), encoding="utf-8")
    gml = tmp_path / "square.gml"
    gml.write_text(SQUARE_VARIANTS["poslist-one-line"](), encoding="utf-8")

    loaded = _modules_loaded_by(str(doc), "validate", "--json")
    assert "cjtk.validation" in loaded
    assert not loaded & {"cjtk.ops", "cjtk.geomops", "cjtk.gml",
                         "cjtk.extensions", "textwrap", "argparse", "gettext",
                         "locale"}
    assert _third_party(loaded) == set()

    duplicate = tmp_path / "duplicate.city.json"
    duplicate.write_text(as_text(cube_tree())[:-1] + ', "version": "1.0"}',
                         encoding="utf-8")
    loaded = _modules_loaded_by(str(duplicate), "validate", "--json", code=2)
    assert "textwrap" not in loaded

    loaded = _modules_loaded_by(str(gml), "import", "compress", "save",
                                str(tmp_path / "out.json"))
    assert {"cjtk.gml", "cjtk.geomops", "cjtk.codec"} <= loaded
    assert not loaded & {"cjtk.validation", "cjtk.ops", "textwrap"}
    assert _third_party(loaded) == set()

    loaded = _modules_loaded_by("--help")
    assert {m for m in loaded if m.startswith("cjtk")} == {"cjtk", "cjtk.cli"}
    assert "textwrap" in loaded
    assert _third_party(loaded) == set()

    # Under ``python -m cjtk.cli`` the CLI runs as ``__main__``, so a module
    # it loads lazily that imported ``cjtk.cli`` would compile it again.
    for argv in (["--help"], [str(doc), "subset", "--help"],
                 [str(doc), "validate", "--json"],
                 [str(doc), "info", "partition", "--by-type", "--out-dir",
                  str(tmp_path)]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cjtk.cli", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "cjtk" in imported, argv
        assert "cjtk.cli" not in imported, argv
