"""The package surface: lazily resolved names, and what the CLI imports."""

import subprocess
import sys

import pytest

import cjtk


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


def test_cli_import_loads_only_what_its_stages_need():
    probe = ("import sys, cjtk.cli; print(' '.join(m for m in "
             "('cjtk.gml', 'cjtk.validation', 'xml.etree.ElementTree') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""
