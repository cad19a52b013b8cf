"""Command-line pipeline, exercised through real subprocesses and in
process."""

import errno
import gc
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from cjtk import cli, codec, geomops, ops, synth
from cjtk.errors import CjtkError
from cjtk.model import Transform, replace

import cli_cases
from conftest import NOISE_EXTENSION_PATH
from gmlvariants import SQUARE_VARIANTS
from helpers import (as_model, as_text, base_inputs, cube_tree,
                     deep_documents)
from test_codec import (hostile_inputs, hostile_models, reference_text,
                        writer_models)
from test_extensions import hostile_extension_files, noise_building_tree
from test_gml_import import hostile_documents
from test_ops import town_tree


def cli_env():
    """The environment without a default extension search path."""
    env = os.environ.copy()
    env.pop("CJTK_EXTENSIONS", None)
    return env


def run_cli(*args, stdin_text=None, stdin=None, cwd=None):
    return subprocess.run([sys.executable, "-m", "cjtk.cli", *args],
                          input=stdin_text, stdin=stdin, capture_output=True,
                          text=True, env=cli_env(), cwd=cwd)


@pytest.fixture()
def town_path(tmp_path):
    path = tmp_path / "town.city.json"
    path.write_text(as_text(town_tree()), encoding="utf-8")
    return path


def test_validate_clean_file_exits_zero(town_path):
    proc = run_cli(str(town_path), "validate")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_validate_warnings_exit_one(tmp_path):
    tree = cube_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "warn.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() \
        == ["warning: [ORPHAN_VERTEX] vertices/8 — vertex is referenced "
            "by no geometry"]


def test_validate_errors_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(as_text(cube_tree(cotype="Skyscraper")), encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 2
    assert proc.stdout.startswith("error: [UNKNOWN_COTYPE]")


def test_validate_json_lines(tmp_path):
    tree = cube_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "warn.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "validate", "--json")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines == [{"code": "ORPHAN_VERTEX", "path": "vertices/8",
                      "message": "vertex is referenced by no geometry",
                      "severity": "warning", "stage": "consistency"}]


def test_syntax_error_reported_through_validate(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"type": "CityJSON"', encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert proc.returncode == 2
    assert "[SYNTAX_ERROR]" in proc.stdout


def test_chained_stages(town_path, tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(str(town_path), "compress", "--digits", "3",
                   "subset", "--bbox", "0", "0", "10", "10",
                   "save", str(out))
    assert proc.returncode == 0
    model = codec.load(out)
    assert set(model.city_objects) == {"sw"}
    assert model.transform is not None
    assert model.transform.scale == [0.001, 0.001, 0.001]


def test_stdin_and_stdout(town_path):
    text = town_path.read_text(encoding="utf-8")
    proc = run_cli("-", "subset", "--id", "ne", "save", "-",
                   stdin_text=text)
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert set(tree["CityObjects"]) == {"ne"}
    assert "\n" not in proc.stdout.strip()


def test_partition_writes_part_files(town_path, tmp_path):
    out_dir = tmp_path / "parts"
    proc = run_cli(str(town_path), "partition", "--grid", "2x2",
                   "--out-dir", str(out_dir))
    assert proc.returncode == 0
    echoed = [line for line in proc.stdout.splitlines()]
    want = [str(out_dir / f"town.city_{pid}.json")
            for pid in ("r0c0", "r0c1", "r1c0", "r1c1")]
    assert echoed == want
    for path in want:
        part = codec.load(path)
        assert len(part.city_objects) == 1


_FULL = pytest.mark.skipif(not sys.platform.startswith("linux")
                           or not os.path.exists("/dev/full"),
                           reason="no /dev/full on this platform")


@_FULL
def test_partition_writes_every_part_before_printing_a_path(town_path,
                                                            tmp_path):
    out_dir = tmp_path / "parts"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "cjtk.cli", str(town_path), "partition",
             "--grid", "2x2", "--out-dir", str(out_dir)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env())
    assert proc.returncode == 2, proc.stderr
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"town.city_{pid}.json" for pid in ("r0c0", "r0c1", "r1c0", "r1c1")]


@_FULL
def test_a_failed_partition_removes_the_part_files_it_made(town_path,
                                                           tmp_path):
    out_dir = tmp_path / "parts"
    out_dir.mkdir()
    (out_dir / "town.city_r0c1.json").write_text("old", encoding="utf-8")
    (out_dir / "town.city_r1c1.json").mkdir()  # the last part's path
    proc = run_cli(str(town_path), "partition", "--grid", "2x2",
                   "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert sorted(p.name for p in out_dir.iterdir()) \
        == ["town.city_r0c1.json", "town.city_r1c1.json"]


def test_partition_wants_exactly_one_strategy(town_path):
    proc = run_cli(str(town_path), "partition", "--grid", "2x2", "--by-type")
    assert proc.returncode == 3
    proc = run_cli(str(town_path), "partition")
    assert proc.returncode == 3


def test_import_stage(tmp_path):
    src = tmp_path / "square.gml"
    src.write_text(SQUARE_VARIANTS["poslist-one-line"](), encoding="utf-8")
    proc = run_cli(str(src), "import", "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert set(tree["CityObjects"]) == {"sq-1"}
    report_lines = [json.loads(line) for line in proc.stderr.splitlines()]
    assert report_lines[0]["record"] == "summary"
    assert report_lines[0]["features"] == {"Building": 1}


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"),
                    reason="needs /proc/self/mem, which opens but not reads")
@pytest.mark.parametrize("stages", [["validate", "--json"], ["info"],
                                    ["import", "save", "-"]])
def test_a_path_that_opens_but_fails_to_read_is_a_usage_error(stages):
    proc = run_cli("/proc/self/mem", *stages)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("usage error: cannot read /proc/self/mem: ")


@pytest.mark.parametrize("stages", [["validate", "--json"], ["info"],
                                    ["import", "save", "-"]])
def test_standard_input_that_fails_to_read_is_a_usage_error(
        stages, monkeypatch, capsys):
    class Failing(io.RawIOBase):
        def readable(self):
            return True

        def readinto(self, buffer):
            raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BufferedReader(Failing())))
    assert _cli_main(["-", *stages], monkeypatch, capsys) \
        == (3, "", "usage error: cannot read -: Input/output error\n")


def test_an_unreadable_citygml_path_is_a_usage_error(tmp_path):
    for path in (tmp_path / "missing.gml", tmp_path):
        proc = run_cli(str(path), "import", "save", "-")
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"usage error: cannot read {path}")


def _street_square(encoding: str, declared: str | None = None,
                   function: str = "Straße Schön") -> bytes:
    """The square document with a non-ASCII building ``function``, in
    ``encoding`` and declaring ``declared`` (default: ``encoding``)."""
    text = SQUARE_VARIANTS["poslist-one-line"]().replace(
        '<bldg:Building gml:id="sq-1">',
        '<bldg:Building gml:id="sq-1">'
        f'<bldg:function>{function}</bldg:function>')
    return text.replace('encoding="UTF-8"',
                        f'encoding="{declared or encoding}"').encode(encoding)


@pytest.mark.parametrize("encoding", ["ISO-8859-1", "UTF-16"])
def test_import_follows_the_xml_declaration(encoding, tmp_path):
    """CityGML that is not UTF-8 imports as its UTF-8 twin does."""
    runs = []
    for name in ("UTF-8", encoding):
        src = tmp_path / f"{name}.gml"
        src.write_bytes(_street_square(name))
        runs.append(run_cli(str(src), "import", "save", "-"))
    twin, proc = runs
    assert twin.returncode == 0, twin.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) \
        == (twin.returncode, twin.stdout, twin.stderr)
    assert json.loads(proc.stdout)["CityObjects"]["sq-1"]["attributes"] \
        == {"function": "Straße Schön"}


def test_a_character_beyond_the_bmp_round_trips_through_import(tmp_path):
    src = tmp_path / "house.gml"
    src.write_bytes(_street_square("UTF-8", function="🏠 Straße"))
    out = tmp_path / "house.json"
    proc = run_cli(str(src), "import", "save", str(out))
    assert proc.returncode == 0, proc.stderr
    assert codec.load(out).city_objects["sq-1"].attributes \
        == {"function": "🏠 Straße"}
    proc = run_cli(str(out), "save", "-")
    assert proc.stdout == out.read_text(encoding="utf-8") + "\n"


def test_utf8_citygml_reads_by_the_encoding_it_declares(tmp_path):
    """The import stage hands the XML parser the file's bytes, so a UTF-8
    file that declares ISO-8859-1 reads as ISO-8859-1."""
    src = tmp_path / "mislabelled.gml"
    src.write_bytes(_street_square("UTF-8", declared="ISO-8859-1"))
    proc = run_cli(str(src), "import", "save", "-")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["CityObjects"]["sq-1"]["attributes"] \
        == {"function": "Straße Schön".encode().decode("latin-1")}


def test_undecodable_citygml_is_an_xml_syntax_error(tmp_path):
    src = tmp_path / "latin.gml"
    src.write_bytes(_street_square("ISO-8859-1").replace(
        b' encoding="ISO-8859-1"', b""))
    proc = run_cli(str(src), "import", "save", "-")
    assert proc.returncode == 2
    assert "import: [XML_SYNTAX_ERROR] not well-formed XML" in proc.stderr


def test_extension_flag(tmp_path):
    path = tmp_path / "noise.city.json"
    path.write_text(as_text(noise_building_tree()), encoding="utf-8")
    with_schema = run_cli("--extension", str(NOISE_EXTENSION_PATH),
                          str(path), "validate")
    assert with_schema.returncode == 0
    without = run_cli(str(path), "validate")
    assert without.returncode == 2
    assert "[MISSING_EXTENSION_SCHEMA]" in without.stdout


def test_merge_stage(town_path, tmp_path):
    other = tmp_path / "other.json"
    other.write_text(as_text(town_tree()), encoding="utf-8")
    proc = run_cli(str(town_path), "merge", "--policy", "suffix",
                   str(other), "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert len(tree["CityObjects"]) == 8
    assert "sw-2" in tree["CityObjects"]


def test_merge_stages_chain(town_path, tmp_path):
    second = tmp_path / "second.json"
    third = tmp_path / "third.json"
    second.write_text(as_text(town_tree()), encoding="utf-8")
    third.write_text(as_text(town_tree()), encoding="utf-8")
    proc = run_cli(str(town_path),
                   "merge", "--policy", "suffix", str(second),
                   "merge", "--policy", "suffix", str(third),
                   "save", "-")
    assert proc.returncode == 0
    tree = json.loads(proc.stdout)
    assert len(tree["CityObjects"]) == 12
    assert {"sw", "sw-2", "sw-3"} <= set(tree["CityObjects"])


def test_info_stage(town_path):
    proc = run_cli(str(town_path), "info")
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["cityObjects"] == 4
    assert body["byGeometryKind"] == {"Solid": 4}


def test_metadata_and_cleanup_stages(tmp_path):
    tree = town_tree()
    tree["vertices"].append([99.0, 99.0, 99.0])
    path = tmp_path / "dirty.json"
    path.write_text(as_text(tree), encoding="utf-8")
    proc = run_cli(str(path), "clean", "dedupe", "metadata", "save", "-")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["vertices"]) == 32
    assert out["metadata"]["geographicalExtent"] == [0, 0, 0, 30, 30, 10]
    assert out["metadata"]["presentLoDs"] == {"2": 4}


def test_compress_decompress_pipeline(town_path):
    proc = run_cli(str(town_path), "compress", "--digits", "2",
                   "decompress", "save", "-")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert "transform" not in out
    assert out["vertices"][6] == [10, 10, 10]


def test_stage_failures_exit_two(town_path):
    proc = run_cli(str(town_path), "subset", "--id", "nobody")
    assert proc.returncode == 2
    assert "subset: [UNKNOWN_ID]" in proc.stderr


def test_usage_errors_exit_three(tmp_path, town_path):
    assert run_cli(str(tmp_path / "missing.json"), "validate") \
        .returncode == 3
    proc = run_cli(str(town_path), "compress", "--digits", "15")
    assert proc.returncode == 3


@pytest.mark.parametrize("name", sorted(hostile_inputs()))
def test_hostile_input_exits_two_with_a_coded_finding(name, tmp_path):
    data = hostile_inputs()[name]
    path = tmp_path / "hostile.json"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    proc = run_cli(str(path), "validate", "--json")
    assert proc.returncode == 2
    findings = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(f["code"], f["stage"]) for f in findings] \
        == [("SYNTAX_ERROR", "syntax")]
    proc = run_cli(str(path), "compress", "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert "[SYNTAX_ERROR]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_lone_surrogate_exits_two_in_every_output(tmp_path):
    path = tmp_path / "hostile.json"
    path.write_text(hostile_inputs()["lone-surrogate"], encoding="utf-8")
    proc = run_cli(str(path), "validate")
    assert (proc.returncode, proc.stderr) == (2, "")
    assert proc.stdout.startswith("error: [SYNTAX_ERROR] CityObjects — ")
    for output in (str(tmp_path / "out.json"), "-"):
        proc = run_cli(str(path), "save", output)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("Error: save: [SYNTAX_ERROR] ")


def test_validate_first_parses_the_input_once(town_path, tmp_path,
                                              monkeypatch):
    monkeypatch.delenv("CJTK_EXTENSIONS", raising=False)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda *a, **k: calls.append(1) or loads(*a, **k))
    with pytest.raises(SystemExit) as exc:
        cli.main([str(town_path), "validate", "compress",
                  "save", str(tmp_path / "out.json")])
    assert exc.value.code == 0
    assert len(calls) == 1


_EMPTY_INFO = json.dumps({
    "cityObjects": 0, "byType": {}, "byGeometryKind": {}, "vertices": 0,
    "templates": 0, "quantized": False, "minifiedBytes": 66}, indent=2) + "\n"

# argv (IN: the town, OTHER: a second town, EXT: the noise extension,
# MISSING: no such file) -> exit code and stdout (None: not pinned).
ARGV_CASES = {
    "an-option-value-naming-a-stage": (
        "IN subset --type merge info", 0, _EMPTY_INFO),
    "an-option-value-starting-with-a-dash": (
        "IN subset --id -x info", 2, ""),
    "an-attached-option-value": ("IN compress --digits=2", 0, ""),
    "bbox-values-starting-with-a-dash": (
        "IN subset --bbox -1e3 -1e3 -1e2 -.5e2 info", 0, _EMPTY_INFO),
    "a-bbox-with-its-first-value-attached": (
        "IN subset --bbox=-1e3 -1e3 -1e2 -1e2 info", 0, _EMPTY_INFO),
    "the-last-bbox-counts": (
        "IN subset --bbox 0 0 99 99 --bbox -1e3 -1e3 -1e2 -1e2 info", 0,
        _EMPTY_INFO),
    "an-option-before-the-positional": (
        "IN merge --policy suffix OTHER", 0, ""),
    "an-option-after-the-positional": (
        "IN merge OTHER --policy suffix", 3, ""),
    "an-unknown-stage": ("IN nosuch", 3, ""),
    "no-stage": ("IN", 3, ""),
    "merge-without-other": ("IN merge", 3, ""),
    "merge-with-a-missing-other": ("IN merge MISSING", 3, ""),
    "a-missing-extension-file": ("--extension MISSING IN validate", 3, ""),
    "digits-out-of-range": ("IN compress --digits 13", 3, ""),
    "a-bbox-with-three-numbers": ("IN subset --bbox 0 0 10", 3, ""),
    "a-bbox-running-into-the-next-stage": (
        "IN subset --bbox 0 0 10 save -", 3, ""),
    "an-abbreviated-option": ("IN compress --dig 2", 3, ""),
    "a-flag-given-a-value": ("IN validate --json=1", 3, ""),
    "a-bad-policy": ("IN merge --policy bad OTHER", 3, ""),
    "extension-before-input": ("--extension EXT IN validate", 0, ""),
    "extension-after-input": ("IN --extension EXT validate", 3, ""),
    "help": ("--help", 0, None),
    "help-after-input": ("IN --help", 0, None),
    "stage-help": ("IN subset --help", 0, None),
    "a-bbox-around-the-first-object": (
        "IN subset --bbox -1 -1 11 11 save -", 0, None),
    "an-attached-digits": ("IN compress --digits=3", 0, ""),
    "digits-in-hexadecimal": ("IN compress --digits 0x3", 3, ""),
    "two-ids": ("IN subset --id sw --id ne save -", 0, None),
    "an-attached-policy": ("IN merge --policy=suffix OTHER", 0, ""),
    "textures-path-without-base": ("IN textures-path", 3, ""),
    "partition-by-grid-and-type": ("IN partition --grid 2x2 --by-type", 3, ""),
    "dashes-before-the-output": ("IN save -- -", 0, None),
    "pretty-after-the-output": ("IN save - --pretty", 3, ""),
    "a-bbox-holding-nan": ("IN subset --bbox nan 0 1 1 info", 2, ""),
    "no-arguments": ("", 3, ""),
    "stage-help-before-a-bad-stage": ("IN validate --help nosuch", 0, None),
}


@pytest.mark.parametrize("name", sorted(ARGV_CASES))
def test_argv_parsing(name, town_path, tmp_path, monkeypatch):
    argv, code, stdout = ARGV_CASES[name]
    other = tmp_path / "other.json"
    other.write_text(as_text(town_tree()), encoding="utf-8")
    paths = {"IN": town_path, "OTHER": other, "EXT": NOISE_EXTENSION_PATH,
             "MISSING": tmp_path / "missing.json"}
    monkeypatch.delenv("CJTK_EXTENSIONS", raising=False)
    got, out, err = cli_cases._in_process(
        [str(paths.get(arg, arg)) for arg in argv.split()], "path", None)
    assert got == code, err
    if stdout is not None:
        assert out.decode("utf-8") == stdout
    assert b"Traceback" not in err


def test_the_last_bbox_wins(town_path):
    first = "--bbox", "-1e3", "-1e3", "-1e2", "-1e2"
    last = "--bbox", "-1", "-1", "11", "11"
    proc = run_cli(str(town_path), "subset", *first, *last, "save", "-")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(str(town_path), "subset", *last,
                                  "save", "-").stdout
    assert set(json.loads(proc.stdout)["CityObjects"]) == {"sw"}


def test_the_help_names_every_stage_and_option():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name, entry in cli._STAGES.items():
        summary = entry[0].__doc__.splitlines()[0]
        assert re.search(rf"^  {re.escape(name)} +{re.escape(summary)}$",
                         proc.stdout, re.MULTILINE), name
    proc = run_cli("IN", "subset", "--help")
    assert proc.returncode == 0
    words = " ".join(proc.stdout.split())
    for option in ("--id ID Keep this object (repeatable).",
                   "--type TYPE Keep objects of this type (repeatable).",
                   "--bbox MINX MINY MAXX MAXY Keep objects whose extent "
                   "centroid falls in the box."):
        assert option in words


def test_extension_files_are_loaded_by_validate_only(town_path, tmp_path):
    bad = tmp_path / "bad.ext.json"
    bad.write_text('{"type": "CityJSON"}', encoding="utf-8")
    proc = run_cli("--extension", str(bad), str(town_path),
                   "save", str(tmp_path / "out.json"))
    assert proc.returncode == 0
    proc = run_cli("--extension", str(bad), str(town_path), "validate")
    assert proc.returncode == 2
    assert "validate: [NOT_EXTENSION]" in proc.stderr


def test_the_extension_variable_is_read_by_validate(tmp_path):
    path = tmp_path / "noise.city.json"
    path.write_text(as_text(noise_building_tree()), encoding="utf-8")
    proc = run_cli(str(path), "validate", "--json")
    assert proc.returncode == 2
    assert "UNDECLARED_EXTENSION_MEMBER" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "cjtk.cli", str(path), "validate", "--json"],
        capture_output=True, text=True,
        env=dict(cli_env(), CJTK_EXTENSIONS=str(NOISE_EXTENSION_PATH)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize("name,stage", [
    pytest.param(name, stage, id=f"{name}-{stage[0]}")
    for name, (_, stages) in sorted(hostile_models().items())
    for stage in sorted(stages)])
def test_hostile_models_exit_two_with_a_coded_message(name, stage, tmp_path,
                                                     monkeypatch):
    text, stages = hostile_models()[name]
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.delenv("CJTK_EXTENSIONS", raising=False)
    if stage == ("validate",):
        code, out, err = cli_cases._in_process(
            [str(path), "validate", "--json"], "path", None)
        codes = [json.loads(line)["code"] for line in out.splitlines()]
        assert stages[stage] in codes
    else:
        # partition ends the pipeline; every other stage is followed by save
        tail = ["--out-dir", str(tmp_path)] if stage[0] == "partition" \
            else ["save", str(tmp_path / "out.json")]
        code, out, err = cli_cases._in_process(
            [str(path), *stage, *tail], "path", None)
        assert f"{stage[0]}: [{stages[stage]}]".encode() in err
    assert code == 2
    assert b"Traceback" not in err


@pytest.mark.parametrize("name", sorted(deep_documents()))
def test_deep_values_pass_every_stage(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(as_text(deep_documents()[name]), encoding="utf-8")
    for stage in (["validate"], ["compress"], ["subset", "--type", "Building"],
                  ["merge", "--policy", "suffix", str(path)], ["metadata"]):
        proc = run_cli(str(path), *stage, "save", "-")
        assert proc.returncode == 0, (stage, proc.stderr)
    proc = run_cli(str(path), "partition", "--grid", "2x2", "--out-dir",
                   str(tmp_path / "parts"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"),
                    reason="the platform has no SIGPIPE")
def test_a_reader_that_stops_early_ends_the_process_by_sigpipe(tmp_path):
    path = tmp_path / "big.city.json"
    scene = synth.make_scene(seed=3, buildings=120, clusters=4)
    path.write_text(codec.dumps(synth.scene_to_model(scene)),
                    encoding="utf-8")
    assert path.stat().st_size > 2 * 65536  # more than a pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "cjtk.cli", str(path),
                             "save", "-"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()  # as `| head -c 100` does
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert stderr == b""


def test_an_unreadable_input_is_a_usage_error(tmp_path):
    proc = run_cli(str(tmp_path), "validate")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr


def test_dedupe_refuses_a_nan_tolerance(town_path, tmp_path):
    proc = run_cli(str(town_path), "dedupe", "--tolerance", "nan",
                   "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert "dedupe: [BAD_TRANSFORM]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_crashing_stage_exits_two_with_internal_error(town_path,
                                                        monkeypatch, capsys):
    def crash(model):
        raise RuntimeError("boom")

    monkeypatch.setattr(ops, "refresh_metadata", crash)
    monkeypatch.setattr(sys, "argv", ["cjtk", str(town_path), "metadata"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "metadata: [INTERNAL_ERROR] RuntimeError: boom" \
        in capsys.readouterr().err


def test_dedupe_with_a_tiny_tolerance_writes_the_tolerance_zero_file(
        tmp_path):
    path = tmp_path / "cube.city.json"
    path.write_text(as_text(cube_tree(origin=(85000.0, 0.0, 0.0))),
                    encoding="utf-8")
    outputs = []
    for tolerance in ("1e-310", "0"):
        out = tmp_path / f"out-{tolerance}.json"
        proc = run_cli(str(path), "dedupe", "--tolerance", tolerance,
                       "save", str(out))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", sorted(hostile_documents()))
def test_hostile_citygml_exits_two_with_a_coded_message(name, tmp_path):
    text, code, _ = hostile_documents()[name]
    path = tmp_path / "hostile.gml"
    path.write_text(text, encoding="utf-8")
    proc = run_cli(str(path), "import", "save", str(tmp_path / "out.json"))
    assert proc.returncode == 2
    assert f"import: [{code}]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(hostile_extension_files()))
def test_hostile_extension_files_are_coded_or_skipped(name, town_path,
                                                      tmp_path):
    data, code = hostile_extension_files()[name]
    bad = tmp_path / "bad.ext.json"
    bad.write_bytes(data)
    proc = run_cli("--extension", str(bad), str(town_path), "validate")
    assert proc.returncode == 2
    assert f"validate: [{code}]" in proc.stderr
    assert "Traceback" not in proc.stderr
    env = dict(os.environ, CJTK_EXTENSIONS=str(bad))
    proc = subprocess.run([sys.executable, "-m", "cjtk.cli", str(town_path),
                           "validate"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


# -- one ops.merge call per run of merge stages --------------------------------


def _cli_main(argv, monkeypatch, capsys):
    """Exit code, stdout and stderr of one in-process run of ``argv``."""
    monkeypatch.setattr(sys, "argv", ["cjtk", *map(str, argv)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _merges(paths, policy, out):
    """The pipeline merging ``paths`` in order, saved to ``out``."""
    argv = [paths[0]]
    for path in paths[1:]:
        argv += ["merge", "--policy", policy, path]
    return argv + ["save", out]


def _chained(paths, policy):
    """The bytes one ops.merge call per merge stage gives."""
    model = codec.load(paths[0])
    for path in paths[1:]:
        model = ops.merge([model, codec.load(path)], policy=policy)
    return codec.dumps(model).encode()


def _one_call(paths, policy):
    """The bytes one ops.merge call over every file gives."""
    return codec.dumps(ops.merge([codec.load(path) for path in paths],
                                 policy=policy)).encode()


def _written(models, directory, stem):
    paths = []
    for i, model in enumerate(models):
        path = directory / f"{stem}-{i}.json"
        path.write_text(codec.dumps(model), encoding="utf-8")
        paths.append(path)
    return paths


@pytest.fixture()
def merge_calls(monkeypatch):
    """One entry per ops.merge call the CLI makes."""
    calls = []
    merge = ops.merge
    monkeypatch.setattr(ops, "merge", lambda models, policy="error": (
        calls.append(len(models)) or merge(models, policy=policy)))
    return calls


@pytest.mark.parametrize("digits", [None, 3])
def test_a_merge_run_makes_one_call_and_the_chains_bytes(
        digits, tmp_path, monkeypatch, capsys, merge_calls):
    """The corpus and synth scenes, raw or at 3 digits, split 2x2 and
    merged again under both policies, then with a part repeated."""
    folded = 0
    for name, model in base_inputs():
        if digits is not None:
            model = geomops.quantize(model, digits=digits, requantize=True)
        try:
            parts = [part for _, part in ops.partition_grid(model, 2, 2)]
        except CjtkError:
            continue  # nothing to split
        paths = _written(parts, tmp_path, name)
        for policy, run in [("error", paths), ("suffix", paths),
                            ("suffix", paths + paths[:1] * 2)]:
            out = tmp_path / "merged.json"
            merge_calls.clear()
            result = _cli_main(_merges(run, policy, out), monkeypatch, capsys)
            assert result == (0, "", ""), (name, policy)
            stages = len(run) - 1
            assert merge_calls == ([len(run)] if stages > 1
                                   else [2] * stages), (name, policy)
            folded += stages > 1
            assert out.read_bytes() == _chained(run, policy), (name, policy)
    assert folded >= 25


def test_fifteen_merges_with_one_transform_make_one_call(
        tmp_path, monkeypatch, capsys, merge_calls):
    model = geomops.quantize(as_model(town_tree()), digits=3)
    paths = _written([model] * 16, tmp_path, "town")
    out = tmp_path / "merged.json"
    assert _cli_main(_merges(paths, "suffix", out), monkeypatch, capsys) \
        == (0, "", "")
    assert merge_calls == [16]
    assert out.read_bytes() == _chained(paths, "suffix")


def _runs_across_transforms():
    """Sixteen parts that one ops.merge call encodes differently from a
    chain of pairwise calls, by name: their transforms differ, or their
    coordinates lie beyond 2^48 quanta."""
    rng = random.Random(2)

    def cube(i, x0=0.0):
        return as_model(cube_tree(
            oid=f"c{i}", origin=(x0 + rng.uniform(0, 100),
                                 rng.uniform(0, 100), rng.uniform(0, 10)),
            size=rng.uniform(1, 10)))

    def at(model, digits, **kw):
        return geomops.quantize(model, digits=digits, **kw)

    raw = [cube(i) for i in range(16)]
    quarter = Transform(scale=[0.25] * 3, translate=[0.0] * 3)
    # Nanometres on UTM-sized coordinates: floats hold fewer digits.
    utm = {"scale": [1e-9] * 3, "translate": [5400000.5, 450000.25, 12.5]}
    far = []
    for i in range(16):
        tree = cube_tree(oid=f"c{i}", transform=utm)
        tree["vertices"] = [[rng.randint(-10 ** 9, 10 ** 9) for _ in "xyz"]
                            for _ in tree["vertices"]]
        far.append(as_model(tree))
    return {
        "mixed-digits": [at(m, 3 if i % 2 else 1) for i, m in enumerate(raw)],
        "raw-model-among-quantized": raw[:1] + [at(m, 3) for m in raw[1:]],
        "quantized-model-among-raw": [at(raw[0], 3)] + raw[1:],
        "scale-not-a-power-of-ten": [
            replace(at(m, 3, translate=[0.0] * 3), transform=quarter)
            for m in raw],
        "beyond-2^48-quanta": far,
    }


@pytest.fixture()
def parse_calls(monkeypatch):
    """One entry per codec.parse call the CLI makes: what it was handed,
    an open file."""
    calls = []
    parse = codec.parse
    monkeypatch.setattr(codec, "parse", lambda source: (
        calls.append(source) or parse(source)))
    return calls


def _worst_errors(parts, merged):
    """The largest distance, in quanta of ``merged``, from a decoded
    vertex of ``parts`` to the vertex ``merged`` makes of it: exactly, as
    stored integer times quantum plus translate, and decoded as doubles."""
    inputs = [v for part in parts for v in (
        geomops.dequantize(part) if part.transform else part).vertices]
    quantum = Fraction(1, round(1 / merged.transform.scale[0]))
    exact = [[Fraction(q) * quantum + Fraction(t) for q, t in
              zip(row, merged.transform.translate)] for row in merged.vertices]
    decoded = geomops.dequantize(merged).vertices
    assert len(inputs) == len(exact) == len(decoded)
    return tuple(max(abs(Fraction(a) - Fraction(b)) / quantum
                     for u, v in zip(inputs, outputs) for a, b in zip(u, v))
                 for outputs in (exact, decoded))


@pytest.mark.parametrize("name", sorted(_runs_across_transforms()))
def test_a_run_across_transforms_makes_one_call(
        name, tmp_path, monkeypatch, capsys, merge_calls, parse_calls):
    """One ops.merge call over every file, each parsed once, within half a
    quantum of its inputs."""
    parts = _runs_across_transforms()[name]
    paths = _written(parts, tmp_path, "part")
    out = tmp_path / "merged.json"
    parse_calls.clear()
    assert _cli_main(_merges(paths, "suffix", out), monkeypatch, capsys) \
        == (0, "", "")
    assert merge_calls == [16]
    assert len(parse_calls) == len(paths)
    assert out.read_bytes() == _one_call(paths, "suffix")
    exact, decoded = _worst_errors(parts, codec.load(out))
    assert exact <= Fraction(1, 2)
    # Decoding adds the doubles' rounding (0.93 quanta on
    # beyond-2^48-quanta); the chain of pairwise calls is no nearer.
    chain = _worst_errors(parts, codec.loads(_chained(paths, "suffix")))
    assert decoded <= chain[1]


@pytest.mark.parametrize("name", sorted(_runs_across_transforms()))
def test_a_run_merged_stage_by_stage_parses_each_file_once(
        name, tmp_path, monkeypatch, capsys, merge_calls, parse_calls):
    """A run whose last file is broken: the files before it are merged
    one by one to find the first failing stage, from the models already
    parsed."""
    paths = _written(_runs_across_transforms()[name], tmp_path, "part")
    paths[-1].write_text('{"type": "CityJSON"', encoding="utf-8")
    parse_calls.clear()
    assert _cli_main(_merges(paths, "suffix", tmp_path / "merged.json"),
                     monkeypatch, capsys) \
        == (2, "", "Error: merge: [SYNTAX_ERROR] Expecting ',' delimiter\n")
    assert merge_calls == [2] * 14
    assert len(parse_calls) == len(paths)


@pytest.mark.parametrize("broken", [None, 0, 1])
def test_the_input_is_closed_whether_or_not_a_stage_read_it(
        broken, tmp_path, monkeypatch, capsys):
    """The pipeline's input is closed once read, and also when the first
    OTHER of a merge fails before any stage has read it."""
    paths = _written(_runs_across_transforms()["mixed-digits"][:3],
                     tmp_path, "part")
    if broken is not None:
        paths[1 + broken].write_text("[", encoding="utf-8")
    opened = []
    monkeypatch.setattr(cli, "open", lambda *args: opened.append(
        open(*args)) or opened[-1], raising=False)
    code, _, _ = _cli_main(_merges(paths, "suffix", tmp_path / "out.json"),
                           monkeypatch, capsys)
    assert code == (0 if broken is None else 2)
    assert [f.name for f in opened] == [str(paths[0])]
    assert opened[0].closed


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_merge_run_reads_a_pipe_once(tmp_path):
    """An OTHER that can be read only once, as ``<(...)`` gives, in a run
    whose transforms differ."""
    parts = _runs_across_transforms()["mixed-digits"][:4]
    paths = _written(parts, tmp_path, "part")
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes,
                              args=(paths[1].read_bytes(),), daemon=True)
    writer.start()
    out = tmp_path / "merged.json"
    argv = _merges(paths[:1] + [pipe] + paths[2:], "suffix", out)
    proc = subprocess.run([sys.executable, "-m", "cjtk.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_bytes() == _one_call(paths, "suffix")


def _failing_runs(directory):
    """Merge pipelines that fail at some stage, by name: (argv, the error
    line the first failing stage prints)."""
    def cube(oid, x, **root):
        return as_model(cube_tree(oid=oid, origin=(x, 0.0, 0.0), **root))

    cubes = _written([cube(f"c{i}", 20.0 * i) for i in range(5)],
                     directory, "cube")
    crs = _written([cube(f"s{i}", 20.0 * i, metadata={
        "referenceSystem": f"EPSG:{code}"}) for i, code in
        enumerate([7415, 7415, 28992, 4326])], directory, "crs")
    # Digits 3 and 1 in turn.
    mixed = _written([geomops.quantize(cube(f"m{i}", 20.0 * i),
                                       digits=3 if i % 2 else 1)
                      for i in range(5)], directory, "mixed")
    broken = directory / "broken.json"
    broken.write_text('{"type": "CityJSON"', encoding="utf-8")
    out = directory / "merged.json"
    syntax = "merge: [SYNTAX_ERROR] Expecting ',' delimiter"
    return {
        "syntax-error-in-the-pipeline-input": (
            _merges([broken] + cubes[:3], "error", out), syntax),
        "duplicate-id-at-stage-3-after-a-transform-change": (
            _merges(mixed[:3] + mixed[1:2] + mixed[3:], "error", out),
            "merge: [DUPLICATE_ID] both inputs define 'm1' at CityObjects/m1"),
        "syntax-error-in-part-3-after-a-transform-change": (
            _merges(mixed[:3] + [broken] + mixed[3:], "error", out), syntax),
        "duplicate-id-at-stage-3": (
            _merges(cubes[:3] + cubes[1:2] + cubes[3:], "error", out),
            "merge: [DUPLICATE_ID] both inputs define 'c1' at CityObjects/c1"),
        # One call would name all three systems.
        "crs-mismatch-across-three-systems": (
            _merges(crs, "error", out),
            "merge: [CRS_MISMATCH] inputs use different reference systems: "
            "['EPSG:28992', 'EPSG:7415'] at metadata/referenceSystem"),
        # One call alone would report the broken part 4.
        "syntax-error-in-part-4-after-a-duplicate-id-at-stage-2": (
            _merges(cubes[:2] + cubes[1:2] + cubes[2:3] + [broken],
                    "error", out),
            "merge: [DUPLICATE_ID] both inputs define 'c1' at CityObjects/c1"),
        "syntax-error-in-part-3": (
            _merges(cubes[:3] + [broken] + cubes[3:], "error", out), syntax),
    }


@pytest.mark.parametrize("name", [
    "duplicate-id-at-stage-3", "crs-mismatch-across-three-systems",
    "syntax-error-in-part-4-after-a-duplicate-id-at-stage-2",
    "syntax-error-in-part-3", "syntax-error-in-the-pipeline-input",
    "duplicate-id-at-stage-3-after-a-transform-change",
    "syntax-error-in-part-3-after-a-transform-change"])
def test_a_failing_merge_run_reports_the_first_failing_stage(
        name, tmp_path, monkeypatch, capsys):
    argv, line = _failing_runs(tmp_path)[name]
    assert _cli_main(argv, monkeypatch, capsys) == (2, "", f"Error: {line}\n")


# -- the streaming writer -------------------------------------------------------


@pytest.mark.parametrize("model", [pytest.param(model, id=name)
                                   for name, model in writer_models()])
def test_save_and_partition_write_the_reference_bytes(model, tmp_path,
                                                      monkeypatch, capsys):
    src = tmp_path / "in.json"
    codec.dump(model, src)
    model = codec.load(src)
    assert _cli_main([src, "save", "-"], monkeypatch, capsys) \
        == (0, reference_text(model) + "\n", "")
    for flags, pretty in (([], False), (["--pretty"], True)):
        out = tmp_path / "out.json"
        code, _, err = _cli_main([src, "save", *flags, out], monkeypatch,
                                 capsys)
        assert (code, err) == (0, "")
        assert out.read_bytes() == reference_text(model, pretty).encode()
    try:
        parts = ops.partition_grid(model, 2, 2)
    except CjtkError as exc:
        parts, failure = [], exc.code
    directory = tmp_path / "parts"
    code, stdout, err = _cli_main(
        [src, "partition", "--grid", "2x2", "--out-dir", directory],
        monkeypatch, capsys)
    if not parts:
        assert code == 2 and f"[{failure}]" in err
        return
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [str(directory / f"in_{pid}.json")
                                   for pid, _ in parts]
    for pid, part in parts:
        assert (directory / f"in_{pid}.json").read_bytes() \
            == reference_text(part).encode()
    assert len(list(directory.iterdir())) == len(parts)


def test_a_failed_save_keeps_the_old_output(tmp_path):
    tree = cube_tree()
    tree["vertices"][-1] = [10 ** 308, 0, 0]
    tree["transform"] = {"scale": [10.0, 1.0, 1.0],
                         "translate": [0.0, 0.0, 0.0]}
    src = tmp_path / "overflows.json"
    src.write_text(as_text(tree), encoding="utf-8")
    out = tmp_path / "out.json"
    out.write_text("old bytes", encoding="utf-8")
    for flags in ([], ["--pretty"]):
        proc = run_cli(str(src), "decompress", "save", *flags, str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("Error: save: [SYNTAX_ERROR] ")
        assert out.read_text(encoding="utf-8") == "old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["out.json", "overflows.json"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout on this platform")
def test_save_writes_a_device_in_place(town_path):
    proc = run_cli(str(town_path), "save", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == codec.dumps(codec.load(town_path))


# -- unwritable streams and the command's entry --------------------------------


def _exit_cases(tmp_path, town_path):
    """Command lines that exit 0, 2 (errors found) and 3 (usage error)."""
    bad = tmp_path / "bad.json"
    bad.write_text(as_text(cube_tree(cotype="Skyscraper")), encoding="utf-8")
    return [([town_path, "validate", "--json"], 0),
            ([bad, "validate"], 2),
            ([tmp_path / "missing.json", "validate"], 3)]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not os.path.exists("/dev/full"),
                    reason="no /dev/full on this platform")
def test_a_full_stream_keeps_the_exit_code(tmp_path):
    """The error, usage and help lines are best-effort: with standard error
    (or, for the help, standard output) on a full device, the exit code is
    still 3, 2 or 0, not 1."""
    gml = tmp_path / "square.gml"
    gml.write_text(SQUARE_VARIANTS["poslist-one-line"](), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(as_text(cube_tree(cotype="Skyscraper")), encoding="utf-8")
    for argv, code, stdout_full in [
            ([tmp_path / "missing.json", "validate"], 3, False),
            ([gml, "import", "save", tmp_path / "out.json"], 2, False),
            ([bad, "validate"], 2, True),
            (["--help"], 0, True), ([bad, "subset", "--help"], 0, True)]:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cjtk.cli", *map(str, argv)],
                stdout=full if stdout_full else subprocess.DEVNULL,
                stderr=full, env=cli_env())
        assert proc.returncode == code, argv


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, tmp_path,
                                                  town_path, monkeypatch,
                                                  capsys):
    monkeypatch.delenv("CJTK_EXTENSIONS", raising=False)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        frozen = gc.get_freeze_count()
        for argv, code in _exit_cases(tmp_path, town_path):
            assert _cli_main(argv, monkeypatch, capsys)[0] == code
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


_FROZEN_AT_EXIT = (
    "import atexit, gc; atexit.register(lambda: print("
    "gc.get_freeze_count() > 0)); from cjtk.cli import {0}; {0}()")


def test_the_command_freezes_the_collector_as_it_exits(tmp_path, town_path):
    for argv, code in _exit_cases(tmp_path, town_path):
        argv = list(map(str, argv))
        want = run_cli(*argv)
        assert want.returncode == code
        for function, frozen in (("entry", True), ("main", False)):
            got = subprocess.run(
                [sys.executable, "-c", _FROZEN_AT_EXIT.format(function),
                 *argv], capture_output=True, text=True, env=cli_env())
            assert (got.returncode, got.stdout, got.stderr) \
                == (code, f"{want.stdout}{frozen}\n", want.stderr)
